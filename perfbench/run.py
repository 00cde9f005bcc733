"""Wall-clock benchmark of the repository's public API.

Run from the repository root::

    python3 perfbench/run.py --workload lp-skewed --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``
measured without tracing.  ``--trace 1`` repeats the measurement
untraced, then again with span wrappers around each layer's public
callables (see ``tracer.py``), and prints the per-layer metrics plus
the tracing overhead.  Workloads, metrics, clocks and seeds are
described in ``spec.py``.

Output: a human-readable report, one ``{"report": ...}`` JSON line
with every number (workload-specific metrics and exact counts
included), and as the last line the result object ``{"correct",
"attempted", "failed", "metrics"}``.  Spans of a traced run are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spec
from calibrate import SAMPLES, Calibrator, unit_seconds
from tracer import CACHE_GET, LayerTimes, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src/``; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _passes(workload: str, state, seconds: float, calibrator,
            tracer=None) -> list:
    """Run passes until about ``seconds`` of them have been timed.

    Always at least one; another starts only while the expected finish
    lies closer to ``seconds`` than stopping now does.  Outputs are
    checked after each pass, outside its timing.
    """
    import workloads

    done = []
    timed = 0.0
    while True:
        gc.collect()
        p = workloads.run_pass(workload, state, tracer, calibrator)
        if tracer is not None:
            p.spans = tracer.take()
        workloads.check(p)
        if not done:
            p.peak_rss_mb = _peak_rss_mb()
        done.append(p)
        timed += p.wall_s
        if timed + timed / len(done) / 2 >= seconds:
            return done


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _op_cal(p) -> list:
    """Each operation's wall time over the calibrator samples around it."""
    return [op.seconds / unit_seconds(
        p.calib[max(op.cal_at - SAMPLES, 0):op.cal_at + SAMPLES])
        for op in p.ops]


def _end_to_end(passes: list, setup_times: list) -> dict:
    return {
        "setup_s": _median(setup_times),
        "sim_ms": _median([p.sim_ms for p in passes]),
        "peak_rss_mb": passes[0].peak_rss_mb,
        "pass_cal": _median([sum(_op_cal(p)) for p in passes]),
        "op_cal.gmean": statistics.geometric_mean(
            [c for p in passes for c in _op_cal(p)]),
    }


def _raw_wall(passes: list) -> dict:
    """The uncalibrated wall figures behind ``pass_cal``/``op_cal``."""
    return {
        "wall_s": _median([p.wall_s for p in passes]),
        "op_ms.gmean": 1e3 * statistics.geometric_mean(
            [op.seconds for p in passes for op in p.ops]),
        "calibrator_ms": 1e3 * _median(
            [unit_seconds(p.calib) for p in passes]),
    }


def _reported(workload: str, passes: list) -> dict:
    ops = [op for p in passes for op in p.ops]
    out = {"fail_frac": sum(op.failed for op in ops) / max(len(ops), 1),
           **_raw_wall(passes)}

    def per_pass_sum(kind: str) -> float:
        return _median([sum(op.seconds for op in p.ops if op.kind == kind)
                        for p in passes])

    def latencies(kind: str, scale: float) -> list:
        return [op.seconds * scale for op in ops if op.kind == kind]

    for name, (_, _, _, applies) in spec.REPORTED.items():
        if workload not in applies or name in out:
            continue
        if name == "req_per_s":
            out[name] = _median([
                sum(op.kind != "write" for op in p.ops) / p.wall_s
                for p in passes])
        elif name.endswith("_s"):
            out[name] = per_pass_sum(name[:-2])
        else:
            kind, pct = name.split(".")
            unit_scale = 1e6 if kind.endswith("_us") else 1e3
            out[name] = _percentile(latencies(kind.split("_")[0],
                                              unit_scale), float(pct[1:]))
    return out


def _exact(p) -> dict:
    counts = dict(p.counts, sim_ms=p.sim_ms)
    return {name: counts[name] for name in spec.EXACT_COUNTS}


def _per_layer(traced: list, untraced: list, build_s: list) -> dict:
    """Per-layer metrics of the traced passes (median over passes)."""
    rows = []
    for p in traced:
        lt = LayerTimes(p.spans)
        c = p.counts
        delta_calls = lt.calls.get("incremental.delta", 0)
        edges = c["core.engine.edges_processed"]
        fetched = c["storage.io.block_hits"] + c["storage.io.blocks_read"]
        write_ns = lt.total_ns.get("op.write", 0)
        gets = lt.calls.get(CACHE_GET, 0)
        rows.append({
            "graph.mutate.insert_ms": lt.ms("graph.mutate.insert"),
            "graph.mutate.write_share": (
                lt.total_ns.get("graph.mutate.insert", 0) / write_ns
                if write_ns else 0.0),
            "service.fingerprint.calls": lt.calls.get(
                "service.fingerprint", 0),
            "service.fingerprint.ms": lt.ms("service.fingerprint"),
            "service.registry.probe.calls": lt.calls.get(
                "service.registry.probe", 0),
            "service.registry.probe.ms": lt.ms("service.registry.probe"),
            "service.planner.calls": lt.calls.get("service.planner", 0),
            "service.planner.us": lt.per_call_us("service.planner"),
            "service.cache.hit_ratio": (
                lt.notes.get(CACHE_GET, 0) / gets if gets else 0.0),
            "service.cache.lookup_us": lt.per_call_us(CACHE_GET),
            "service.executor.self_us": lt.per_call_us(
                "op.submit", self_time=True),
            "incremental.delta.calls": delta_calls,
            "incremental.delta.ms": lt.ms("incremental.delta"),
            "incremental.delta.useful_ratio": (
                c["delta_served"] / delta_calls if delta_calls else 0.0),
            "core.engine.iterations": c["core.engine.iterations"],
            "core.engine.edges_processed": edges,
            "core.engine.useful_ratio": (
                c["core.engine.label_writes"] / edges if edges else 0.0),
            "core.engine.self_ms": lt.self_ms("core.engine"),
            "core.backends.calls": lt.calls.get("core.backends", 0),
            "core.backends.ms": lt.ms("core.backends"),
            "parallel.scheduler.calls": lt.calls.get(
                "parallel.scheduler", 0),
            "parallel.scheduler.ms": lt.ms("parallel.scheduler"),
            "parallel.scheduler.thrifty_share": lt.share_of_root(
                "parallel.scheduler", "op.thrifty"),
            "instrument.costmodel.ms": lt.ms("instrument.costmodel"),
            "storage.spool_ms": lt.ms("storage.spool"),
            "storage.fetch_ms": lt.ms("storage.fetch"),
            "storage.cache.hit_ratio": (
                c["storage.io.block_hits"] / fetched if fetched else 0.0),
            "storage.io.blocks_read": c["storage.io.blocks_read"],
            "storage.io.blocks_reread": c["storage.io.blocks_reread"],
            "storage.io.peak_resident_bytes":
                c["storage.io.peak_resident_bytes"],
            "storage.io.modeled_ms": c["storage.io.modeled_ms"],
            "baselines.afforest.dependent_accesses":
                c["baselines.afforest.dependent_accesses"],
        })
    layer = {name: _median([row[name] for row in rows]) for name in rows[0]}
    layer["graph.build_s"] = _median(build_s)
    layer["trace.overhead_frac"] = (
        _end_to_end(traced, [])["pass_cal"]
        / _end_to_end(untraced, [])["pass_cal"] - 1.0)
    return layer


def _op_layer_shares(traced: list) -> dict:
    """Self-time share of each layer inside each kind of operation."""
    spans = [s for p in traced for s in p.spans]
    lt = LayerTimes(spans)
    return {root: {name: ns / lt.total_ns[root]
                   for name, ns in sorted(layers.items(),
                                          key=lambda kv: -kv[1])}
            for root, layers in lt.by_root.items()
            if root.startswith("op.") and lt.total_ns.get(root)}


def _write_spans(path: Path, traced: list) -> None:
    with open(path, "w") as fh:
        fh.write("pass\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for k, p in enumerate(traced):
            for i, (name, start, end, parent, _) in enumerate(p.spans):
                fh.write(f"{k}\t{i}\t{parent}\t{name}\t{start}\t{end}\n")


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            scale: float = 1.0, setup_reps: int = 3,
            spans_path: Path | None = None) -> dict:
    """Run one benchmark invocation; return every number it produced."""
    import workloads

    setup_times, build_s = [], []
    for _ in range(setup_reps):
        state = None
        gc.collect()
        with Tracer() if trace else contextlib.nullcontext() as tracer:
            t0 = time.perf_counter()
            state = workloads.setup(workload, seed, scale)
            setup_times.append(time.perf_counter() - t0)
            if trace:
                build_s.append(
                    LayerTimes(tracer.take()).ms("graph.build") / 1e3)
    workloads.warm_up()
    calibrator = Calibrator(spec.WORKLOADS[workload]["calibrator"])
    calibrator.sample()

    untraced = _passes(workload, state, seconds, calibrator)
    out = {
        "workload": workload, "seed": seed, "trace": trace,
        "passes": len(untraced),
        "end_to_end": _end_to_end(untraced, setup_times),
        "reported": _reported(workload, untraced),
        "exact": _exact(untraced[0]),
        "exact_repeats": all(_exact(p) == _exact(untraced[0])
                             for p in untraced),
    }
    runs = list(untraced)
    if trace:
        with Tracer() as tracer:
            traced = _passes(workload, state, seconds, calibrator, tracer)
        runs += traced
        out["traced_passes"] = len(traced)
        out["per_layer"] = _per_layer(traced, untraced, build_s)
        out["exact_traced"] = _exact(traced[0])
        out["op_layer_shares"] = _op_layer_shares(traced)
        if spans_path is not None:
            _write_spans(spans_path, traced)
    out["attempted"] = sum(len(p.ops) for p in runs)
    out["failed"] = sum(p.failed for p in runs)
    return out


def _print_report(res: dict) -> None:
    print(f"perfbench {res['workload']} seed={res['seed']} "
          f"trace={int(res['trace'])} passes={res['passes']} "
          f"attempted={res['attempted']} failed={res['failed']}")
    rows = [(n, v, spec.END_TO_END[n]) for n, v in res["end_to_end"].items()]
    rows += [(n, v, spec.REPORTED[n]) for n, v in res["reported"].items()]
    rows += [(n, v, spec.PER_LAYER[n])
             for n, v in res.get("per_layer", {}).items()]
    for name, value, (clock, unit, *_) in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {clock}")
    for root, shares in res.get("op_layer_shares", {}).items():
        top = ", ".join(f"{k} {v:.0%}" for k, v in list(shares.items())[:5])
        print(f"  self-time shares in {root}: {top}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    OUT.mkdir(exist_ok=True)
    # The out-of-core tier spools to a temporary file: keep it in here.
    tempfile.tempdir = str(OUT)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                  spans_path=OUT / f"spans-{args.workload}-{args.seed}.tsv")
    _print_report(res)
    print(json.dumps({"report": res}, default=float))
    names = spec.PER_LAYER if args.trace else spec.END_TO_END
    source = res["per_layer"] if args.trace else res["end_to_end"]
    metrics = {name: {"value": source[name], "unit": names[name][1]}
               for name in names}
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics},
                     default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
