"""The three workloads: seeded inputs, one timed pass, output checks.

Each workload's ``setup(seed, scale)`` / ``run_pass(state, tracer,
calibrator)`` pair drives the public API from one thread.
``setup`` builds every input from the seed (cold: graphs come from
``DatasetSpec.build``, never the ``repro.graph.load`` memo);
``run_pass`` times each operation on its own, interleaves calibrator
samples (see ``calibrate.py``) between operations, and returns a
:class:`Pass`.  Checking the outputs against the scipy oracle happens
in :func:`check`, outside every timed region.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro import connected_components
from repro.analysis.reordering import relabel
from repro.graph.datasets import DATASETS
from repro.instrument import costmodel
from repro.options import ThriftyOptions
from repro.parallel.machine import SKYLAKEX
from repro.service import CCRequest, CCService
from repro.validate import validate_against_reference

import spec

_NO_SPAN = contextlib.nullcontext()

#: Requests between calibrator samples on the serving workload (a
#: multiple of the write interval).
CALIBRATE_EVERY = 200

#: Methods whose results come from the label-propagation engine.
ENGINE_METHODS = ("thrifty", "dolp")


@dataclass
class Op:
    """One timed operation: a solve, a request or a write."""

    kind: str
    seconds: float
    failed: bool = False
    # Calibrator samples taken before the operation started; the
    # samples on either side of this index bracket it in time.
    cal_at: int = 0


@dataclass
class Pass:
    """One pass over a workload's operation list."""

    ops: list[Op]
    # Calibrator samples (seconds) interleaved with the operations.
    calib: list[float]
    sim_ms: float = 0.0
    counts: dict = field(default_factory=dict)
    # (graph, result, op indices served that result) awaiting the
    # oracle; cleared by check().
    outputs: list = field(default_factory=list)
    # Spans recorded during the pass when it ran traced.
    spans: list = field(default_factory=list)
    # Peak RSS of the process after the run's first pass.
    peak_rss_mb: float = 0.0

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.ops)

    @property
    def wall_s(self) -> float:
        """Wall seconds spent inside the pass's operations."""
        return sum(op.seconds for op in self.ops)


def _report_exception(what: str) -> None:
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _tally(counts: dict, method: str, result) -> None:
    """Add one result's exact work counts to a pass's tally."""
    if method in ENGINE_METHODS:
        total = result.trace.total_counters()
        counts["core.engine.iterations"] += result.num_iterations
        counts["core.engine.edges_processed"] += total.edges_processed
        counts["core.engine.label_writes"] += total.label_writes
    elif method == "afforest":
        counts["baselines.afforest.dependent_accesses"] += \
            result.trace.total_counters().dependent_accesses
    io = result.extras.get("io")
    if io is not None:
        for key in ("blocks_read", "blocks_reread", "block_hits"):
            counts[f"storage.io.{key}"] += io[key]
        counts["storage.io.modeled_ms"] += io["modeled_ms"]
        counts["storage.io.peak_resident_bytes"] = max(
            counts["storage.io.peak_resident_bytes"],
            io["peak_resident_bytes"])


def _empty_counts() -> dict:
    keys = ("core.engine.iterations", "core.engine.edges_processed",
            "core.engine.label_writes",
            "baselines.afforest.dependent_accesses",
            "storage.io.blocks_read", "storage.io.blocks_reread",
            "storage.io.block_hits", "storage.io.peak_resident_bytes",
            "storage.io.modeled_ms", "delta_served")
    counts = dict.fromkeys(keys, 0)
    counts["storage.io.modeled_ms"] = 0.0
    return counts


def check(p: Pass) -> None:
    """Run the scipy oracle on every distinct output of a pass.

    A wrong or unverifiable output fails every operation it served.
    """
    for graph, result, served in p.outputs:
        try:
            validate_against_reference(graph, result)
        except Exception:
            _report_exception("oracle check")
            for i in served:
                p.ops[i].failed = True
    p.outputs.clear()


# -- label-propagation solves (lp-skewed, road-stream) --------------------


def perturb(graph, rng: np.random.Generator):
    """Relabel a seeded ``RELABEL_FRACTION`` of the ids above the hub.

    The hub (lowest-id max-degree vertex) and every id below it keep
    their place, so Zero Planting plants at the same vertex.
    """
    n = graph.num_vertices
    hub = graph.max_degree_vertex()
    k = max(2, int(spec.RELABEL_FRACTION * n))
    pick = rng.choice(np.arange(hub + 1, n), size=k, replace=False)
    perm = np.arange(n, dtype=np.int64)
    perm[pick] = rng.permutation(pick)
    return relabel(graph, perm)[0]


@dataclass
class SolveState:
    graphs: dict
    ops: list          # (graph name, op kind, method, options)


def _solve_setup(workload: str, seed: int, scale: float) -> SolveState:
    wl = spec.WORKLOADS[workload]
    graphs = {}
    ops = []
    for i, (name, graph_scale) in enumerate(wl["graphs"].items()):
        graph = DATASETS[name].build(graph_scale * scale)
        graph = perturb(graph, np.random.default_rng([seed, i]))
        graphs[name] = graph
        for kind in wl["methods"]:
            if kind == "thrifty_ooc":
                budget = int(wl["resident_fraction"] * graph.indices.nbytes)
                ops.append((name, kind, "thrifty", ThriftyOptions(
                    storage="out_of_core", resident_bytes=budget)))
            else:
                ops.append((name, kind, kind, None))
    return SolveState(graphs, ops)


def solve(graph, method: str, options=None):
    """Front-door solve plus its simulated time, as a user times it."""
    result = connected_components(graph, method, options=options)
    sim_ms = costmodel.simulate_run_time(
        result.trace, SKYLAKEX, graph.num_vertices).total_ms
    io = result.extras.get("io")
    if io is not None:
        sim_ms += io["modeled_ms"]
    return result, sim_ms


def _solve_pass(state: SolveState, tracer, calibrator) -> Pass:
    ops: list[Op] = []
    calib: list[float] = []
    done = []
    sim_total = 0.0
    clock = time.perf_counter
    for name, kind, method, options in state.ops:
        calibrator.measure(calib)
        graph = state.graphs[name]
        span = tracer.span(f"op.{kind}") if tracer else _NO_SPAN
        result = None
        t0 = clock()
        try:
            with span:
                result, sim_ms = solve(graph, method, options)
        except Exception:
            _report_exception(f"{kind} on {name}")
        dt = clock() - t0
        ops.append(Op(kind, dt, failed=result is None, cal_at=len(calib)))
        if result is not None:
            sim_total += sim_ms
            done.append((len(ops) - 1, graph, method, result))
    calibrator.measure(calib)
    p = Pass(ops, calib, sim_ms=sim_total, counts=_empty_counts())
    for i, graph, method, result in done:
        _tally(p.counts, method, result)
        p.outputs.append((graph, result, (i,)))
    return p


# -- serving under writes (serve-mutating) ---------------------------------


@dataclass
class ServeState:
    graphs: dict
    targets: np.ndarray        # graph index per request
    batches: list              # (src, dst) per write, in order


def _service(graphs: dict) -> CCService:
    svc = CCService()
    for name, graph in graphs.items():
        svc.register(graph, name=name)
    return svc


def _apportion(total: int, share: np.ndarray) -> np.ndarray:
    """Split ``total`` into whole counts by ``share`` (largest remainder)."""
    exact = total * share
    counts = np.floor(exact).astype(np.int64)
    counts[np.argsort(counts - exact)[:total - counts.sum()]] += 1
    return counts


def _serve_setup(seed: int, scale: float) -> ServeState:
    wl = spec.WORKLOADS["serve-mutating"]
    graphs = {name: DATASETS[name].build(s * scale)
              for name, s in wl["graphs"].items()}
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, len(graphs) + 1, dtype=np.float64)
    share = ranks ** -wl["zipf_s"]
    share /= share.sum()
    # Exact Zipf frequencies in a seeded order: every seed sends each
    # graph the same number of requests and writes, so the seed moves
    # the order and the inserted edges, not the amount of work.
    every = wl["write_every"]
    written = np.zeros(wl["requests"], dtype=bool)
    written[every - 1::every] = True
    per_graph = _apportion(wl["requests"], share)
    writes = _apportion(int(written.sum()), share)
    targets = np.empty(wl["requests"], dtype=np.int64)
    targets[written] = rng.permutation(np.repeat(ranks.astype(int) - 1,
                                                 writes))
    targets[~written] = rng.permutation(np.repeat(
        ranks.astype(int) - 1, per_graph - writes))
    sizes = [g.num_vertices for g in graphs.values()]
    batches = []
    for i in np.flatnonzero(written):
        n = sizes[targets[i]]
        batches.append((rng.integers(0, n, wl["write_edges"]),
                        rng.integers(0, n, wl["write_edges"])))
    _service(graphs)    # registration is part of set-up
    return ServeState(graphs, targets, batches)


def _serve_pass(state: ServeState, tracer, calibrator) -> Pass:
    names = list(state.graphs)
    every = spec.WORKLOADS["serve-mutating"]["write_every"]
    svc = _service(state.graphs)
    ops: list[Op] = []
    calib: list[float] = []
    responses = []
    batches = iter(state.batches)
    clock = time.perf_counter
    write_span = tracer.span("op.write") if tracer else _NO_SPAN
    submit_span = tracer.span("op.submit") if tracer else _NO_SPAN
    for i, target in enumerate(state.targets):
        name = names[target]
        if i % every == every - 1:
            if i % CALIBRATE_EVERY == CALIBRATE_EVERY - 1:
                # Beside a write, whose cost dwarfs the cache the
                # calibrator disturbs; never right before a hit.
                calibrator.measure(calib)
            src, dst = next(batches)
            ok = False
            t0 = clock()
            try:
                with write_span:
                    svc.mutate(name, insert=(src, dst))
                ok = True
            except Exception:
                _report_exception(f"write to {name}")
            ops.append(Op("write", clock() - t0, failed=not ok,
                          cal_at=len(calib)))
        resp = None
        t0 = clock()
        try:
            with submit_span:
                resp = svc.submit(CCRequest(key=name))
        except Exception:
            _report_exception(f"request for {name}")
        dt = clock() - t0
        if resp is None or resp.status != "ok":
            ops.append(Op("miss", dt, failed=True, cal_at=len(calib)))
            continue
        ops.append(Op("hit" if resp.cache_hit else "miss", dt,
                      cal_at=len(calib)))
        responses.append((len(ops) - 1, resp))
    calibrator.measure(calib)
    p = Pass(ops, calib, counts=_empty_counts())
    by_result: dict[int, tuple] = {}
    for i, resp in responses:
        p.sim_ms += resp.simulated_ms
        key = id(resp.result)
        if key not in by_result:
            by_result[key] = (svc.registry.get(resp.fingerprint).graph,
                              resp.result, [])
            if resp.delta_hit:
                p.counts["delta_served"] += 1
            elif not resp.cache_hit:
                _tally(p.counts, resp.method, resp.result)
        by_result[key][2].append(i)
    p.outputs = list(by_result.values())
    return p


def setup(workload: str, seed: int, scale: float = 1.0):
    if workload == "serve-mutating":
        return _serve_setup(seed, scale)
    return _solve_setup(workload, seed, scale)


def run_pass(workload: str, state, tracer, calibrator) -> Pass:
    if workload == "serve-mutating":
        return _serve_pass(state, tracer, calibrator)
    return _solve_pass(state, tracer, calibrator)


def warm_up() -> None:
    """One untimed tiny solve per path and one tiny served request.

    Finishes imports, backend registration and first-call set-up
    before anything is timed.
    """
    tiny = DATASETS["Pkc"].build(0.02)
    for method in ("thrifty", "dolp", "afforest"):
        solve(tiny, method)
    solve(tiny, "thrifty", ThriftyOptions(
        storage="out_of_core", resident_bytes=tiny.indices.nbytes // 5))
    svc = _service({"tiny": tiny})
    svc.submit(CCRequest(key="tiny"))
    svc.mutate("tiny", insert=([0], [tiny.num_vertices - 1]))
    svc.submit(CCRequest(key="tiny"))
