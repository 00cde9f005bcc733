"""Golden run digests: the cases, and how one run becomes a digest.

Each case runs one configuration end to end and returns a nested
record of what it observed: labels, per-iteration counters,
directions, frontier modes, drain orders, makespans, I/O and fabric
counts, serve outcomes.  :func:`digest` splits a record into a sha256
over every integer, string and boolean (compared exactly) and a flat
list of its floats (compared at a relative ``FLOAT_RTOL``: numpy's
SIMD float reductions may differ in the last bit across CPUs).

``runs.json`` next to this file holds the accepted digests.  It is
written by ``regenerate.py`` and checked by ``tests/test_golden_runs.py``.
A deliberate model change regenerates it and names the keys that moved.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core import engine
from repro.core.dolp import DOLP_OPTIONS
from repro.core.kla import KLAOptions, kla_cc
from repro.core.thrifty import THRIFTY_OPTIONS
from repro.core.unified import UNIFIED_OPTIONS
from repro.graph.datasets import DATASETS
from repro.incremental import IncrementalCC
from repro.instrument.costmodel import simulate_run_time
from repro.options import DistributedOptions
from repro.parallel.machine import SKYLAKEX
from tests.push_oracle import racy_worklists

RUNS_PATH = Path(__file__).with_name("runs.json")
FLOAT_RTOL = 1e-12
MAKESPAN_ITERATIONS = 8
SCALE = 0.1
GRAPHS = ("Twtr", "Wbbs", "Frndstr", "GBRd", "USRd", "Pkc")

_GRAPH_CACHE: dict[str, object] = {}


def graph(name: str):
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = DATASETS[name].build(SCALE)
    return _GRAPH_CACHE[name]


class _RecordingEngine(engine._Engine):
    """The engine, keeping every push iteration's drain order."""

    drains: list[np.ndarray] = []

    def push(self, frontier):
        out = super().push(frontier)
        _RecordingEngine.drains.append(self.last_drain_order.copy())
        return out


def _work(rec):
    """An iteration's work vector, the exact input of its makespan."""
    pending = rec.__dict__.get("makespan")
    if isinstance(pending, engine._PendingMakespan):
        return pending.ids, pending.values.astype(np.int64)
    return None


def _trace_record(result, n: int) -> dict:
    trace = result.trace
    # Work vectors are read before any makespan, which would replace
    # them; makespans replay the schedule in pure Python, so only the
    # first MAKESPAN_ITERATIONS of a run are read.
    work = [_work(rec) for rec in trace.iterations]
    return {
        "labels": result.labels,
        "setup": trace.setup_counters.as_dict(),
        "iterations": [
            {"direction": rec.direction.value,
             "active": (rec.active_vertices, rec.active_edges),
             "changed": rec.changed_vertices,
             "counters": rec.counters.as_dict(),
             "frontier": (rec.frontier_mode, rec.frontier_conversions),
             "density": rec.density,
             "converged": rec.converged_fraction,
             "work": w}
            for rec, w in zip(trace.iterations, work)],
        "makespans": [rec.makespan for rec in
                      trace.iterations[:MAKESPAN_ITERATIONS]],
        "sim_ms": simulate_run_time(trace, SKYLAKEX, n).total_ms,
        "extras": {k: v for k, v in result.extras.items()
                   if k in ("io", "comm", "edge_cut")},
    }


def _lp_run(name: str, opts) -> dict:
    g = graph(name)
    _RecordingEngine.drains = []
    with mock.patch.object(engine, "_Engine", _RecordingEngine):
        result = engine.label_propagation_cc(g, opts, dataset=name)
    record = _trace_record(result, g.num_vertices)
    record["drains"] = _RecordingEngine.drains
    return record


def _engine_config(config: str, name: str, backend):
    if config == "thrifty":
        return replace(THRIFTY_OPTIONS, backend=backend)
    if config == "dolp":
        return replace(DOLP_OPTIONS, backend=backend)
    if config == "unified":
        return replace(UNIFIED_OPTIONS, backend=backend)
    if config == "block17":
        return replace(THRIFTY_OPTIONS, block_size=17, backend=backend)
    if config == "t8-detailed":
        return replace(THRIFTY_OPTIONS, num_threads=8,
                       count_only_pulls=False, backend=backend)
    if config == "ooc20":
        budget = int(0.2 * graph(name).indices.nbytes)
        return replace(THRIFTY_OPTIONS, storage="out_of_core",
                       resident_bytes=budget, backend=backend)
    raise KeyError(config)


ENGINE_CONFIGS = ("thrifty", "dolp", "unified", "block17", "t8-detailed",
                  "ooc20")


def _race(backend) -> dict:
    """DO-LP at 8 threads with duplicate-enqueue injection."""
    with racy_worklists(0.1):
        return _lp_run("Wbbs", replace(DOLP_OPTIONS, num_threads=8,
                                       backend=backend))


def _distributed(backend) -> dict:
    g = graph("Twtr")
    from repro.distributed import distributed_cc
    result = distributed_cc(g, DistributedOptions(num_ranks=3,
                                                  backend=backend))
    record = _trace_record(result, g.num_vertices)
    record["extras"]["comm"] = result.extras["comm"].as_dict()
    return record


def _kla(backend) -> dict:
    g = graph("Pkc")
    return _trace_record(kla_cc(g, KLAOptions(backend=backend)),
                         g.num_vertices)


def _incremental(backend) -> dict:
    g = graph("Pkc")
    inc = IncrementalCC(g, method="thrifty")
    rng = np.random.default_rng(5)
    steps = []
    for _ in range(4):
        src = rng.integers(0, g.num_vertices, 32)
        dst = rng.integers(0, g.num_vertices, 32)
        delta = inc.insert(src, dst)
        steps.append({
            "labels": inc.labels,
            "delta": None if delta is None else (
                delta.absorbed, delta.into, delta.edges, delta.links,
                delta.hops, delta.relabeled)})
    return {"steps": steps, "counters": inc.counters.as_dict(),
            "recomputes": inc.recomputes, "deltas": inc.deltas_applied}


def _serve(backend) -> dict:
    from repro.service import CCRequest, CCService
    svc = CCService()
    svc.register(graph("Pkc"), name="Pkc")
    svc.register(graph("GBRd"), name="GBRd")
    rng = np.random.default_rng(3)
    outcomes = []
    for i, key in enumerate(["Pkc", "GBRd", "Pkc", "GBRd", "Pkc",
                             "GBRd", "Pkc"]):
        if i in (2, 5):
            n = graph(key).num_vertices
            svc.mutate(key, insert=(rng.integers(0, n, 16),
                                    rng.integers(0, n, 16)))
        resp = svc.submit(CCRequest(key=key))
        outcomes.append({
            "method": resp.method, "status": resp.status,
            "hit": resp.cache_hit, "delta": resp.delta_hit,
            "coalesced": resp.coalesced, "fallback": resp.fallback,
            "labels": resp.result.labels,
            "simulated_ms": resp.simulated_ms,
            "finish_ms": resp.finish_ms})
    return {"outcomes": outcomes, "metrics": svc.metrics.snapshot()}


def _engine_case(config: str, name: str):
    def run(backend) -> dict:
        return _lp_run(name, _engine_config(config, name, backend))
    return run


#: case name -> (run(backend) -> record, whether it takes a backend).
CASES: dict[str, tuple] = {
    **{f"{name}/{config}": (_engine_case(config, name), True)
       for name in GRAPHS for config in ENGINE_CONFIGS},
    "Wbbs/dolp-t8-race0.1": (_race, True),
    "Twtr/distributed-3": (_distributed, True),
    "Pkc/kla": (_kla, True),
    "Pkc/incremental-thrifty": (_incremental, False),
    "serve-trace": (_serve, False),
}


def _split(obj, h, floats: list[float]) -> None:
    """Feed ``obj``'s exact parts to ``h`` and its floats to ``floats``."""
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            h.update(repr(key).encode())
            _split(obj[key], h, floats)
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _split(item, h, floats)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            floats.extend(float(x) for x in obj.ravel())
        else:
            h.update(b"a")
            h.update(np.ascontiguousarray(obj, dtype=np.int64).tobytes())
    elif isinstance(obj, (float, np.floating)):
        floats.append(float(obj))
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"i%d" % int(obj))
    elif obj is None or isinstance(obj, str):
        h.update(repr(obj).encode())
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(record) -> dict:
    """``{"sha256": exact parts, "floats": [...]}`` of one record."""
    h = hashlib.sha256()
    floats: list[float] = []
    _split(record, h, floats)
    return {"sha256": h.hexdigest(), "floats": floats}


def run_case(name: str, backend=None) -> dict:
    run, _ = CASES[name]
    return digest(run(backend))


def floats_match(got: list[float], want: list[float]) -> bool:
    return len(got) == len(want) and all(
        math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=0.0)
        for a, b in zip(got, want))


def load() -> dict:
    return json.loads(RUNS_PATH.read_text())
