"""Extension experiment — unified pull speedup over the per-block sweep.

The unified-labels pull is specified by the per-block sweep (DESIGN.md
Section 5): every block in its own Python iteration, in schedule
order.  That sweep lives test-side (``tests/pull_oracle.py``); the
engine solves the same in-place pull on a resident graph as one
triangular fixpoint, with converged blocks skipped in bulk.  This
experiment measures the wall-clock effect where the interpreter
overhead the sweep pays is largest: pull-only label propagation (tiny
direction threshold) with fine-grained blocks on a skewed RMAT graph
of >= 100k vertices.

Asserted shape: labels, per-iteration counter deltas and makespans are
bit-identical between the engine and the sweep, and the engine is at
least 3x faster end to end at full scale.
"""

import time

import numpy as np

from conftest import SCALE, STRICT, run_once

from repro.core.engine import LPOptions, label_propagation_cc
from repro.experiments import format_table
from repro.graph.generators import rmat_graph
from tests.pull_oracle import per_block_pulls

#: Pull-only Thrifty with fine blocks: every iteration is a dense pull
#: over all partitions, so the per-block Python loop dominates the
#: reference sweep once zero labels flood the graph.
RMAT_SCALE = 18 if SCALE >= 0.75 else 15
EDGE_FACTOR = 8
OPTIONS = dict(threshold=1e-9, block_size=8, track_convergence=False)


def _time_run(graph):
    best, result = float("inf"), None
    for _ in range(2):
        opts = LPOptions(**OPTIONS)
        t0 = time.perf_counter()
        result = label_propagation_cc(graph, opts)
        best = min(best, time.perf_counter() - t0)
    return result, best


def _generate():
    graph = rmat_graph(RMAT_SCALE, EDGE_FACTOR, seed=7)
    fused, t_fused = _time_run(graph)
    with per_block_pulls():
        ref, t_ref = _time_run(graph)

    # The engine's pull is a pure wall-clock optimization: everything
    # observable must be bit-identical to the per-block reference.
    assert np.array_equal(fused.labels, ref.labels)
    assert fused.num_iterations == ref.num_iterations
    for a, b in zip(fused.trace.iterations, ref.trace.iterations):
        assert a.direction == b.direction
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.makespan == b.makespan

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "iterations": fused.num_iterations,
        "fused_seconds": t_fused,
        "reference_seconds": t_ref,
        "speedup": t_ref / t_fused,
    }


def test_pull_fusion_speedup(benchmark):
    row = run_once(benchmark, _generate)
    print()
    print(format_table(list(row.keys()), [list(row.values())],
                       title="Unified pull (engine vs per-block reference)"))
    if STRICT:
        assert row["vertices"] >= 100_000
        assert row["speedup"] >= 3.0
    else:
        assert row["speedup"] >= 1.2
