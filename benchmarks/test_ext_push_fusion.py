"""Extension experiment — fused push-chunk speedup.

The push iteration must match a bit-identical reference (DESIGN.md
Section 5): the reference evaluates every partition-bounded chunk in
its own Python iteration (``tests/push_oracle.py``); the engine
solves all of an iteration's chunks at once from one adjacency
gather — the values rows push from a triangular min-system, then
per-(target, chunk) group minima plus a segmented running minimum
for the commit and each chunk's worklist batch.  This experiment measures the wall-clock effect where the
per-chunk interpreter overhead is the whole iteration: a push-only
label-propagation sweep (every round a push, from an all-active
frontier down to an empty one) on a skewed RMAT graph of >= 100k
vertices.  A full Thrifty run spends its time in (already fused)
pulls, so the push path is timed on its own, exactly as the pull
fusion experiment isolates the pull path.

Asserted shape: labels, operation counters, per-round drain orders
and per-partition work vectors are bit-identical between the
strategies, and the fused sweep is at least 3x faster end to end at
full scale.
"""

import time

import numpy as np

from conftest import SCALE, STRICT, run_once

from repro.core.engine import LPOptions, _Engine
from repro.experiments import format_table
from repro.graph.generators import rmat_graph
from repro.parallel import AdaptiveFrontier
from tests.push_oracle import PerChunkEngine

RMAT_SCALE = 18 if SCALE >= 0.75 else 15
EDGE_FACTOR = 8
OPTIONS = dict(threshold=1.0, block_size=8, zero_planting=False,
               track_convergence=False)


def _push_sweep(graph, fuse):
    """Push-only LP: drive ``_Engine.push`` from a full frontier until
    no labels change.  Returns the engine, per-round observables and
    the best-of-2 wall-clock."""
    best = float("inf")
    for _ in range(2):
        engine_cls = _Engine if fuse else PerChunkEngine
        eng = engine_cls(graph, LPOptions(**OPTIONS), "")
        frontier = AdaptiveFrontier.full(graph)
        drains, works = [], []
        t0 = time.perf_counter()
        while len(frontier):
            frontier = eng.push(frontier)
            drains.append(eng.last_drain_order)
            works.append(eng._last_work)
        best = min(best, time.perf_counter() - t0)
    return eng, drains, works, best


def _generate():
    graph = rmat_graph(RMAT_SCALE, EDGE_FACTOR, seed=7)
    fused, f_drains, f_works, t_fused = _push_sweep(graph, True)
    ref, r_drains, r_works, t_ref = _push_sweep(graph, False)

    # Fusion is a pure wall-clock optimization: everything observable
    # must be bit-identical to the per-chunk reference.
    assert np.array_equal(fused.labels, ref.labels)
    assert fused.counters.as_dict() == ref.counters.as_dict()
    assert len(f_drains) == len(r_drains)
    for fd, rd in zip(f_drains, r_drains):
        assert np.array_equal(fd, rd)
    for fw, rw in zip(f_works, r_works):
        assert np.array_equal(fw, rw)

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "push_rounds": len(f_drains),
        "fused_seconds": t_fused,
        "reference_seconds": t_ref,
        "speedup": t_ref / t_fused,
    }


def test_push_fusion_speedup(benchmark):
    row = run_once(benchmark, _generate)
    print()
    print(format_table(list(row.keys()), [list(row.values())],
                       title="Push fusion (fused vs per-chunk reference)"))
    if STRICT:
        assert row["vertices"] >= 100_000
        assert row["speedup"] >= 3.0
    else:
        assert row["speedup"] >= 1.2
