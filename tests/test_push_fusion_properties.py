"""Property sweep: the push solve is a pure wall-clock strategy.

The engine's push (all chunks of an iteration in one solve) must be
*bit-identical* to the per-chunk reference loop of
``tests/push_oracle.py`` — in final labels, per-iteration counter
deltas, direction sequence, simulated makespans, and the worklist
drain order — across graph families (skewed RMAT, road grid, uniform
Erdős–Rényi, a path) and every optimization-switch ablation, with and
without duplicate-enqueue injection.  This is the push analogue of
``TestPullFusionIdentity``; it is what licenses the engine to run the
solve only.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from repro.core import LPOptions, engine, label_propagation_cc
from repro.core.backends import available_backends
from repro.core.engine import _Engine
from repro.graph.generators import (
    erdos_renyi_graph,
    path_graph,
    rmat_graph,
    road_network_graph,
    with_dust_components,
)
from repro.parallel import AdaptiveFrontier
from tests.push_oracle import (PerChunkEngine, per_chunk_pushes,
                               racy_worklists)

GRAPHS = {
    "rmat": lambda: with_dust_components(rmat_graph(9, 8, seed=11), 12,
                                         seed=11),
    "road": lambda: road_network_graph(20, 16, seed=13),
    "uniform": lambda: erdos_renyi_graph(350, 6.0, seed=14),
    "path": lambda: path_graph(100),
}

# The four paper switches, each toggled off alone, plus the settings
# that stress the push path's chunking and scheduling edge cases.
OPTION_GRID = [
    {},
    {"unified_labels": False},
    {"zero_convergence": False},
    {"zero_planting": False},
    {"initial_push": False},
    {"count_only_pulls": False},
    {"threshold": 1.0},             # push-heavy schedule
    {"block_size": 1},
    {"block_size": 7},
    {"race_rate": 0.3},             # duplicate-enqueue injection
                                    # (racy_worklists, not an option)
    {"num_threads": 4, "partitions_per_thread": 2},
    # One vertex per chunk and every iteration a push: a label runs
    # down long chains of chunks within one push.
    {"block_size": 1, "threshold": 1.0, "num_threads": 1},
    {"block_size": 1, "threshold": 1.0, "num_threads": 32},
    {"solve_block_edges": 7},       # many blocks in the push solve
                                    # (an engine constant, patched)
]


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


def _oracles(overrides, fuse):
    """Split ``race_rate`` and ``solve_block_edges`` off
    ``overrides``; return the rest and a context installing them and,
    unless ``fuse``, the per-chunk push."""
    overrides = dict(overrides)
    race = overrides.pop("race_rate", 0.0)
    block_edges = overrides.pop("solve_block_edges", None)
    stack = ExitStack()
    if race:
        stack.enter_context(racy_worklists(race))
    if block_edges:
        stack.enter_context(mock.patch.object(
            engine, "_SOLVE_BLOCK_EDGES", block_edges))
    if not fuse:
        stack.enter_context(per_chunk_pushes())
    return overrides, stack


def _run(graph, fuse, overrides, backend=None):
    """The run's result and the drain order of each of its pushes."""
    overrides, oracles = _oracles(overrides, fuse)
    drains = []
    with oracles:
        class Recording(engine._Engine):
            def push(self, frontier):
                out = super().push(frontier)
                drains.append(self.last_drain_order.copy())
                return out

        with mock.patch.object(engine, "_Engine", Recording):
            result = label_propagation_cc(
                graph, LPOptions(track_convergence=False, backend=backend,
                                 **overrides))
    return result, drains


# The identity must hold on every registered backend — a compiled
# kernel that broke the solve's exactness would surface here as a
# counter or drain-order divergence.
@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize(
    "overrides", OPTION_GRID,
    ids=["-".join(f"{k}={v}" for k, v in o.items()) or "default"
         for o in OPTION_GRID])
def test_fused_push_bit_identical(graph, overrides, backend):
    (fused, fused_drains), (ref, ref_drains) = (
        _run(graph, f, overrides, backend) for f in (True, False))
    assert np.array_equal(fused.labels, ref.labels)
    assert fused.num_iterations == ref.num_iterations
    for a, b in zip(fused.trace.iterations, ref.trace.iterations):
        assert a.direction == b.direction, a.index
        assert a.counters.as_dict() == b.counters.as_dict(), a.index
        assert a.makespan == b.makespan, a.index
        assert (a.density, a.active_vertices, a.active_edges,
                a.changed_vertices) == \
            (b.density, b.active_vertices, b.active_edges,
             b.changed_vertices), a.index
        assert (a.frontier_mode, a.frontier_conversions) == \
            (b.frontier_mode, b.frontier_conversions), a.index
    assert len(fused_drains) == len(ref_drains)
    for i, (a, b) in enumerate(zip(fused_drains, ref_drains)):
        assert np.array_equal(a, b), i


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("overrides",
                         [{}, {"block_size": 3}, {"race_rate": 0.4},
                          {"num_threads": 4, "partitions_per_thread": 2},
                          {"solve_block_edges": 7}],
                         ids=["default", "bs3", "race", "t4", "blocks7"])
def test_fused_push_drain_order_lockstep(graph, overrides, backend):
    """Drive two engines push-by-push from an all-active frontier and
    require identical worklist drain order every round (the strongest
    scheduler-visible observable: it fixes batch contents, batch
    thread placement, and steal interleaving)."""
    overrides, race = _oracles(overrides, True)
    opts = LPOptions(zero_planting=False, track_convergence=False,
                     backend=backend, **overrides)
    fused_eng = _Engine(graph, opts, "")
    ref_eng = PerChunkEngine(graph, opts, "")
    f_front = AdaptiveFrontier.full(graph)
    r_front = AdaptiveFrontier.full(graph)
    rounds = 0
    with race:
        while len(f_front) or len(r_front):
            f_front = fused_eng.push(f_front)
            r_front = ref_eng.push(r_front)
            assert np.array_equal(fused_eng.last_drain_order,
                                  ref_eng.last_drain_order), rounds
            assert np.array_equal(fused_eng.labels, ref_eng.labels), rounds
            assert fused_eng.counters.as_dict() == \
                ref_eng.counters.as_dict(), rounds
            assert np.array_equal(fused_eng._last_work,
                                  ref_eng._last_work), rounds
            for t in range(fused_eng.opts.num_threads):
                fb = fused_eng.last_worklists.thread_batches(t)
                rb = ref_eng.last_worklists.thread_batches(t)
                assert len(fb) == len(rb), (rounds, t)
                assert all(np.array_equal(x, y)
                           for x, y in zip(fb, rb)), (rounds, t)
            fused_eng._last_work = ref_eng._last_work = None
            rounds += 1
            assert rounds < 200   # convergence guard
    assert rounds > 1         # the sweep actually exercised pushes
