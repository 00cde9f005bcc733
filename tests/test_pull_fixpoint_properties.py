"""Property sweep: the fixpoint pull equals the per-block sweep.

On a resident graph the engine solves the unified-labels pull as one
triangular fixpoint (``_Engine._pull_fixpoint``) instead of visiting
blocks.  It must be *bit-identical* to the per-block reference sweep
kept test-side in ``tests/pull_oracle.py`` — in final labels,
per-iteration counter deltas, direction sequence, simulated makespans
and frontier representation — over random graphs with isolated
vertices, self-loops and empty partitions, across block sizes
(including 1), thread and partition counts, and the Zero Convergence
and count-only-pull switches.  This is the pull analogue of
``tests/test_push_fusion_properties.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import LPOptions, label_propagation_cc, thrifty_cc
from repro.core.backends import available_backends
from repro.core.engine import _Engine
from repro.graph import build_graph, component_labels_reference, from_pairs
from repro.graph.generators import (
    erdos_renyi_graph,
    rmat_graph,
    road_network_graph,
    with_dust_components,
)
from repro.storage import BlockedGraph, write_blocked
from repro.validate import same_partition
from tests.pull_oracle import PerBlockEngine, reference_cc


@st.composite
def graphs(draw, max_vertices=40, max_edges=90):
    """Random graph keeping isolated vertices and self-loops."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=max_edges))
    return build_graph(from_pairs(pairs, n), drop_zero_degree=False,
                       keep_self_loops=True)


options = st.fixed_dictionaries({
    "block_size": st.sampled_from([1, 2, 3, 5, 64]),
    "num_threads": st.integers(1, 8),
    # Many partitions on few vertices: empty partitions are common.
    "partitions_per_thread": st.integers(1, 4),
    "zero_convergence": st.booleans(),
    "count_only_pulls": st.booleans(),
    "zero_planting": st.booleans(),
    "initial_push": st.booleans(),
    # Pull-only, Thrifty's and a push-leaning direction threshold.
    "threshold": st.sampled_from([1e-9, 0.01, 0.3]),
})


def assert_runs_identical(got, ref):
    assert np.array_equal(got.labels, ref.labels)
    assert got.num_iterations == ref.num_iterations
    for a, b in zip(got.trace.iterations, ref.trace.iterations):
        assert a.direction == b.direction, a.index
        assert a.counters.as_dict() == b.counters.as_dict(), a.index
        assert a.makespan == b.makespan, a.index
        assert (a.density, a.active_vertices, a.active_edges,
                a.changed_vertices) == \
            (b.density, b.active_vertices, b.active_edges,
             b.changed_vertices), a.index
        assert (a.frontier_mode, a.frontier_conversions) == \
            (b.frontier_mode, b.frontier_conversions), a.index
        assert a.converged_fraction == b.converged_fraction, a.index


# The identity must hold on every registered backend: the fixpoint's
# gathers and segment minima go through the kernel backend.
@pytest.mark.parametrize("backend", available_backends())
@settings(max_examples=60, deadline=None)
@given(g=graphs(), overrides=options)
def test_fixpoint_matches_per_block_sweep(backend, g, overrides):
    opts = LPOptions(backend=backend, **overrides)
    got = label_propagation_cc(g, opts)
    assert_runs_identical(got, reference_cc(g, opts))
    assert same_partition(got.labels, component_labels_reference(g))


FIXED_GRAPHS = {
    "rmat": lambda: with_dust_components(rmat_graph(9, 8, seed=11), 12,
                                         seed=11),
    "road": lambda: road_network_graph(20, 16, seed=13),
    "uniform": lambda: erdos_renyi_graph(350, 6.0, seed=14),
}


@pytest.fixture(scope="module", params=sorted(FIXED_GRAPHS))
def fixed_graph(request):
    return FIXED_GRAPHS[request.param]()


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize(
    "overrides",
    [{}, {"zero_convergence": False}, {"block_size": 1},
     {"block_size": 7, "num_threads": 4, "partitions_per_thread": 2}],
    ids=["default", "no-zero", "bs1", "bs7-t4"])
@pytest.mark.parametrize("collect", [False, True],
                         ids=["count-only", "detailed"])
def test_pull_lockstep(fixed_graph, overrides, collect, backend):
    """Drive both engines pull by pull from identity labels: labels,
    counters, the per-partition work vector and the frontier agree
    after every pull, including the multi-hop early pulls."""
    opts = LPOptions(zero_planting=False, track_convergence=False,
                     backend=backend, **overrides)
    eng = _Engine(fixed_graph, opts, "")
    ref = PerBlockEngine(fixed_graph, opts, "")
    for rounds in range(200):
        e_front, e_counts = eng.pull(collect)
        r_front, r_counts = ref.pull(collect)
        assert np.array_equal(eng.labels, ref.labels), rounds
        assert eng.counters.as_dict() == ref.counters.as_dict(), rounds
        assert np.array_equal(eng._last_work, ref._last_work), rounds
        assert (e_counts.num_active, e_counts.num_active_edges) == \
            (r_counts.num_active, r_counts.num_active_edges), rounds
        if collect:
            assert np.array_equal(e_front.vertices(), r_front.vertices())
            assert (e_front.mode, e_front.conversions) == \
                (r_front.mode, r_front.conversions), rounds
        if e_counts.num_active == 0:
            break
    assert rounds > 1          # the sweep actually exercised pulls


def test_resident_pull_has_no_window_dispatch(monkeypatch, tmp_path):
    """Resident unified pulls never enter the windowed sweep; a
    streamed graph still does."""
    def windowed(*args, **kwargs):
        raise AssertionError("windowed pull dispatched")

    monkeypatch.setattr(_Engine, "_pull_run", windowed)
    g = FIXED_GRAPHS["rmat"]()
    result = thrifty_cc(g)
    assert same_partition(result.labels, component_labels_reference(g))
    path = tmp_path / "g.rbcsr"
    write_blocked(g, path, edges_per_block=256)
    bg = BlockedGraph.open(path)
    try:
        with pytest.raises(AssertionError, match="windowed"):
            thrifty_cc(bg)
    finally:
        bg.close()
