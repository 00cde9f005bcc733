"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import ALGORITHMS, ThriftyOptions, connected_components
from repro.core.backends import get_backend
from repro.graph import build_graph, from_pairs
from repro.options import options_for
from repro.graph.coo import dedup, symmetrize
from repro.graph.properties import component_labels_reference
from repro.parallel import edge_balanced_partitions
from repro.validate import canonicalize, same_partition


@st.composite
def edge_lists(draw, max_vertices=24, max_edges=60):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    return pairs, n


@st.composite
def graphs(draw):
    pairs, n = draw(edge_lists())
    return build_graph(from_pairs(pairs, n), drop_zero_degree=False)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_all_algorithms_agree_with_scipy(g):
    """Fundamental: every algorithm partitions exactly like the oracle."""
    ref = component_labels_reference(g)
    for method in ALGORITHMS:
        if method in ("thrifty", "dolp", "unified"):
            result = connected_components(
                g, method, options=options_for(method, num_threads=2))
        else:
            result = connected_components(g, method)
        assert same_partition(result.labels, ref), method


@settings(max_examples=60, deadline=None)
@given(graphs(), st.floats(0.005, 0.9), st.integers(1, 8),
       st.integers(1, 16))
def test_thrifty_parameter_space(g, threshold, threads, block_size):
    """Thrifty is correct for any threshold/threads/block size."""
    ref = component_labels_reference(g)
    result = connected_components(
        g, "thrifty",
        options=ThriftyOptions(threshold=threshold, num_threads=threads,
                               block_size=block_size))
    assert same_partition(result.labels, ref)


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_symmetrize_is_involution_after_dedup(pairs_n):
    pairs, n = pairs_n
    e = from_pairs(pairs, n)
    s1 = symmetrize(e)
    s2 = symmetrize(s1)
    assert s1.num_edges == s2.num_edges
    assert s1.is_symmetric()


@settings(max_examples=50, deadline=None)
@given(edge_lists())
def test_dedup_idempotent(pairs_n):
    pairs, n = pairs_n
    e = dedup(from_pairs(pairs, n))
    assert dedup(e).num_edges == e.num_edges


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=80))
def test_canonicalize_idempotent_and_partition_preserving(labels):
    arr = np.array(labels)
    canon = canonicalize(arr)
    assert np.array_equal(canonicalize(canon), canon)
    # Same partition as the input.
    assert same_partition(arr, canon)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.data())
def test_batch_atomic_min_equals_sequential(n, data):
    array = np.array(
        data.draw(st.lists(st.integers(0, 100), min_size=n, max_size=n)),
        dtype=np.int64)
    k = data.draw(st.integers(0, 60))
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                      min_size=k, max_size=k)),
                   dtype=np.int64)
    val = np.array(data.draw(st.lists(st.integers(0, 100),
                                      min_size=k, max_size=k)),
                   dtype=np.int64)
    a = array.copy()
    changed = get_backend().batch_atomic_min(a, idx, val)
    b = array.copy()
    seq = set()
    for i, v in zip(idx, val):
        if v < b[i]:
            b[i] = v
            seq.add(int(i))
    assert np.array_equal(a, b)
    assert set(changed.tolist()) == seq


@settings(max_examples=40, deadline=None)
@given(graphs(), st.integers(1, 8), st.integers(1, 8))
def test_partition_bounds_invariants(g, threads, ppt):
    p = edge_balanced_partitions(g, threads, partitions_per_thread=ppt)
    assert p.bounds[0] == 0
    assert p.bounds[-1] == g.num_vertices
    assert np.all(np.diff(p.bounds) >= 0)
    assert int(p.edge_counts(g).sum()) == g.num_edges


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_iteration_traces_account_all_edge_work(g):
    """Trace totals equal the sum of per-iteration deltas."""
    result = connected_components(
        g, "thrifty", options=ThriftyOptions(num_threads=2))
    total = result.counters()
    summed = sum(r.counters.edges_processed
                 for r in result.trace.iterations)
    assert total.edges_processed == summed
