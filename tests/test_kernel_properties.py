"""Property tests: vectorized pull kernels vs naive per-vertex loops.

The engine trusts ``segment_min`` / ``pull_block`` /
``pull_block_zero_cut`` to be exact batch equivalents of the
paper's sequential C loops; these tests check them against direct
per-vertex Python references over randomized graphs, labels with many
zeros (Zero Convergence's steady state), empty rows, single-vertex
blocks and block size one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.backends import available_backends, get_backend
from repro.graph import build_graph, from_pairs

# Every registered backend must pass the identical sweep: the numpy
# implementations are the ground truth the properties encode, and any
# compiled backend must be bit-identical to them.
pytestmark = pytest.mark.parametrize("backend", available_backends())


@st.composite
def graph_labels_block(draw, max_vertices=20, max_edges=50):
    """A small graph, a zero-heavy labels array, and a block [lo, hi)."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=m, max_size=m))
    g = build_graph(from_pairs(pairs, n), drop_zero_degree=False)
    labels = np.array(
        draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)),
        dtype=np.int64)
    lo = draw(st.integers(0, n - 1))
    hi = draw(st.integers(lo, n))
    return g, labels, lo, hi


def naive_pull(g, labels, lo, hi):
    new = labels[lo:hi].copy()
    for i, v in enumerate(range(lo, hi)):
        for u in g.neighbors(v):
            new[i] = min(new[i], labels[u])
    return new


def naive_scan_lengths(g, labels, lo, hi):
    out = []
    for v in range(lo, hi):
        if labels[v] == 0:
            out.append(0)
            continue
        scanned = 0
        for u in g.neighbors(v):
            scanned += 1
            if labels[u] == 0:
                break
        out.append(scanned)
    return np.array(out, dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(graph_labels_block())
def test_pull_block_matches_naive(backend, case):
    g, labels, lo, hi = case
    new, changed = get_backend(backend).pull_block(g, labels, lo, hi)
    ref = naive_pull(g, labels, lo, hi)
    assert np.array_equal(new, ref)
    assert np.array_equal(changed, ref < labels[lo:hi])


@settings(max_examples=150, deadline=None)
@given(graph_labels_block())
def test_zero_cut_scan_matches_naive(backend, case):
    g, labels, lo, hi = case
    kb = get_backend(backend)
    assert np.array_equal(kb.pull_block_zero_cut(g, labels, lo, hi)[2],
                          naive_scan_lengths(g, labels, lo, hi))


@settings(max_examples=150, deadline=None)
@given(graph_labels_block())
def test_single_vertex_blocks_agree_with_full_block(backend, case):
    """block_size=1: per-vertex kernel calls compose to the full-block
    result (pull reads a snapshot, so composition is exact)."""
    g, labels, lo, hi = case
    kb = get_backend(backend)
    full_new, _ = kb.pull_block(g, labels, lo, hi)
    full_scan = kb.pull_block_zero_cut(g, labels, lo, hi)[2]
    for v in range(lo, hi):
        one_new, _ = kb.pull_block(g, labels, v, v + 1)
        assert one_new[0] == full_new[v - lo]
        one_scan = kb.pull_block_zero_cut(g, labels, v, v + 1)[2]
        assert one_scan[0] == full_scan[v - lo]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=0, max_size=40),
       st.lists(st.integers(0, 40), min_size=2, max_size=10),
       st.integers(50, 60))
def test_segment_min_matches_naive(backend, values, cuts, fill_value):
    """Contiguous CSR-style segments, including empty ones.

    CSR rows tile their slice: the final segment always ends at the
    last value (pull_block slices ``indices[s0:s1]`` exactly), so the
    cut list is closed with ``values.size``.
    """
    values = np.array(values, dtype=np.int64)
    cuts = np.array(sorted(min(c, values.size) for c in cuts)
                    + [values.size], dtype=np.int64)
    starts, ends = cuts[:-1], cuts[1:]
    fill = np.full(starts.size, fill_value, dtype=np.int64)
    out = get_backend(backend).segment_min(values, starts, ends, fill)
    for i, (s, e) in enumerate(zip(starts, ends)):
        seg = values[s:e]
        expect = min(int(seg.min()), fill_value) if seg.size \
            else fill_value
        assert out[i] == expect


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=0, max_size=40),
       st.lists(st.integers(0, 40), min_size=2, max_size=10))
def test_blockwise_sums_matches_naive(backend, values, cuts):
    values = np.array(values, dtype=np.int64)
    cuts = np.array(sorted(min(c, values.size) for c in cuts),
                    dtype=np.int64)
    starts, ends = cuts[:-1], cuts[1:]
    out = get_backend(backend).blockwise_sums(values, starts, ends)
    for i, (s, e) in enumerate(zip(starts, ends)):
        assert out[i] == int(values[s:e].sum())


@settings(max_examples=100, deadline=None)
@given(graph_labels_block(), st.data())
def test_concat_adjacency_matches_naive(backend, case, data):
    """Any row list — unsorted, repeated, zero-degree rows anywhere —
    yields the rows' adjacency lists back to back, in the graph's
    index dtype, with int64 degrees."""
    g = case[0]
    rows = np.array(data.draw(st.lists(
        st.integers(0, g.num_vertices - 1), max_size=12)), dtype=np.int64)
    targets, counts = get_backend(backend).concat_adjacency(g, rows)
    expect = [int(u) for r in rows for u in g.neighbors(int(r))]
    assert targets.tolist() == expect
    assert targets.dtype == g.indices.dtype
    assert counts.dtype == np.int64
    assert counts.tolist() == [g.degree(int(r)) for r in rows]


def test_all_zero_labels_scan_nothing(backend):
    g = build_graph(from_pairs([(0, 1), (1, 2), (2, 3)], 4),
                    drop_zero_degree=False)
    labels = np.zeros(4, dtype=np.int64)
    kb = get_backend(backend)
    assert kb.pull_block_zero_cut(g, labels, 0, 4)[2].tolist() == [0] * 4
    new, changed = kb.pull_block(g, labels, 0, 4)
    assert not changed.any()


def test_empty_rows_scan_zero_edges(backend):
    # Vertices 2 and 3 are isolated: scans touch no edges and the pull
    # keeps their labels.
    g = build_graph(from_pairs([(0, 1)], 4), drop_zero_degree=False)
    labels = np.array([3, 2, 5, 7], dtype=np.int64)
    kb = get_backend(backend)
    assert kb.pull_block_zero_cut(g, labels, 2, 4)[2].tolist() == [0, 0]
    new, changed = kb.pull_block(g, labels, 2, 4)
    assert new.tolist() == [5, 7] and not changed.any()
