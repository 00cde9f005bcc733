"""Tests for the vectorized traversal kernels against naive references."""

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.graph import CSRGraph
from repro.graph.generators import path_graph, rmat_graph, star_graph

KB = get_backend()
block_async_min = KB.block_async_min
concat_adjacency = KB.concat_adjacency
intra_block_groups = KB.intra_block_groups
pull_block = KB.pull_block
segment_min = KB.segment_min


def zero_cut_scan_lengths(graph, labels, lo, hi, skip=None):
    """The scan lengths ``pull_block_zero_cut`` returns with its pull."""
    return KB.pull_block_zero_cut(graph, labels, lo, hi, skip)[2]


def naive_pull(graph, labels, lo, hi):
    new = labels[lo:hi].copy()
    for i, v in enumerate(range(lo, hi)):
        for u in graph.neighbors(v):
            new[i] = min(new[i], labels[u])
    return new


def naive_zero_cut(graph, labels, lo, hi):
    out = []
    for v in range(lo, hi):
        if labels[v] == 0:
            out.append(0)
            continue
        scanned = 0
        for u in graph.neighbors(v):
            scanned += 1
            if labels[u] == 0:
                break
        out.append(scanned)
    return np.array(out, dtype=np.int64)


class TestSegmentMin:
    def test_simple(self):
        vals = np.array([5, 3, 9, 1, 7])
        out = segment_min(vals, np.array([0, 2]), np.array([2, 5]),
                          np.array([10, 10]))
        assert out.tolist() == [3, 1]

    def test_empty_segment_gets_fill(self):
        vals = np.array([4, 2])
        out = segment_min(vals, np.array([0, 1, 1]),
                          np.array([1, 1, 2]),
                          np.array([9, 9, 9]))
        assert out.tolist() == [4, 9, 2]

    def test_all_empty(self):
        out = segment_min(np.array([1]), np.array([0, 0]),
                          np.array([0, 0]), np.array([7, 8]))
        assert out.tolist() == [7, 8]


class TestPullBlock:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_naive(self, seed):
        g = rmat_graph(7, 6, seed=seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 40, size=g.num_vertices).astype(np.int64)
        for lo, hi in [(0, g.num_vertices), (5, 20),
                       (g.num_vertices - 3, g.num_vertices)]:
            new, changed = pull_block(g, labels, lo, hi)
            expect = naive_pull(g, labels, lo, hi)
            assert np.array_equal(new, expect)
            assert np.array_equal(changed, expect < labels[lo:hi])

    def test_empty_block(self):
        g = path_graph(5)
        labels = np.arange(5, dtype=np.int64)
        new, changed = pull_block(g, labels, 3, 3)
        assert new.size == 0 and changed.size == 0

    def test_isolated_vertex(self):
        # Degree-0 vertex keeps its own label.
        g = CSRGraph(np.array([0, 0, 1, 2]), np.array([2, 1]))
        labels = np.array([5, 3, 1], dtype=np.int64)
        new, changed = pull_block(g, labels, 0, 3)
        # Vertex 0 (isolated) keeps 5; vertex 1 pulls 1; vertex 2 keeps 1.
        assert new.tolist() == [5, 1, 1]
        assert changed.tolist() == [False, True, False]
        assert np.array_equal(new, naive_pull(g, labels, 0, 3))


class TestZeroCut:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_naive(self, seed):
        g = rmat_graph(7, 6, seed=seed)
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 5, size=g.num_vertices).astype(np.int64)
        got = zero_cut_scan_lengths(g, labels, 0, g.num_vertices)
        assert np.array_equal(got, naive_zero_cut(g, labels, 0,
                                                  g.num_vertices))

    def test_no_zeros_scans_full_degree(self):
        g = star_graph(5)
        labels = np.arange(1, 7, dtype=np.int64)
        got = zero_cut_scan_lengths(g, labels, 0, 6)
        assert np.array_equal(got, g.degrees)

    def test_all_zero_skipped(self):
        g = star_graph(4)
        labels = np.zeros(5, dtype=np.int64)
        got = zero_cut_scan_lengths(g, labels, 0, 5)
        assert got.sum() == 0

    def test_partial_block(self):
        g = path_graph(10)
        labels = np.arange(10, dtype=np.int64)  # vertex 0 holds zero
        got = zero_cut_scan_lengths(g, labels, 1, 4)
        assert np.array_equal(got, naive_zero_cut(g, labels, 1, 4))

    def test_explicit_skip_mask(self):
        g = star_graph(3)
        labels = np.array([1, 2, 3, 4], dtype=np.int64)
        skip = np.array([True, False, False, False])
        got = zero_cut_scan_lengths(g, labels, 0, 4, skip)
        assert got[0] == 0


class TestConcatAdjacency:
    def test_matches_neighbors(self):
        g = rmat_graph(6, 5, seed=6)
        rows = np.array([0, 3, 7], dtype=np.int64)
        targets, counts = concat_adjacency(g, rows)
        expect = np.concatenate([g.neighbors(int(r)) for r in rows])
        assert np.array_equal(targets, expect)
        assert np.array_equal(counts, g.degrees[rows])

    def test_empty_rows(self):
        g = path_graph(4)
        targets, counts = concat_adjacency(g, np.empty(0, np.int64))
        assert targets.size == 0

    def test_consecutive_rows_are_a_copy(self):
        g = rmat_graph(6, 5, seed=6)
        rows = np.arange(3, 9, dtype=np.int64)
        targets, counts = concat_adjacency(g, rows)
        expect = np.concatenate([g.neighbors(int(r)) for r in rows])
        assert np.array_equal(targets, expect)
        targets[:] = -1   # the graph's own indices stay intact
        assert np.array_equal(concat_adjacency(g, rows)[0], expect)

    def test_zero_degree_rows(self):
        g = CSRGraph(np.array([0, 0, 2, 4]), np.array([2, 2, 1, 1]))
        targets, counts = concat_adjacency(g, np.array([0, 1]))
        assert counts.tolist() == [0, 2]
        assert targets.tolist() == [2, 2]


class TestIntraBlockGroups:
    def test_path_split_by_blocks(self):
        g = path_graph(10)
        groups = intra_block_groups(g, np.array([5, 10]))
        # Vertices 0-4 one group, 5-9 another.
        assert np.array_equal(groups[:5], np.zeros(5))
        assert np.array_equal(groups[5:], np.full(5, 5))

    def test_single_block_is_component_labels(self):
        g = path_graph(6)
        groups = intra_block_groups(g, np.array([6]))
        assert np.array_equal(groups, np.zeros(6))

    def test_matches_per_block_reference(self):
        import networkx as nx
        g = rmat_graph(7, 6, seed=7)
        n = g.num_vertices
        bounds = np.array([n // 3, 2 * n // 3, n])
        groups = intra_block_groups(g, bounds)
        # Reference: per-block networkx CC.
        block_of = np.searchsorted(bounds, np.arange(n), side="right")
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        src = g.edge_sources()
        for u, v in zip(src, g.indices):
            if block_of[u] == block_of[v]:
                nxg.add_edge(int(u), int(v))
        for comp in nx.connected_components(nxg):
            comp = sorted(comp)
            assert np.all(groups[comp] == comp[0])

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.empty(0, np.int64))
        assert intra_block_groups(g, np.array([0])).size == 0


class TestBlockAsyncMin:
    def test_floods_group(self):
        jac = np.array([7, 3, 9, 2], dtype=np.int64)
        groups = np.array([0, 0, 1, 1])
        out = block_async_min(jac, groups)
        assert out.tolist() == [3, 3, 2, 2]

    def test_singletons_unchanged(self):
        jac = np.array([5, 4], dtype=np.int64)
        out = block_async_min(jac, np.array([0, 1]))
        assert out.tolist() == [5, 4]
