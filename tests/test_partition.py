"""Tests for edge-balanced partitioning."""

import numpy as np
import pytest

from repro.graph.generators import path_graph, rmat_graph, star_graph
from repro.parallel import (
    PARTITIONS_PER_THREAD,
    Partitioning,
    edge_balanced_partitions,
)


class TestPartitioning:
    def test_bounds_cover_all_vertices(self):
        g = rmat_graph(9, 8, seed=1)
        p = edge_balanced_partitions(g, 4)
        assert p.bounds[0] == 0
        assert p.bounds[-1] == g.num_vertices
        assert p.num_partitions == 4 * PARTITIONS_PER_THREAD

    def test_edge_counts_sum_to_total(self):
        g = rmat_graph(9, 8, seed=1)
        p = edge_balanced_partitions(g, 4)
        assert int(p.edge_counts(g).sum()) == g.num_edges

    def test_balance_quality_uniform_graph(self):
        g = path_graph(10_000)
        p = edge_balanced_partitions(g, 8)
        counts = p.edge_counts(g)
        ideal = g.num_edges / p.num_partitions
        assert counts.max() <= 2 * ideal + 2

    def test_skewed_hub_allowed_to_overflow(self):
        # One vertex with most of the edges cannot be split.
        g = star_graph(5000)
        p = edge_balanced_partitions(g, 4)
        assert p.edge_counts(g).max() >= 5000

    def test_ownership_layout(self):
        g = rmat_graph(8, 8, seed=2)
        p = edge_balanced_partitions(g, 4)
        assert list(p.owned_by(0)) == list(range(PARTITIONS_PER_THREAD))
        assert p.owner_of(0) == 0
        assert p.owner_of(p.num_partitions - 1) == 3

    def test_vertex_range(self):
        g = path_graph(100)
        p = edge_balanced_partitions(g, 2, partitions_per_thread=2)
        ranges = [p.vertex_range(i) for i in range(4)]
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert b == c

    def test_validation(self):
        g = path_graph(10)
        with pytest.raises(ValueError):
            edge_balanced_partitions(g, 0)
        with pytest.raises(ValueError):
            edge_balanced_partitions(g, 2, partitions_per_thread=0)

    def test_bounds_validation(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Partitioning(np.array([0, 5, 3]), 1)
        with pytest.raises(ValueError, match="2 entries"):
            Partitioning(np.array([0]), 1)
        with pytest.raises(ValueError, match="num_threads"):
            Partitioning(np.array([0, 3]), 0)
        # 5 partitions over 2 threads: partition 4 would belong to a
        # thread that does not exist.
        with pytest.raises(ValueError, match="split evenly"):
            Partitioning(np.array([0, 2, 4, 6, 8, 10]), 2)

    def test_more_partitions_than_vertices(self):
        g = path_graph(5)
        p = edge_balanced_partitions(g, 4)   # 128 partitions, 5 vertices
        assert p.num_vertices == 5
        assert int(p.edge_counts(g).sum()) == g.num_edges


class TestVertexBalanced:
    def test_equal_vertex_counts(self):
        from repro.parallel import vertex_balanced_partitions
        g = rmat_graph(9, 8, seed=3)
        p = vertex_balanced_partitions(g, 4)
        sizes = np.diff(p.bounds)
        assert sizes.max() - sizes.min() <= 1
        assert p.bounds[-1] == g.num_vertices

    def test_skewed_edge_imbalance(self):
        from repro.parallel import vertex_balanced_partitions
        g = star_graph(5000)
        pv = vertex_balanced_partitions(g, 4)
        pe = edge_balanced_partitions(g, 4)
        # The hub's partition dominates under vertex balancing; the
        # spread of per-partition edges is far wider than edge-balanced.
        assert pv.edge_counts(g).max() >= pe.edge_counts(g).max()

    def test_validation(self):
        from repro.parallel import vertex_balanced_partitions
        g = path_graph(10)
        with pytest.raises(ValueError):
            vertex_balanced_partitions(g, 0)
        with pytest.raises(ValueError):
            vertex_balanced_partitions(g, 2, partitions_per_thread=0)


class TestPartitionOf:
    def test_inverse_of_vertex_range(self):
        g = rmat_graph(9, 8, seed=3)
        part = edge_balanced_partitions(g, 4, 4)
        for v in range(g.num_vertices):
            p = part.partition_of(v)
            lo, hi = part.vertex_range(p)
            assert lo <= v < hi

    def test_skewed_hub_partition(self):
        g = star_graph(100)
        part = edge_balanced_partitions(g, 4, 1)
        assert part.partition_of(0) == 0
        # The hub absorbs most edges, so late vertices map to late
        # partitions even though their ids are small multiples of the
        # thread count.
        lo, hi = part.vertex_range(part.num_partitions - 1)
        assert part.partition_of(hi - 1) == part.num_partitions - 1

    def test_out_of_range_rejected(self):
        g = path_graph(10)
        part = edge_balanced_partitions(g, 2, 1)
        with pytest.raises(ValueError):
            part.partition_of(-1)
        with pytest.raises(ValueError):
            part.partition_of(10)

    def test_consistent_with_owner_layout(self):
        g = rmat_graph(8, 8, seed=4)
        part = edge_balanced_partitions(g, 4, 2)
        for v in range(0, g.num_vertices, 7):
            p = part.partition_of(v)
            assert 0 <= part.owner_of(p) < 4
