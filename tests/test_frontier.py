"""Tests for frontier data structures."""

import numpy as np
import pytest

from repro.graph.generators import star_graph
from repro.parallel import AdaptiveFrontier, CountOnlyFrontier


class TestFrontier:
    """The frontier contract the engine relies on: activation with
    active-edge tracking, the full() constructor, density (Algorithm 1,
    line 7) and sorted vertex ids."""

    def test_initially_empty(self, triangle):
        f = AdaptiveFrontier(triangle.num_vertices)
        assert len(f) == 0
        assert f.num_active_edges == 0
        assert f.density(triangle) == 0.0

    def test_set_tracks_edges(self, triangle):
        f = AdaptiveFrontier(triangle.num_vertices)
        f.set_many(triangle, np.array([0]))
        assert len(f) == 1
        assert f.num_active_edges == 2
        assert 0 in f.vertices() and 1 not in f.vertices()

    def test_set_idempotent(self, triangle):
        f = AdaptiveFrontier(triangle.num_vertices)
        f.set_many(triangle, np.array([0]))
        f.set_many(triangle, np.array([0]))
        assert len(f) == 1
        assert f.num_active_edges == 2

    def test_set_many_with_duplicates(self, triangle):
        f = AdaptiveFrontier(triangle.num_vertices)
        f.set_many(triangle, np.array([0, 1, 1, 0]))
        assert len(f) == 2
        assert f.num_active_edges == 4

    def test_full(self, triangle):
        f = AdaptiveFrontier.full(triangle)
        assert len(f) == 3
        assert f.num_active_edges == triangle.num_edges
        assert f.density(triangle) > 1.0

    def test_density_formula(self):
        g = star_graph(10)   # |E| = 20 directed
        f = AdaptiveFrontier(g.num_vertices)
        f.set_many(g, np.array([0]))
        # (|F.V| + |F.E|)/|E| = (1 + 10)/20
        assert f.density(g) == pytest.approx(11 / 20)

    def test_vertices_sorted(self, triangle):
        f = AdaptiveFrontier(triangle.num_vertices)
        f.set_many(triangle, np.array([2, 0]))
        assert np.array_equal(f.vertices(), [0, 2])


class TestCountOnlyFrontier:
    def test_accumulates(self):
        c = CountOnlyFrontier()
        c.add(3, 10)
        c.add(2, 5)
        assert len(c) == 5
        assert c.num_active_edges == 15

    def test_density(self, triangle):
        c = CountOnlyFrontier()
        c.add(1, 2)
        assert c.density(triangle) == pytest.approx(3 / 6)

    def test_negative_rejected(self):
        c = CountOnlyFrontier()
        with pytest.raises(ValueError):
            c.add(-1, 0)


class TestAdaptiveFrontier:
    def make(self, n=1000, switch=0.02):
        return AdaptiveFrontier(n, switch_density=switch)

    def test_starts_sparse(self):
        f = self.make()
        assert f.mode == "worklist"
        assert len(f) == 0

    def test_membership_both_modes(self):
        g = star_graph(99)                       # 100 vertices
        f = self.make(100, switch=0.1)
        f.set_many(g, np.array([3, 7]))
        assert f.mode == "worklist"
        assert f.vertices().tolist() == [3, 7]
        f.set_many(g, np.arange(50))             # force bitmap
        assert f.mode == "bitmap"
        assert 3 in f.vertices() and 99 not in f.vertices()

    def test_switches_to_bitmap_when_dense(self):
        g = star_graph(99)
        f = self.make(100, switch=0.05)
        f.set_many(g, np.arange(10))
        assert f.mode == "bitmap"
        assert f.conversions == 1

    def test_vertices_sorted_in_both_modes(self):
        g = star_graph(49)                       # 50 vertices
        f = self.make(50, switch=0.5)
        f.set_many(g, np.array([9, 2, 5]))
        assert f.vertices().tolist() == [2, 5, 9]
        f.set_many(g, np.arange(30))
        assert f.mode == "bitmap"
        assert np.all(np.diff(f.vertices()) > 0)

    def test_duplicates_ignored(self):
        g = star_graph(99)
        f = self.make(100, switch=0.5)
        f.set_many(g, np.array([1, 1, 1]))
        assert len(f) == 1
        assert f.num_active_edges == 1

    def test_out_of_range_rejected(self):
        g = star_graph(9)                        # 10 vertices
        f = self.make(10)
        with pytest.raises(ValueError):
            f.set_many(g, np.array([10]))

    def test_set_many_accepts_empty(self, triangle):
        f = self.make(triangle.num_vertices)
        f.set_many(triangle, np.empty(0, dtype=np.int64))
        assert len(f) == 0
        assert f.mode == "worklist"


class TestAdaptiveFrontierGraphAware:
    """The graph-aware surface the LP engine uses: edge tracking,
    density, and the full() constructor."""

    def make(self, n, switch=0.02):
        return AdaptiveFrontier(n, switch_density=switch)

    def test_set_many_tracks_edges(self, triangle):
        f = self.make(triangle.num_vertices, switch=1.0)
        f.set_many(triangle, np.array([0, 1, 1, 0]))
        assert len(f) == 2
        assert f.num_active_edges == 4
        assert f.density(triangle) == pytest.approx(6 / 6)

    def test_set_many_no_double_count(self, triangle):
        f = self.make(triangle.num_vertices, switch=1.0)
        f.set_many(triangle, np.array([0]))
        f.set_many(triangle, np.array([0, 2]))
        assert len(f) == 2
        assert f.num_active_edges == 4

    def test_set_many_tracks_edges_across_switch(self):
        g = star_graph(10)
        f = self.make(g.num_vertices, switch=0.15)
        f.set_many(g, np.array([0]))             # hub: degree 10
        assert f.mode == "worklist"
        f.set_many(g, np.array([1, 2, 3]))       # leaves: degree 1
        assert f.mode == "bitmap"
        assert f.num_active_edges == 13
        f.set_many(g, np.array([3, 4]))          # 3 already active
        assert f.num_active_edges == 14

    def test_set_many_rejects_out_of_range(self, triangle):
        f = self.make(triangle.num_vertices)
        with pytest.raises(ValueError):
            f.set_many(triangle, np.array([3]))
        with pytest.raises(ValueError):
            f.set_many(triangle, np.array([-1]))

    def test_full_is_bitmap_with_no_conversion(self, triangle):
        f = AdaptiveFrontier.full(triangle)
        assert f.mode == "bitmap"
        assert f.conversions == 0                # construction, not a switch
        assert len(f) == triangle.num_vertices
        assert f.num_active_edges == triangle.num_edges
        assert f.density(triangle) > 1.0

    def test_density_formula(self):
        g = star_graph(10)                       # |E| = 20 directed
        f = self.make(g.num_vertices, switch=1.0)
        f.set_many(g, np.array([0]))
        assert f.density(g) == pytest.approx(11 / 20)

    def test_switch_density_validation(self):
        with pytest.raises(ValueError):
            AdaptiveFrontier(10, switch_density=0.0)
