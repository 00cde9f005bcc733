"""Tests for SV, JT, Afforest and BFS-CC."""

import math

import numpy as np
import pytest

from repro.baselines import (
    afforest_cc,
    bfs_cc,
    jayanti_tarjan_cc,
    shiloach_vishkin_cc,
)
from repro.graph.generators import path_graph, star_graph
from repro.validate import same_partition, validate_against_reference

ALL = [shiloach_vishkin_cc, jayanti_tarjan_cc, afforest_cc, bfs_cc]


class TestCorrectness:
    @pytest.mark.parametrize("algo", ALL,
                             ids=["sv", "jt", "afforest", "bfs"])
    def test_on_zoo(self, algo, zoo_graph):
        validate_against_reference(zoo_graph, algo(zoo_graph))

    @pytest.mark.parametrize("algo", ALL,
                             ids=["sv", "jt", "afforest", "bfs"])
    def test_empty_graph(self, algo):
        from repro.graph import CSRGraph
        g = CSRGraph(np.array([0]), np.empty(0, np.int64))
        assert algo(g).labels.size == 0

    def test_jt_seed_does_not_change_partition(self, small_skewed):
        a = jayanti_tarjan_cc(small_skewed, seed=1)
        b = jayanti_tarjan_cc(small_skewed, seed=2)
        assert same_partition(a.labels, b.labels)

    def test_afforest_seed_does_not_change_partition(self, small_skewed):
        a = afforest_cc(small_skewed, seed=1)
        b = afforest_cc(small_skewed, seed=2)
        assert same_partition(a.labels, b.labels)

    def test_afforest_neighbor_rounds_variants(self, small_skewed):
        for k in (1, 2, 4):
            r = afforest_cc(small_skewed, neighbor_rounds=k)
            validate_against_reference(small_skewed, r)


class TestAfforestValidation:
    """Sampling parameters that used to corrupt the run are rejected
    by name, at the options and at the function."""

    @staticmethod
    def _paths_and_isolated():
        # Two disjoint 3-paths plus an isolated vertex: 3 components.
        from repro.graph import build_graph, from_pairs
        return build_graph(from_pairs([(0, 1), (1, 2), (3, 4), (4, 5)],
                                      7), drop_zero_degree=False)

    @pytest.mark.parametrize("field,value",
                             [("neighbor_rounds", -1),
                              ("sample_size", 0)])
    def test_options_reject(self, field, value):
        from repro.options import AfforestOptions
        with pytest.raises(ValueError, match=field):
            AfforestOptions(**{field: value})

    @pytest.mark.parametrize("field,value",
                             [("neighbor_rounds", -1),
                              ("sample_size", 0)])
    def test_function_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            afforest_cc(self._paths_and_isolated(), **{field: value})

    def test_boundaries_are_legal(self):
        g = self._paths_and_isolated()
        for kwargs in ({"neighbor_rounds": 0}, {"sample_size": 1}):
            result = afforest_cc(g, **kwargs)
            assert result.num_components == 3
            validate_against_reference(g, result)


class TestCostShapes:
    def test_sv_processes_all_edges_every_round(self, small_skewed):
        r = shiloach_vishkin_cc(small_skewed)
        m = small_skewed.num_edges
        assert r.counters().edges_processed == r.num_iterations * m

    def test_sv_logarithmic_rounds(self, small_skewed):
        r = shiloach_vishkin_cc(small_skewed)
        bound = 2 * math.log2(small_skewed.num_vertices) + 4
        assert r.num_iterations <= bound

    def test_jt_processes_each_edge_once(self, small_skewed):
        r = jayanti_tarjan_cc(small_skewed)
        assert r.counters().edges_processed == \
            small_skewed.num_undirected_edges
        assert r.num_iterations == 1

    def test_jt_charges_finds(self, small_skewed):
        c = jayanti_tarjan_cc(small_skewed).counters()
        assert c.dependent_accesses >= \
            2 * small_skewed.num_undirected_edges

    def test_afforest_skips_giant_component(self, small_skewed):
        c = afforest_cc(small_skewed).counters()
        # Phase 1 samples ~2 edges/vertex; phase 3 only the dust.
        assert c.edges_processed < 3 * small_skewed.num_vertices
        assert c.edges_processed < 0.5 * small_skewed.num_edges

    def test_afforest_trace_has_three_phases(self, small_skewed):
        assert afforest_cc(small_skewed).num_iterations == 3

    def test_bfs_labels_are_component_minima(self, two_triangles):
        r = bfs_cc(two_triangles)
        assert np.array_equal(r.labels, [0, 0, 0, 3, 3, 3])

    def test_bfs_levels_reflect_diameter(self):
        g = path_graph(64)
        r = bfs_cc(g)
        assert r.num_iterations >= 63

    def test_bfs_direction_optimization_on_star(self):
        # Hub-first BFS: one big top-down level should flip bottom-up.
        g = star_graph(2000)
        r = bfs_cc(g)
        assert r.num_iterations <= 3
        total = r.counters().edges_processed
        assert total <= 3 * g.num_edges

    def test_converged_fraction_reaches_one(self, small_skewed):
        for algo in ALL:
            trace = algo(small_skewed).trace
            assert trace.iterations[-1].converged_fraction == \
                pytest.approx(1.0)

    def test_afforest_phase1_trace_counts_actual_edges(self):
        # Star graph: round 0 offers every vertex's first neighbour
        # (n+1 edges... n leaves + hub), round 1 only the hub has a
        # second neighbour.  The old trace recorded neighbor_rounds*n.
        g = star_graph(50)
        n = g.num_vertices                       # 51
        r = afforest_cc(g, neighbor_rounds=2)
        phase1 = r.trace.iterations[0]
        assert phase1.active_edges == n + 1      # not 2 * n
        assert phase1.active_edges == phase1.counters.edges_processed

    def test_afforest_phase1_trace_matches_counters(self, small_skewed):
        r = afforest_cc(small_skewed)
        phase1 = r.trace.iterations[0]
        assert phase1.active_edges == phase1.counters.edges_processed

    def test_afforest_phase2_charges_sampled_find_cost(self, small_skewed):
        c = afforest_cc(small_skewed).trace.iterations[1].counters
        # The sampled finds cost at least one read per sampled vertex
        # and are mirrored into label_reads (shared find recipe).
        sample = min(1024, small_skewed.num_vertices)
        assert c.dependent_accesses >= sample
        assert c.label_reads == c.dependent_accesses

    def test_sv_counts_duplicate_hooks_once(self):
        # Two edges hook the same root in one round: one linearized
        # commit, so changed_vertices must be 1, not 2.
        from repro.graph import build_graph, from_pairs
        g = build_graph(from_pairs([(0, 2), (1, 2)]),
                        drop_zero_degree=False)
        r = shiloach_vishkin_cc(g)
        assert r.trace.iterations[0].changed_vertices == 1
        assert r.trace.iterations[0].counters.cas_successes == 1
