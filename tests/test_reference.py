"""Tests for the per-vertex pseudocode reference implementations."""

import numpy as np
import pytest

from repro.core import thrifty_cc
from tests.pseudocode import (
    reference_dolp,
    reference_label_propagation_iterations,
    reference_thrifty,
)
from repro.graph import component_labels_reference
from repro.graph.generators import path_graph, rmat_graph, star_graph
from repro.validate import same_partition


SMALL_SEEDS = [1, 2, 3]


class TestReferenceDolp:
    @pytest.mark.parametrize("seed", SMALL_SEEDS)
    def test_correct_components(self, seed):
        g = rmat_graph(6, 5, seed=seed)
        labels, iters = reference_dolp(g)
        assert same_partition(labels, component_labels_reference(g))
        assert iters >= 1

    def test_path_takes_diameter_iterations(self):
        g = path_graph(20)
        _, iters = reference_dolp(g)
        assert iters >= 19   # wavefront: one hop per iteration


class TestReferenceThrifty:
    @pytest.mark.parametrize("seed", SMALL_SEEDS)
    def test_correct_components(self, seed):
        g = rmat_graph(6, 5, seed=seed)
        labels, _ = reference_thrifty(g)
        assert same_partition(labels, component_labels_reference(g))

    def test_agrees_with_reference_dolp(self):
        g = rmat_graph(6, 6, seed=4)
        l1, _ = reference_dolp(g)
        l2, _ = reference_thrifty(g)
        assert same_partition(l1, l2)

    def test_star_two_iterations(self):
        # Initial push resolves everything; one pull confirms.
        g = star_graph(15)
        labels, iters = reference_thrifty(g)
        assert np.all(labels == 0)
        assert iters <= 3

    def test_giant_component_converges_to_zero(self):
        g = rmat_graph(6, 8, seed=5)
        labels, _ = reference_thrifty(g)
        hub = g.max_degree_vertex()
        assert labels[hub] == 0
        # Most of the vertices share the hub's (zero) label.
        assert np.mean(labels == 0) > 0.5

    def test_empty_graph(self):
        from repro.graph import CSRGraph
        g = CSRGraph(np.array([0]), np.empty(0, np.int64))
        labels, iters = reference_thrifty(g)
        assert labels.size == 0 and iters == 0


class TestProductionAgainstReference:
    """The vectorized engine and the pseudocode must agree."""

    @pytest.mark.parametrize("seed", SMALL_SEEDS)
    def test_same_components(self, seed):
        g = rmat_graph(6, 6, seed=seed)
        ref_labels, _ = reference_thrifty(g)
        prod = thrifty_cc(g)
        assert same_partition(prod.labels, ref_labels)

    def test_iteration_counts_comparable(self):
        """Block-async modelling may differ from per-vertex sweeps,
        but not wildly (within 3x either way on a small graph)."""
        g = rmat_graph(7, 6, seed=6)
        _, ref_iters = reference_thrifty(g)
        prod_iters = thrifty_cc(g).num_iterations
        assert prod_iters <= 3 * ref_iters
        assert ref_iters <= 3 * prod_iters


class TestPlainLP:
    def test_iteration_bound(self):
        g = path_graph(12)
        iters = reference_label_propagation_iterations(g)
        assert iters == 12   # diameter + termination round
