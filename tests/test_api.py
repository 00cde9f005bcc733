"""Tests for the public front door."""

import pytest

from repro import (
    ALGORITHMS,
    EPYC,
    ThriftyOptions,
    connected_components,
    num_components,
)
from repro.options import JTOptions
from repro.validate import same_partition, validate_against_reference


class TestDispatch:
    def test_all_methods_registered(self):
        assert set(ALGORITHMS) == {"thrifty", "dolp", "unified", "sv",
                                   "fastsv", "jt", "afforest", "bfs",
                                   "kla", "connectit", "lp-shortcut",
                                   "distributed"}

    @pytest.mark.parametrize("method", sorted(ALGORITHMS))
    def test_every_method_correct(self, method, small_skewed):
        result = connected_components(small_skewed, method)
        validate_against_reference(small_skewed, result)

    def test_methods_agree_pairwise(self, small_skewed):
        results = {m: connected_components(small_skewed, m)
                   for m in ALGORITHMS}
        base = results["thrifty"]
        for m, r in results.items():
            assert same_partition(base, r), m

    def test_unknown_method(self, triangle):
        with pytest.raises(ValueError, match="unknown method"):
            connected_components(triangle, "magic")

    def test_machine_forwarded_to_lp(self, small_skewed):
        r = connected_components(small_skewed, "thrifty", machine=EPYC)
        validate_against_reference(small_skewed, r)

    @pytest.mark.parametrize("method", sorted(ALGORITHMS))
    def test_machine_accepted_uniformly(self, method, triangle):
        # Every dispatch target takes machine=, LP engines and
        # machine-independent baselines alike.
        r = connected_components(triangle, method, machine=EPYC)
        assert r.num_components == 1

    def test_typed_options_forwarded(self, small_skewed):
        r = connected_components(small_skewed, "thrifty",
                                 options=ThriftyOptions(threshold=0.2))
        validate_against_reference(small_skewed, r)

    def test_wrong_options_type(self, triangle):
        with pytest.raises(TypeError, match="ThriftyOptions"):
            connected_components(triangle, "thrifty",
                                 options=JTOptions())

    def test_dataset_name_recorded(self, triangle):
        r = connected_components(triangle, "thrifty", dataset="tri")
        assert r.trace.dataset == "tri"

    def test_num_components(self, two_triangles):
        assert num_components(two_triangles) == 2

    def test_num_components_forwards_everything(self, small_skewed):
        # num_components takes the full front-door signature.
        n = num_components(small_skewed, "jt", machine=EPYC,
                           dataset="sk", options=JTOptions(seed=3))
        assert n == num_components(small_skewed, "thrifty")


class TestAutoRouting:
    def test_auto_runs_and_is_correct(self, small_skewed):
        r = connected_components(small_skewed, "auto")
        validate_against_reference(small_skewed, r)

    def test_auto_rejects_options(self, small_skewed):
        with pytest.raises(ValueError, match="auto"):
            connected_components(small_skewed, "auto",
                                 options=ThriftyOptions())
        with pytest.raises(TypeError, match="threshold"):
            connected_components(small_skewed, "auto", threshold=0.1)

    def test_unknown_method_error_lists_auto(self, triangle):
        with pytest.raises(ValueError, match="auto"):
            connected_components(triangle, "magic")


class TestCCResult:
    def test_canonical_labels_minimum_member(self, two_triangles):
        r = connected_components(two_triangles, "thrifty")
        canon = r.canonical_labels()
        assert canon.tolist() == [0, 0, 0, 3, 3, 3]

    def test_component_sizes_sorted(self, small_skewed):
        r = connected_components(small_skewed, "thrifty")
        sizes = r.component_sizes()
        assert list(sizes) == sorted(sizes, reverse=True)
        assert int(sizes.sum()) == small_skewed.num_vertices

    def test_counters_accessor(self, triangle):
        r = connected_components(triangle, "dolp")
        assert r.counters().edges_processed > 0
