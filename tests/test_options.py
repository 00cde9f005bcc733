"""Typed options front door: construction, canonicalization, and the
removed compatibility surface."""

import importlib
from functools import partial

import numpy as np
import pytest

import repro.core
import repro.distributed
import repro.graph
import repro.graph.io
import repro.parallel
from repro import ALGORITHMS, connected_components, num_components
from repro.baselines import (
    afforest_cc,
    jayanti_tarjan_cc,
    shiloach_vishkin_cc,
)
from repro.baselines.lp_shortcut import lp_shortcut_cc
from repro.connectit import connectit_cc
from repro.core import LPOptions, dolp_cc, thrifty_cc, unified_dolp_cc
from repro.core.backends import get_backend
from repro.core.kla import kla_cc
from repro.distributed import distributed_cc
from repro.graph.generators import path_graph
from repro.instrument.counters import OpCounters
from repro.options import (
    OPTION_TYPES,
    AfforestOptions,
    DistributedOptions,
    KLAOptions,
    ThriftyOptions,
    options_for,
    resolve_options,
    to_call_kwargs,
)


class TestOptionTypes:
    def test_every_algorithm_has_options(self):
        assert set(OPTION_TYPES) == set(ALGORITHMS)

    def test_options_are_frozen_and_hashable(self):
        from dataclasses import FrozenInstanceError, fields
        for method, cls in OPTION_TYPES.items():
            opts = cls()
            for f in fields(opts):
                with pytest.raises(FrozenInstanceError):
                    setattr(opts, f.name, None)
                break
            assert hash(opts) == hash(cls()), method
            assert opts == cls(), method

    def test_default_options_flatten_to_no_kwargs_for_lp(self):
        # None fields are "use canonical value" and must be dropped.
        assert to_call_kwargs(ThriftyOptions()) == {}

    def test_defaulted_fields_survive_flattening(self):
        kw = to_call_kwargs(AfforestOptions(neighbor_rounds=3))
        assert kw["neighbor_rounds"] == 3
        assert kw["sample_size"] == 1024    # non-None class default

    def test_options_for_unknown_method(self):
        with pytest.raises(ValueError, match="auto"):
            options_for("magic")

    def test_options_for_unknown_field_lists_valid(self):
        with pytest.raises(ValueError, match="threshold"):
            options_for("thrifty", thresold=0.1)   # typo

    def test_options_for_builds_right_type(self):
        for method, cls in OPTION_TYPES.items():
            assert type(options_for(method)) is cls


class TestResolveOptions:
    def test_none_resolves_to_defaults(self):
        assert resolve_options("thrifty", None) == ThriftyOptions()

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="AfforestOptions"):
            resolve_options("afforest", ThriftyOptions())


#: Each method's algorithm called directly, bypassing the front door.
DIRECT = {
    "thrifty": thrifty_cc,
    "dolp": dolp_cc,
    "unified": unified_dolp_cc,
    "sv": shiloach_vishkin_cc,
    "jt": jayanti_tarjan_cc,
    "afforest": afforest_cc,
    "lp-shortcut": lp_shortcut_cc,
    "connectit": connectit_cc,
    "kla": lambda g, **kw: kla_cc(g, KLAOptions(**kw)),
    "distributed": lambda g, **kw: distributed_cc(
        g, DistributedOptions(**kw)),
}


class TestRoundTrip:
    @pytest.mark.parametrize("method,legacy", [
        ("thrifty", {"threshold": 0.2, "num_threads": 4}),
        ("dolp", {"num_threads": 8}),
        ("unified", {"block_size": 32}),
        ("sv", {"backend": "numpy"}),
        ("jt", {"seed": 9}),
        ("afforest", {"neighbor_rounds": 1, "seed": 2}),
        ("lp-shortcut", {"shortcut_depth": 3}),
        ("kla", {"k": 2}),
        ("connectit", {"sampling": "kout", "seed": 1}),
        ("distributed", {"num_ranks": 3, "partition": "degree_balanced",
                         "combining": False}),
    ])
    def test_legacy_and_typed_bit_identical(self, method, legacy,
                                            small_skewed):
        """Typed options reproduce the algorithm called directly with
        the same fields in its own (pre-options) keyword spelling."""
        typed = connected_components(
            small_skewed, method, options=options_for(method, **legacy))
        direct = DIRECT[method](small_skewed, **legacy)
        assert np.array_equal(typed.labels, direct.labels)
        assert typed.counters().as_dict() == direct.counters().as_dict()
        assert typed.num_iterations == direct.num_iterations


_TINY = path_graph(3)

#: The removed compatibility surface: a call and the error it raises.
GONE = {
    "front-door-kwargs": (
        partial(connected_components, _TINY, "thrifty", threshold=0.2),
        TypeError, "threshold"),
    "num-components-kwargs": (
        partial(num_components, _TINY, "thrifty", threshold=0.2),
        TypeError, "threshold"),
    **{f"graph.{name}": (partial(getattr, repro.graph, name),
                         AttributeError, name)
       for name in ("load_dataset", "load_graph", "load_csr_npz",
                    "load_edge_list_text")},
    **{f"graph.io.{name}": (partial(getattr, repro.graph.io, name),
                            AttributeError, name)
       for name in ("load_matrix_market", "load_konect")},
    **{f"parallel.{name}": (partial(getattr, repro.parallel, name),
                            AttributeError, name)
       for name in ("Frontier", "atomic_min", "batch_atomic_min",
                    "batch_atomic_min_count", "pick_steal_victim")},
    "DistributedLPOptions": (
        partial(getattr, repro.distributed, "DistributedLPOptions"),
        AttributeError, "DistributedLPOptions"),
    "thrifty-fuse_push": (
        partial(options_for, "thrifty", fuse_push=False),
        ValueError, r"valid options: \[.*'threshold'"),
    **{f"thrifty-{name}": (
        partial(options_for, "thrifty", **{name: 0.1}),
        ValueError, rf"unknown option\(s\) \['{name}'\]")
       for name in ("race_rate", "frontier_switch_density")},
    **{f"LPOptions.{name}": (partial(LPOptions, **{name: value}),
                             TypeError, name)
       for name, value in (("fuse_push", False), ("race_rate", 0.1),
                           ("frontier_switch_density", 0.5))},
    **{f"core.{name}": (partial(getattr, repro.core, name),
                        AttributeError, name)
       for name in ("reference_dolp", "reference_thrifty",
                    "reference_label_propagation_iterations")},
    **{f"import {module}": (partial(importlib.import_module, module),
                            ModuleNotFoundError, module)
       for module in ("repro.core.kernels", "repro.core.reference")},
    **{f"backend.{name}": (partial(getattr, get_backend(), name),
                           AttributeError, name)
       for name in ("batch_atomic_min_count", "zero_cut_scan_lengths",
                    "push_scan_lengths", "fused_push_window")},
    "OpCounters.record_push_skip": (
        partial(getattr, OpCounters(), "record_push_skip"),
        AttributeError, "record_push_skip"),
    "afforest-local": (
        partial(options_for, "afforest", local=False), ValueError,
        r"valid options: \['backend', 'neighbor_rounds', 'sample_size', "
        r"'seed'\]"),
    "connectit-local": (
        partial(options_for, "connectit", local=False), ValueError,
        r"valid options: \[.*'sampling'"),
}


@pytest.mark.parametrize("name", sorted(GONE))
def test_removed_surface_is_gone(name):
    call, error, match = GONE[name]
    with pytest.raises(error, match=match):
        call()
