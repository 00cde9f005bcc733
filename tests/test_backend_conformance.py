"""Backend conformance: every registered backend vs the numpy oracle.

The backend seam (``repro.core.backends``) promises that a kernel
backend changes *wall-clock only*: labels, changed masks, scan
lengths, counters and traces must be bit-identical to the canonical
``"numpy"`` backend.  This suite is what a new backend must pass to be
registrable in good standing:

* kernel-by-kernel equality on randomized skewed inputs (the kernels
  the property sweeps don't already parametrize over backends);
* engine-level equality — full ``CCResult`` including per-iteration
  counters — across the graph zoo, plus determinism (same seed, same
  backend, twice → identical everything);
* the registry/validation API contract, including the one sanctioned
  extension point;
* serving-layer canonicalization: option spellings of the default
  backend collapse to one cache key, and feedback/metrics attribute
  per backend so learned costs never mix.
"""

import numpy as np
import pytest

from repro.core import LPOptions, label_propagation_cc
from repro.core.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    canonical_backend,
    get_backend,
    register_backend,
    validate_backend,
)
from repro.core.backends import _REGISTRY
from repro.graph.generators import rmat_graph, with_dust_components
from repro.options import ThriftyOptions, UnionFindOptions, options_for
from repro.service import CCRequest, CCService
from repro.service.feedback import backend_feedback_key

BACKENDS = available_backends()
NUMPY = get_backend("numpy")


def _case(seed):
    """A skewed graph and a zero-heavy labels array."""
    rng = np.random.default_rng(seed)
    g = with_dust_components(rmat_graph(7, 8, seed=seed), 5, seed=seed)
    n = g.num_vertices
    labels = rng.integers(1, n + 1, size=n).astype(np.int64)
    labels[rng.random(n) < 0.3] = 0
    return g, labels


# -- registry / validation contract ----------------------------------


class TestRegistry:
    def test_default_backend_is_numpy(self):
        assert get_backend() is NUMPY
        assert get_backend(None) is NUMPY
        assert NUMPY.name == DEFAULT_BACKEND == "numpy"

    def test_every_backend_satisfies_protocol(self):
        for name in BACKENDS:
            assert isinstance(get_backend(name), KernelBackend), name

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="available backends"):
            get_backend("no-such-backend")
        with pytest.raises(ValueError, match="available backends"):
            validate_backend("no-such-backend")

    def test_validate_rejects_non_strings(self):
        with pytest.raises(ValueError, match="string or None"):
            validate_backend(3)

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register_backend("", NUMPY)

    def test_canonical_backend_folds_default(self):
        assert canonical_backend(None) is None
        assert canonical_backend(DEFAULT_BACKEND) is None
        for name in BACKENDS:
            if name != DEFAULT_BACKEND:
                assert canonical_backend(name) == name


# -- kernel-by-kernel equality vs the numpy oracle -------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
class TestKernelConformance:
    """The kernels the backend-parametrized property sweeps skip."""

    def test_pull_zero_cut_and_scan(self, backend, seed):
        """``pull_block_zero_cut`` is ``pull_block``'s labels plus the
        canonical backend's per-row scan lengths, for any skip mask."""
        g, labels = _case(seed)
        kb = get_backend(backend)
        n = g.num_vertices
        rng = np.random.default_rng(seed)
        for lo, hi in [(0, n), (0, n // 2), (n // 3, n), (2, 2)]:
            for skip in (None, labels[lo:hi] % 3 == 0,
                         rng.random(hi - lo) < 0.5):
                new, changed, lengths = kb.pull_block_zero_cut(
                    g, labels, lo, hi, skip)
                for oracle in (kb, NUMPY):
                    ref_new, ref_changed = oracle.pull_block(g, labels,
                                                             lo, hi)
                    assert new.dtype == ref_new.dtype
                    assert np.array_equal(new, ref_new)
                    assert np.array_equal(changed, ref_changed)
                    ref_len = oracle.pull_block_zero_cut(g, labels, lo,
                                                         hi, skip)[2]
                    assert lengths.dtype == ref_len.dtype == np.int64
                    assert np.array_equal(lengths, ref_len)

    def test_push_side_kernels(self, backend, seed):
        g, labels = _case(seed)
        kb = get_backend(backend)
        rng = np.random.default_rng(seed)
        rows = np.unique(rng.integers(0, g.num_vertices, size=20))
        t_got, c_got = kb.concat_adjacency(g, rows)
        t_ref, c_ref = NUMPY.concat_adjacency(g, rows)
        assert np.array_equal(t_got, t_ref)
        assert np.array_equal(c_got, c_ref)
        cuts = np.array([0, rows.size // 2, rows.size], dtype=np.int64)
        assert np.array_equal(kb.chunked_cuts(cuts, 3),
                              NUMPY.chunked_cuts(cuts, 3))

    def test_block_kernels(self, backend, seed):
        g, labels = _case(seed)
        kb = get_backend(backend)
        n = g.num_vertices
        bounds = np.array([0, n // 3, 2 * n // 3, n], dtype=np.int64)
        groups = NUMPY.intra_block_groups(g, bounds)
        assert np.array_equal(kb.intra_block_groups(g, bounds), groups)
        assert np.array_equal(kb.block_async_min(labels, groups),
                              NUMPY.block_async_min(labels, groups))

    def test_atomic_batches(self, backend, seed):
        g, labels = _case(seed)
        kb = get_backend(backend)
        rng = np.random.default_rng(seed + 100)
        idx = rng.integers(0, labels.size, size=64)
        vals = rng.integers(0, labels.size, size=64).astype(labels.dtype)

        a_got, a_ref = labels.copy(), labels.copy()
        changed_got = kb.batch_atomic_min(a_got, idx, vals)
        changed_ref = NUMPY.batch_atomic_min(a_ref, idx, vals)
        assert np.array_equal(a_got, a_ref)
        assert np.array_equal(changed_got, changed_ref)

        a_got, a_ref = labels.copy(), labels.copy()
        n_got = kb.scatter_min_count(a_got, idx, vals)
        n_ref = NUMPY.scatter_min_count(a_ref, idx, vals)
        assert np.array_equal(a_got, a_ref)
        assert n_got == n_ref
        assert kb.scatter_min_count(a_got, idx[:0], vals[:0]) == 0


# -- engine-level equality and determinism ---------------------------


def _result_equal(a, b):
    assert np.array_equal(a.labels, b.labels)
    assert a.num_iterations == b.num_iterations
    for x, y in zip(a.trace.iterations, b.trace.iterations):
        assert x.direction == y.direction, x.index
        assert x.counters.as_dict() == y.counters.as_dict(), x.index
    assert a.trace.total_counters().as_dict() == \
        b.trace.total_counters().as_dict()


@pytest.mark.parametrize("backend", BACKENDS)
class TestEngineConformance:
    def test_zoo_sweep_matches_numpy(self, backend, zoo_graph):
        ref = label_propagation_cc(zoo_graph, LPOptions())
        got = label_propagation_cc(zoo_graph,
                                   LPOptions(backend=backend))
        _result_equal(got, ref)

    @pytest.mark.parametrize("method,kwargs", [
        ("thrifty", {}),
        ("sv", {}),
        ("jt", {"seed": 3}),
        ("afforest", {"seed": 3}),
        ("kla", {"k": 2}),
        ("distributed", {"num_ranks": 4}),
    ])
    def test_front_door_methods_match_numpy(self, backend, method,
                                            kwargs, small_skewed):
        from repro.api import connected_components
        ref = connected_components(
            small_skewed, method, options=options_for(method, **kwargs))
        got = connected_components(
            small_skewed, method,
            options=options_for(method, backend=backend, **kwargs))
        assert np.array_equal(got.labels, ref.labels)
        assert got.trace.total_counters().as_dict() == \
            ref.trace.total_counters().as_dict()

    def test_determinism_same_backend_twice(self, backend,
                                            small_skewed):
        opts = LPOptions(backend=backend)
        _result_equal(label_propagation_cc(small_skewed, opts),
                      label_propagation_cc(small_skewed, opts))


# -- serving-layer canonicalization and attribution ------------------


class _ProxyBackend:
    """A distinct registry entry that delegates every kernel to numpy.

    Stands in for a real alternative backend in environments where the
    optional compiled one is absent: bit-identical by construction, so
    only the *accounting* paths can differ.
    """

    name = "proxy"

    def __getattr__(self, attr):
        return getattr(NUMPY, attr)


@pytest.fixture
def proxy_backend():
    register_backend("proxy", _ProxyBackend())
    yield "proxy"
    _REGISTRY.pop("proxy", None)


class TestServingLayerKeys:
    def test_default_backend_spellings_share_cache_key(self):
        assert ThriftyOptions(backend="numpy") == ThriftyOptions()
        assert UnionFindOptions(backend="numpy") == UnionFindOptions()
        assert ThriftyOptions(backend="numpy").backend is None

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(ValueError, match="available backends"):
            options_for("thrifty", backend="nope")
        with pytest.raises(ValueError, match="available backends"):
            UnionFindOptions(backend="nope")

    def test_backend_feedback_key(self):
        assert backend_feedback_key("thrifty", None) == "thrifty"
        assert backend_feedback_key("thrifty", "numpy") == "thrifty"
        assert backend_feedback_key("thrifty", "numba") == \
            "thrifty@numba"

    def test_non_default_backend_attributed_separately(
            self, proxy_backend, small_skewed):
        svc = CCService()
        # Probe the entry up front: explicit-method traffic feeds the
        # posterior only for probed graphs (see ``_base_predicted``).
        entry = svc.register(small_skewed)
        entry.probes
        default = svc.submit(CCRequest(graph=small_skewed,
                                       method="thrifty"))
        proxied = svc.submit(CCRequest(
            graph=small_skewed, method="thrifty",
            options=ThriftyOptions(backend=proxy_backend)))
        assert np.array_equal(proxied.result.labels,
                              default.result.labels)
        per_method = svc.metrics.per_method
        assert per_method.get("thrifty") == 1
        assert per_method.get("thrifty@proxy") == 1
        # The feedback posterior learned under the split keys too.
        fb = svc.registry.feedback
        fp = svc.registry.register(small_skewed).fingerprint
        machine = svc.machine.name
        assert fb.observations(fp, "thrifty", machine=machine) == 1
        assert fb.observations(fp, "thrifty@proxy",
                               machine=machine) == 1

    def test_backend_split_results_cached_separately(
            self, proxy_backend, small_skewed):
        svc = CCService()
        r1 = svc.submit(CCRequest(graph=small_skewed, method="thrifty"))
        r2 = svc.submit(CCRequest(
            graph=small_skewed, method="thrifty",
            options=ThriftyOptions(backend=proxy_backend)))
        assert not r1.cache_hit and not r2.cache_hit
        # Same options modulo default-backend spelling: a hit.
        r3 = svc.submit(CCRequest(
            graph=small_skewed, method="thrifty",
            options=ThriftyOptions(backend="numpy")))
        assert r3.cache_hit
