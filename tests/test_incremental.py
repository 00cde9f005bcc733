"""The incremental CC tier: delta maintenance must be bit-identical.

The core property: removing a random subset of a graph's edges, running
any delta-eligible method on the remainder, and delta-inserting the
removed edges back must reproduce — bit for bit — what a from-scratch
run of the same method on the full graph returns.  Swept over the
whole generator zoo for every method in ``DELTA_METHODS``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import graph_from_pairs, graph_zoo
from repro.api import connected_components
from repro.graph import CSRGraph, EdgeList, build_graph, from_pairs
from repro.graph.datasets import DATASETS
from repro.graph.generators import star_graph
from repro.graph.mutate import (canonical_edge_batch, insert_edges,
                                remove_edges)
from repro.incremental import (DELTA_METHODS, PLANTED_METHODS,
                               DeltaIneligible, IncrementalCC,
                               decode_parent, delta_update, hub_stable)


def undirected_pairs(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each undirected edge once, as (lo, hi) with lo < hi."""
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                    np.diff(graph.indptr))
    dst = graph.indices.astype(np.int64)
    mask = src < dst
    return src[mask], dst[mask]


def zoo_seed(zoo_name: str) -> int:
    """A split seed stable across processes (``hash`` of a str is not)."""
    return zlib.crc32(zoo_name.encode())


def split_graph(graph: CSRGraph, seed: int, fraction: float = 0.3,
                min_removed: int = 0
                ) -> tuple[CSRGraph, np.ndarray, np.ndarray]:
    """(base graph, removed src, removed dst): remove a random subset.

    At least ``min_removed`` edges (capped at the edge count) are
    removed, so the tiny zoo graphs still yield a batch to re-insert.
    """
    src, dst = undirected_pairs(graph)
    rng = np.random.default_rng(seed)
    drop = rng.random(src.size) < fraction
    short = min(min_removed, src.size) - int(drop.sum())
    if short > 0:
        drop[rng.choice(np.flatnonzero(~drop), short, replace=False)] = True
    kept = list(zip(src[~drop].tolist(), dst[~drop].tolist()))
    base = build_graph(from_pairs(kept, graph.num_vertices),
                       drop_zero_degree=False)
    return base, src[drop], dst[drop]


class TestEdgeBatches:
    def test_canonical_batch_orders_dedups_drops_loops(self):
        lo, hi = canonical_edge_batch([3, 1, 1, 5, 2], [1, 3, 3, 5, 4])
        assert lo.tolist() == [1, 2]
        assert hi.tolist() == [3, 4]

    def test_insert_filters_present_edges(self, triangle):
        new, lo, hi = insert_edges(triangle, [0, 0], [1, 2])
        assert new is triangle  # every edge already present: no-op
        assert lo.size == 0 and hi.size == 0

    def test_insert_returns_genuinely_new_batch(self, triangle):
        new, lo, hi = insert_edges(triangle, [0, 1], [1, 0])
        assert new is triangle  # duplicates of one existing edge
        g2 = graph_from_pairs([(0, 1), (1, 2), (2, 0), (0, 3)])
        new, lo, hi = insert_edges(g2, [3, 1], [0, 3])
        assert new is not g2
        assert lo.tolist() == [1] and hi.tolist() == [3]

    def test_remove_noop_returns_same_object(self, two_triangles):
        # (0, 3) is in range but not an edge: nothing to remove.
        assert remove_edges(two_triangles, [0], [3]) is two_triangles

    def test_remove_out_of_range_rejected(self, triangle):
        with pytest.raises(ValueError):
            remove_edges(triangle, [0], [5])

    def test_remove_drops_both_directions(self, triangle):
        g = remove_edges(triangle, [1], [0])
        src, dst = undirected_pairs(g)
        assert list(zip(src.tolist(), dst.tolist())) == [(0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# Write path against an oracle: the merge-and-sort rebuild it replaced.
# ---------------------------------------------------------------------------

def oracle_canonical_batch(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique (lo, hi) pairs of a non-negative integer batch."""
    lo = np.minimum(np.asarray(src, np.int64), np.asarray(dst, np.int64))
    hi = np.maximum(np.asarray(src, np.int64), np.asarray(dst, np.int64))
    keep = lo != hi
    pairs = np.unique(np.stack((lo[keep], hi[keep]), axis=1), axis=0)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def oracle_insert_edges(graph: CSRGraph, src, dst):
    """Insert by re-sorting every directed edge: O(m log m) per batch."""
    n = graph.num_vertices
    lo, hi = oracle_canonical_batch(src, dst)
    edges = graph.to_edge_list()
    span = max(n, 1)
    new = ~np.isin(lo * span + hi, edges.src * span + edges.dst)
    lo, hi = lo[new], hi[new]
    if lo.size == 0:
        return graph, lo, hi
    merged = EdgeList(np.concatenate((edges.src, lo, hi)),
                      np.concatenate((edges.dst, hi, lo)), n)
    return CSRGraph.from_edge_list(merged), lo, hi


def oracle_remove_edges(graph: CSRGraph, src, dst) -> CSRGraph:
    """Remove by filtering every directed edge and rebuilding."""
    n = graph.num_vertices
    lo, hi = oracle_canonical_batch(src, dst)
    edges = graph.to_edge_list()
    span = max(n, 1)
    drop = np.isin(edges.src * span + edges.dst,
                   np.concatenate((lo * span + hi, hi * span + lo)))
    if not drop.any():
        return graph
    return CSRGraph.from_edge_list(
        EdgeList(edges.src[~drop], edges.dst[~drop], n))


def assert_same_csr(got: CSRGraph, want: CSRGraph) -> None:
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def assert_same_lineage(got, want) -> None:
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


@st.composite
def graph_and_batch(draw):
    """A small simple graph (isolated vertices and empty rows allowed,
    ``n - 1`` often among them) plus a batch mixing absent pairs,
    present pairs, self-loops and duplicates in both orientations."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    graph = graph_from_pairs(pairs, n)
    present = list(zip(*(a.tolist() for a in undirected_pairs(graph))))
    batch = draw(st.lists(st.tuples(vertex, vertex), max_size=16))
    if present:
        batch += draw(st.lists(st.sampled_from(present), max_size=8))
    if batch:
        batch += [(v, u) for u, v in
                  draw(st.lists(st.sampled_from(batch), max_size=8))]
    src = np.array([u for u, _ in batch], dtype=np.int64)
    dst = np.array([v for _, v in batch], dtype=np.int64)
    return graph, src, dst


class TestWritesMatchOracle:
    @given(graph_and_batch())
    @settings(max_examples=150, deadline=None)
    def test_insert_matches_oracle(self, case):
        graph, src, dst = case
        got, lo, hi = insert_edges(graph, src, dst)
        want, wlo, whi = oracle_insert_edges(graph, src, dst)
        assert (got is graph) == (want is graph)
        assert_same_csr(got, want)
        assert_same_lineage((lo, hi), (wlo, whi))

    @given(graph_and_batch())
    @settings(max_examples=150, deadline=None)
    def test_remove_matches_oracle(self, case):
        graph, src, dst = case
        got = remove_edges(graph, src, dst)
        want = oracle_remove_edges(graph, src, dst)
        assert (got is graph) == (want is graph)
        assert_same_csr(got, want)

    @given(graph_and_batch())
    @settings(max_examples=60, deadline=None)
    def test_all_noop_batches_return_same_object(self, case):
        graph, src, dst = case
        present = np.zeros(src.size, dtype=bool)
        for i, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
            present[i] = u == v or graph.has_edge(u, v)
        new, lo, hi = insert_edges(graph, src[present], dst[present])
        assert new is graph and lo.size == 0 and hi.size == 0
        assert remove_edges(graph, src[~present], dst[~present]) is graph

    @pytest.mark.parametrize("name", ["Pkc", "WWiki", "LJLnks", "LJGrp",
                                      "Twtr10", "GBRd"])
    def test_chained_batches_on_serving_surrogates(self, name):
        graph = want = DATASETS[name].build(0.05)
        n = graph.num_vertices
        rng = np.random.default_rng(zoo_seed(name))
        for step in range(12):
            src, dst = rng.integers(0, n, 64), rng.integers(0, n, 64)
            if step % 4 == 3:  # re-send present edges, both orientations
                have_src, have_dst = undirected_pairs(graph)
                pick = rng.integers(0, have_src.size, 16)
                src[:16], dst[:16] = have_dst[pick], have_src[pick]
            graph, lo, hi = insert_edges(graph, src, dst)
            want, wlo, whi = oracle_insert_edges(want, src, dst)
            assert_same_csr(graph, want)
            assert_same_lineage((lo, hi), (wlo, whi))
            if step % 5 == 4:
                graph = remove_edges(graph, src[::2], dst[::2])
                want = oracle_remove_edges(want, src[::2], dst[::2])
                assert_same_csr(graph, want)


def _boom(*args, **kwargs):
    raise AssertionError("a graph write rebuilt the whole edge list")


class TestWritesAreSortFree:
    def test_no_whole_graph_rebuild(self, monkeypatch):
        graph = dict(graph_zoo())["rmat"]
        svc = CCService()
        parent = svc.register(graph, name="g")
        monkeypatch.setattr(CSRGraph, "from_edge_list", _boom)
        monkeypatch.setattr(CSRGraph, "edge_sources", _boom)
        n = graph.num_vertices
        src, dst = _batch(n, 32, seed=31)
        grown, lo, hi = insert_edges(graph, src, dst)
        assert lo.size > 0
        assert remove_edges(grown, lo, hi).num_edges == graph.num_edges
        child = svc.mutate("g", insert=(src, dst))
        assert child is not parent
        assert svc.mutate("g", remove=(lo, hi)).graph.num_edges \
            == graph.num_edges


class TestEdgeBatchValidation:
    @pytest.fixture
    def served(self, mutating_graph):
        svc = CCService()
        parent = svc.register(mutating_graph, name="g")
        return svc, parent

    @staticmethod
    def assert_unchanged(svc, parent):
        assert svc.registry.get("g") is parent
        assert svc.registry.get(parent.fingerprint) is parent
        assert svc.registry.fingerprint_of(parent.graph) \
            == parent.fingerprint

    @pytest.mark.parametrize("src,dst", [([-2], [-1]), ([0, -1], [1, 2]),
                                         ([3], [-5])])
    def test_negative_ids_rejected(self, served, src, dst):
        svc, parent = served
        with pytest.raises(ValueError, match="negative"):
            canonical_edge_batch(src, dst)
        with pytest.raises(ValueError, match="negative"):
            insert_edges(parent.graph, src, dst)
        with pytest.raises(ValueError, match="negative"):
            remove_edges(parent.graph, src, dst)
        for kind in ("insert", "remove"):
            with pytest.raises(ValueError, match="negative"):
                svc.mutate("g", **{kind: (src, dst)})
            self.assert_unchanged(svc, parent)

    @pytest.mark.parametrize("batch", [
        ([0.7], [2.2]), ([0.0, 1.0], [2, 3]),
        np.array([[0.7, 2.2]]), ([True], [False])])
    def test_non_integer_ids_rejected(self, served, batch):
        svc, parent = served
        src, dst = (batch[:, 0], batch[:, 1]) \
            if isinstance(batch, np.ndarray) else batch
        with pytest.raises(TypeError, match="integers"):
            insert_edges(parent.graph, src, dst)
        with pytest.raises(TypeError, match="integers"):
            remove_edges(parent.graph, src, dst)
        for kind in ("insert", "remove"):
            with pytest.raises(TypeError, match="integers"):
                svc.mutate("g", **{kind: batch})
            self.assert_unchanged(svc, parent)

    def test_empty_batches_are_noops(self, served):
        svc, parent = served
        graph = parent.graph
        for empty in ([], np.array([]), np.empty(0, np.int32)):
            new, lo, hi = insert_edges(graph, empty, empty)
            assert new is graph
            assert lo.dtype == hi.dtype == np.int64 and lo.size == 0
            assert remove_edges(graph, empty, empty) is graph
            assert svc.mutate("g", insert=(empty, empty)) is parent
            assert svc.mutate("g", remove=(empty, empty)) is parent

    def test_unsigned_and_narrow_ints_accepted(self):
        new, lo, hi = insert_edges(
            graph_from_pairs([(0, 1), (1, 2)], 4),
            np.array([3], np.uint8), np.array([0], np.int16))
        assert lo.tolist() == [0] and hi.tolist() == [3]
        assert new.has_edge(3, 0)


class TestDecodeParent:
    def test_jt_is_ineligible(self, triangle):
        labels = connected_components(triangle, method="afforest").labels
        with pytest.raises(DeltaIneligible):
            decode_parent(labels, "jt")

    def test_planted_needs_hub(self, triangle):
        labels = connected_components(triangle, method="thrifty").labels
        with pytest.raises(DeltaIneligible):
            decode_parent(labels, "thrifty")

    def test_non_fixpoint_labels_rejected(self):
        # Not a per-component-minimum assignment: vertex 0 claims
        # label 1 whose representative (vertex 1) carries label 1 but
        # vertex 1's own label maps back fine — break the fixpoint.
        labels = np.array([1, 0, 2], dtype=np.int64)
        with pytest.raises(DeltaIneligible):
            decode_parent(labels, "afforest")

    def test_out_of_range_labels_rejected(self):
        labels = np.array([0, 7, 2], dtype=np.int64)
        with pytest.raises(DeltaIneligible):
            decode_parent(labels, "afforest")


@pytest.mark.parametrize("method", sorted(DELTA_METHODS))
@pytest.mark.parametrize("zoo_name", [name for name, _ in graph_zoo()])
class TestDeltaBitIdentical:
    """The tentpole property, over the zoo x every eligible method."""

    def test_remove_reinsert_matches_fresh_run(self, zoo_name, method):
        full = dict(graph_zoo())[zoo_name]
        base, ins_src, ins_dst = split_graph(
            full, seed=zoo_seed(zoo_name), min_removed=1)
        if ins_src.size == 0:
            pytest.skip("nothing removed from this zoo graph")
        hub = (base.max_degree_vertex()
               if method in PLANTED_METHODS else None)
        if method in PLANTED_METHODS and not hub_stable(full, hub):
            pytest.skip("hub moves across this split: recompute path")
        seed_labels = connected_components(base, method=method).labels
        outcome = delta_update(seed_labels, ins_src, ins_dst,
                               method=method, hub=hub)
        fresh = connected_components(full, method=method).labels
        np.testing.assert_array_equal(outcome.labels, fresh)

    def test_chained_batches_match_fresh_run(self, zoo_name, method):
        full = dict(graph_zoo())[zoo_name]
        base, ins_src, ins_dst = split_graph(
            full, seed=zoo_seed(zoo_name), min_removed=2)
        if ins_src.size < 2:
            pytest.skip("batch too small to chain")
        hub = (base.max_degree_vertex()
               if method in PLANTED_METHODS else None)
        if method in PLANTED_METHODS and not hub_stable(full, hub):
            pytest.skip("hub moves across this split: recompute path")
        labels = connected_components(base, method=method).labels
        cut = ins_src.size // 2
        graph = base
        for s, d in ((ins_src[:cut], ins_dst[:cut]),
                     (ins_src[cut:], ins_dst[cut:])):
            graph, lo, hi = insert_edges(graph, s, d)
            if method in PLANTED_METHODS and not hub_stable(graph, hub):
                pytest.skip("hub moves mid-chain: recompute path")
            labels = delta_update(labels, lo, hi, method=method,
                                  hub=hub).labels
        fresh = connected_components(graph, method=method).labels
        np.testing.assert_array_equal(labels, fresh)


class TestDeltaMechanics:
    def test_no_merge_returns_same_labels_object(self, two_triangles):
        labels = connected_components(two_triangles,
                                      method="afforest").labels
        # An edge inside component {0,1,2}: no merge, zero relabels.
        out = delta_update(labels, [0], [2], method="afforest")
        assert out.labels is labels
        assert out.delta.num_merges == 0
        assert out.delta.relabeled == 0

    def test_merge_reports_absorbed_into(self, two_triangles):
        labels = connected_components(two_triangles,
                                      method="afforest").labels
        out = delta_update(labels, [2], [3], method="afforest")
        assert out.delta.num_merges == 1
        assert out.delta.absorbed.tolist() == [3]
        assert out.delta.into.tolist() == [0]
        assert out.delta.relabeled == 3
        assert np.unique(out.labels).size == 1

    def test_counters_charge_touched_set_work(self, two_triangles):
        labels = connected_components(two_triangles,
                                      method="afforest").labels
        out = delta_update(labels, [2], [3], method="afforest")
        c = out.counters
        assert c.edges_processed == 1
        assert c.label_writes >= out.delta.relabeled
        # Relabel pass is a sequential scan, not a full random re-run.
        assert c.sequential_accesses == 2 * labels.size


class TestIncrementalCC:
    def test_insert_applies_delta(self, two_triangles):
        inc = IncrementalCC(two_triangles, method="afforest")
        assert inc.num_components == 2
        delta = inc.insert([2], [3])
        assert delta is not None and delta.num_merges == 1
        assert inc.num_components == 1
        assert inc.deltas_applied == 1
        assert inc.recomputes == 1  # only the initial run
        fresh = connected_components(inc.graph, method="afforest").labels
        np.testing.assert_array_equal(inc.labels, fresh)

    def test_remove_always_recomputes(self, two_triangles):
        inc = IncrementalCC(two_triangles, method="afforest")
        inc.remove([0], [1])
        assert inc.recomputes == 2
        fresh = connected_components(inc.graph, method="afforest").labels
        np.testing.assert_array_equal(inc.labels, fresh)

    def test_noop_insert_is_free(self, triangle):
        inc = IncrementalCC(triangle, method="afforest")
        delta = inc.insert([0], [1])
        assert delta is not None and delta.num_merges == 0
        assert inc.deltas_applied == 0
        assert inc.recomputes == 1

    def test_planted_hub_move_falls_back_to_recompute(self):
        # Hub is the star center (vertex 5, degree 7, the unique
        # max-degree vertex).  Connecting vertex 0 to every other leaf
        # ties its degree at 7 — and the hub is the *lowest-id*
        # max-degree vertex, so it moves to 0.
        star5 = graph_from_pairs([(5, v) for v in (0, 1, 2, 3, 4, 6, 7)])
        inc = IncrementalCC(star5, method="thrifty")
        assert inc.graph.max_degree_vertex() == 5
        others = np.array([1, 2, 3, 4, 6, 7], dtype=np.int64)
        delta = inc.insert(np.zeros(others.size, dtype=np.int64), others)
        assert delta is None  # hub moved: recomputed
        assert inc.recomputes == 2
        assert inc.graph.max_degree_vertex() == 0
        fresh = connected_components(inc.graph, method="thrifty").labels
        np.testing.assert_array_equal(inc.labels, fresh)

    def test_ineligible_method_rejected(self, triangle):
        with pytest.raises(DeltaIneligible):
            IncrementalCC(triangle, method="jt")


class TestHubStable:
    def test_stable_on_unchanged_star(self):
        star = star_graph(9)
        assert hub_stable(star, star.max_degree_vertex())
        assert not hub_stable(star, 3)


# ---------------------------------------------------------------------------
# Serving-layer integration: registry lineage + delta-served cache misses.
# ---------------------------------------------------------------------------

from repro.graph.generators import rmat_graph, with_dust_components  # noqa: E402
from repro.options import ServiceOptions  # noqa: E402
from repro.service import CCRequest, CCService  # noqa: E402


@pytest.fixture(scope="module")
def mutating_graph() -> CSRGraph:
    return with_dust_components(rmat_graph(9, 6, seed=21), 10, seed=21)


def _batch(n: int, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, k), rng.integers(0, n, k)


class TestRegistryMutate:
    def test_successor_records_insert_lineage(self, mutating_graph):
        svc = CCService()
        parent = svc.register(mutating_graph, name="g")
        src, dst = _batch(mutating_graph.num_vertices, 16, seed=1)
        child = svc.mutate("g", insert=(src, dst))
        assert child.fingerprint != parent.fingerprint
        assert child.parent_fingerprint == parent.fingerprint
        assert child.delta_src is not None and child.delta_src.size > 0
        assert child.version == parent.version + 1
        # The name now resolves to the successor; the predecessor
        # stays addressable by fingerprint.
        assert svc.registry.get("g") is child
        assert svc.registry.get(parent.fingerprint) is parent

    def test_noop_mutation_returns_predecessor(self, mutating_graph):
        svc = CCService()
        parent = svc.register(mutating_graph, name="g")
        src, dst = undirected_pairs(mutating_graph)
        assert svc.mutate("g", insert=(src[:4], dst[:4])) is parent

    def test_removal_breaks_lineage(self, mutating_graph):
        svc = CCService()
        svc.register(mutating_graph, name="g")
        src, dst = undirected_pairs(mutating_graph)
        child = svc.mutate("g", remove=(src[:2], dst[:2]))
        assert child.parent_fingerprint is None
        assert child.delta_src is None

    def test_successor_inherits_probes(self, mutating_graph):
        svc = CCService()
        parent = svc.register(mutating_graph, name="g")
        parent.probes  # force computation
        src, dst = _batch(mutating_graph.num_vertices, 16, seed=2)
        child = svc.mutate("g", insert=(src, dst))
        assert child.probe_computations == 0
        assert child.probes.num_edges == child.graph.num_edges


class TestDeltaServing:
    def test_mutated_repeat_is_delta_served_bit_identical(
            self, mutating_graph):
        svc = CCService()
        svc.register(mutating_graph, name="g")
        r0 = svc.submit(CCRequest(key="g", method="afforest"))
        assert not r0.cache_hit and not r0.delta_hit
        src, dst = _batch(mutating_graph.num_vertices, 24, seed=3)
        entry = svc.mutate("g", insert=(src, dst))
        r1 = svc.submit(CCRequest(key="g", method="afforest"))
        assert r1.delta_hit and not r1.cache_hit
        assert r1.fingerprint == entry.fingerprint
        fresh = connected_components(entry.graph, method="afforest").labels
        np.testing.assert_array_equal(r1.result.labels, fresh)
        # The delta result is cached under the full-run key: repeat
        # requests are plain hits.
        r2 = svc.submit(CCRequest(key="g", method="afforest"))
        assert r2.cache_hit and not r2.delta_hit
        snap = svc.metrics.snapshot()
        assert snap["delta_hits"] == 1
        assert snap["cache_misses"] == 1
        assert snap["effective_hit_rate"] == pytest.approx(2 / 3)

    def test_delta_work_is_less_than_full_run(self, mutating_graph):
        svc = CCService()
        svc.register(mutating_graph, name="g")
        r0 = svc.submit(CCRequest(key="g", method="afforest"))
        src, dst = _batch(mutating_graph.num_vertices, 8, seed=4)
        svc.mutate("g", insert=(src, dst))
        r1 = svc.submit(CCRequest(key="g", method="afforest"))
        assert r1.delta_hit
        assert r1.simulated_ms < r0.simulated_ms
        assert r1.result.extras["delta_chain"] == 1

    def test_chain_of_unqueried_mutations_replays_all_batches(
            self, mutating_graph):
        svc = CCService()
        svc.register(mutating_graph, name="g")
        svc.submit(CCRequest(key="g", method="afforest"))
        for seed in (5, 6, 7):
            src, dst = _batch(mutating_graph.num_vertices, 8, seed=seed)
            svc.mutate("g", insert=(src, dst))
        r = svc.submit(CCRequest(key="g", method="afforest"))
        assert r.delta_hit
        assert r.result.extras["delta_chain"] == 3
        entry = svc.registry.get("g")
        fresh = connected_components(entry.graph, method="afforest").labels
        np.testing.assert_array_equal(r.result.labels, fresh)

    def test_chain_past_bound_recomputes(self, mutating_graph):
        svc = CCService(service_options=ServiceOptions(max_delta_chain=2))
        svc.register(mutating_graph, name="g")
        svc.submit(CCRequest(key="g", method="afforest"))
        for seed in (8, 9, 10):
            src, dst = _batch(mutating_graph.num_vertices, 8, seed=seed)
            svc.mutate("g", insert=(src, dst))
        r = svc.submit(CCRequest(key="g", method="afforest"))
        assert not r.delta_hit  # seed is 3 steps back, bound is 2
        entry = svc.registry.get("g")
        fresh = connected_components(entry.graph, method="afforest").labels
        np.testing.assert_array_equal(r.result.labels, fresh)

    def test_delta_serving_disabled_recomputes(self, mutating_graph):
        svc = CCService(
            service_options=ServiceOptions(delta_serving=False))
        svc.register(mutating_graph, name="g")
        svc.submit(CCRequest(key="g", method="afforest"))
        src, dst = _batch(mutating_graph.num_vertices, 8, seed=11)
        svc.mutate("g", insert=(src, dst))
        r = svc.submit(CCRequest(key="g", method="afforest"))
        assert not r.delta_hit
        assert svc.metrics.delta_hits == 0

    def test_removal_mutation_recomputes(self, mutating_graph):
        svc = CCService()
        svc.register(mutating_graph, name="g")
        svc.submit(CCRequest(key="g", method="afforest"))
        src, dst = undirected_pairs(mutating_graph)
        entry = svc.mutate("g", remove=(src[:3], dst[:3]))
        r = svc.submit(CCRequest(key="g", method="afforest"))
        assert not r.delta_hit
        fresh = connected_components(entry.graph, method="afforest").labels
        np.testing.assert_array_equal(r.result.labels, fresh)

    def test_planted_method_delta_served(self, mutating_graph):
        svc = CCService()
        svc.register(mutating_graph, name="g")
        svc.submit(CCRequest(key="g", method="thrifty"))
        # A batch confined to high vertex ids cannot move an rmat
        # graph's low-id hub.
        n = mutating_graph.num_vertices
        rng = np.random.default_rng(12)
        src = rng.integers(n // 2, n, 16)
        dst = rng.integers(n // 2, n, 16)
        entry = svc.mutate("g", insert=(src, dst))
        assert hub_stable(entry.graph,
                          mutating_graph.max_degree_vertex())
        r = svc.submit(CCRequest(key="g", method="thrifty"))
        assert r.delta_hit
        fresh = connected_components(entry.graph, method="thrifty").labels
        np.testing.assert_array_equal(r.result.labels, fresh)

    def test_ineligible_method_never_delta_served(self, mutating_graph):
        svc = CCService()
        svc.register(mutating_graph, name="g")
        svc.submit(CCRequest(key="g", method="jt"))
        src, dst = _batch(mutating_graph.num_vertices, 8, seed=13)
        svc.mutate("g", insert=(src, dst))
        r = svc.submit(CCRequest(key="g", method="jt"))
        assert not r.delta_hit

    def test_eviction_of_seed_recomputes(self, mutating_graph):
        svc = CCService(cache_capacity=1)
        svc.register(mutating_graph, name="g")
        svc.submit(CCRequest(key="g", method="afforest"))
        src, dst = _batch(mutating_graph.num_vertices, 8, seed=14)
        svc.mutate("g", insert=(src, dst))
        # Fill the 1-slot cache with an unrelated result: the seed
        # entry is evicted, so no delta opportunity remains.
        other = rmat_graph(7, 5, seed=22)
        svc.submit(CCRequest(graph=other, method="afforest"))
        r = svc.submit(CCRequest(key="g", method="afforest"))
        assert not r.delta_hit
        entry = svc.registry.get("g")
        fresh = connected_components(entry.graph, method="afforest").labels
        np.testing.assert_array_equal(r.result.labels, fresh)
