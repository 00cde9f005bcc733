"""Graph ingest orders and dedupes edges through one sorted int64 key.

The lexsort bodies that ``CSRGraph.from_edge_list``, the CSR row
normalisation and ``relabel`` used before the key sort are kept here
as oracles; every sort-based site must match them bit for bit
(arrays and dtypes).  The overflow tests pin the key's vertex-count
limit, and the guard checks that ingest and the LP engine never reach
numpy 2.x's hashing ``np.unique``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import connected_components
from repro.analysis.reordering import relabel
from repro.graph import DATASETS, build_graph, build_graph_streamed
from repro.graph.coo import (
    MAX_KEY_VERTICES,
    EdgeList,
    dedup,
    distinct,
    symmetrize,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import extract_giant_component
from repro.graph.generators import rmat_graph, with_dust_components
from repro.graph.mutate import (
    canonical_edge_batch,
    insert_edges,
    remove_edges,
)
from repro.graph.properties import component_labels_reference

# -- oracles: the bodies the key sort replaced ------------------------------


def oracle_from_edge_list(edges: EdgeList) -> tuple[np.ndarray, np.ndarray]:
    n = edges.num_vertices
    order = np.lexsort((edges.dst, edges.src))
    counts = np.bincount(edges.src[order], minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, edges.dst[order].astype(np.int32)


def oracle_normalise(indptr: np.ndarray, indices: np.ndarray
                     ) -> np.ndarray:
    n = indptr.size - 1
    indices = np.asarray(indices, dtype=np.int32)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    return indices[np.lexsort((indices, rows))]


def oracle_relabel(graph: CSRGraph, perm: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    n = graph.num_vertices
    new_deg = np.zeros(n, dtype=np.int64)
    new_deg[perm] = graph.degrees
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_deg, out=indptr[1:])
    new_src = perm[graph.edge_sources()]
    new_dst = perm[graph.indices]
    order = np.lexsort((new_dst, new_src))
    return indptr, new_dst[order].astype(np.int32)


def oracle_giant(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    labels = component_labels_reference(graph)
    keep = np.flatnonzero(labels == np.argmax(np.bincount(labels)))
    remap = np.full(graph.num_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(keep.size, dtype=np.int64)
    degs = graph.degrees[keep]
    indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    idx = np.arange(int(degs.sum()), dtype=np.int64)
    seg = np.searchsorted(indptr[1:], idx, side="right")
    pos = graph.indptr[keep][seg] + (idx - indptr[seg])
    return indptr, remap[graph.indices[pos]].astype(np.int32)


def assert_arrays(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


# -- strategies ---------------------------------------------------------------

int_dtypes = st.sampled_from([np.int32, np.int64])


@st.composite
def edge_lists(draw, max_n: int = 12, max_m: int = 40):
    """Edge lists with duplicates, self-loops and isolated vertices;
    ``n`` may be 0 or 1."""
    n = draw(st.integers(0, max_n))
    m = draw(st.integers(0, max_m)) if n else 0
    ids = st.lists(st.integers(0, max(n - 1, 0)), min_size=m, max_size=m)
    dtype = draw(int_dtypes)
    src = np.array(draw(ids), dtype=dtype)
    dst = np.array(draw(ids), dtype=dtype)
    return EdgeList(src, dst, n)


@st.composite
def raw_csr(draw):
    """An ``(indptr, indices)`` pair whose rows come in any order."""
    n = draw(st.integers(1, 12))
    degs = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degs, out=indptr[1:])
    m = int(indptr[-1])
    indices = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                     max_size=m)), dtype=draw(int_dtypes))
    return indptr, indices


# -- equality sweeps ----------------------------------------------------------


class TestKeySortMatchesLexsort:
    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_from_edge_list(self, edges):
        got = CSRGraph.from_edge_list(edges)
        indptr, indices = oracle_from_edge_list(edges)
        assert_arrays(got.indptr, indptr)
        assert_arrays(got.indices, indices)

    @settings(max_examples=300, deadline=None)
    @given(raw_csr())
    def test_row_normalisation(self, raw):
        indptr, indices = raw
        got = CSRGraph(indptr, indices)
        assert_arrays(got.indptr, indptr)
        assert_arrays(got.indices, oracle_normalise(indptr, indices))

    @settings(max_examples=200, deadline=None)
    @given(edge_lists(), st.randoms(use_true_random=False))
    def test_relabel(self, edges, rnd):
        graph = CSRGraph.from_edge_list(edges)
        order = list(range(graph.num_vertices))
        rnd.shuffle(order)
        perm = np.array(order, dtype=np.int64)
        got, _ = relabel(graph, perm)
        indptr, indices = oracle_relabel(graph, perm)
        assert_arrays(got.indptr, indptr)
        assert_arrays(got.indices, indices)

    @settings(max_examples=300, deadline=None)
    @given(edge_lists())
    def test_dedup_and_symmetrize(self, edges):
        n = max(edges.num_vertices, 1)
        for op, src, dst in (
                (dedup, edges.src, edges.dst),
                (symmetrize, np.concatenate((edges.src, edges.dst)),
                 np.concatenate((edges.dst, edges.src)))):
            got = op(edges)
            keys = np.unique(src * n + dst, return_counts=True)[0]
            np.testing.assert_array_equal(got.src, keys // n)
            np.testing.assert_array_equal(got.dst, keys % n)
            assert got.num_vertices == edges.num_vertices

    @settings(max_examples=150, deadline=None)
    @given(edge_lists(), st.integers(1, 4), st.booleans())
    def test_streamed_matches_build_graph(self, edges, parts, drop):
        cuts = np.linspace(0, edges.num_edges, parts + 1).astype(int)
        chunks = [(edges.src[a:b], edges.dst[a:b])
                  for a, b in zip(cuts[:-1], cuts[1:])]
        got = build_graph_streamed(chunks, edges.num_vertices,
                                   drop_zero_degree=drop)
        want = build_graph(edges, drop_zero_degree=drop)
        assert_arrays(got.indptr, want.indptr)
        assert_arrays(got.indices, want.indices)

    def test_extract_giant_component(self):
        graph = with_dust_components(rmat_graph(9, 6, seed=3), 20, seed=3)
        got = extract_giant_component(graph)
        indptr, indices = oracle_giant(graph)
        assert got.num_vertices < graph.num_vertices
        assert_arrays(got.indptr, indptr)
        assert_arrays(got.indices, indices)


class TestDistinct:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([np.int8, np.uint8, np.int16, np.int32,
                            np.int64, np.uint64]),
           st.lists(st.integers(0, 100), max_size=60))
    def test_matches_np_unique(self, dtype, values):
        arr = np.array(values, dtype=dtype)
        want = np.unique(arr, return_counts=True)[0]
        assert_arrays(distinct(arr), want)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_empty_and_all_duplicates(self, dtype):
        assert_arrays(distinct(np.empty(0, dtype)), np.empty(0, dtype))
        assert_arrays(distinct(np.full(9, 7, dtype)), np.array([7], dtype))

    def test_input_left_unsorted(self):
        arr = np.array([3, 1, 3, 2])
        distinct(arr)
        np.testing.assert_array_equal(arr, [3, 1, 3, 2])


# -- the key's vertex-count limit ------------------------------------------

LIMIT = "edge-key limit"


class TestEdgeKeyLimit:
    def test_limit_is_the_largest_safe_count(self):
        n = MAX_KEY_VERTICES
        assert n * n - 1 <= np.iinfo(np.int64).max
        assert (n + 1) * (n + 1) - 1 > np.iinfo(np.int64).max

    def test_dedup_past_the_limit_raises(self):
        # These keys used to wrap: one input edge came back as the
        # unrelated edge (310651185, 1290448387).
        edges = EdgeList([4_000_000_000, 7], [3, 4_000_000_000],
                         5_000_000_000)
        with pytest.raises(ValueError, match=LIMIT):
            dedup(edges)
        with pytest.raises(ValueError, match=LIMIT):
            edges.is_symmetric()

    def test_dedup_at_the_limit_is_exact(self):
        top = MAX_KEY_VERTICES - 1
        edges = EdgeList([top, 7, top], [3, top, 3], MAX_KEY_VERTICES)
        got = dedup(edges)
        assert list(zip(got.src.tolist(), got.dst.tolist())) \
            == [(7, top), (top, 3)]
        assert not edges.is_symmetric()

    def test_edge_batches_past_the_limit_raise(self):
        graph = CSRGraph.from_edge_list(EdgeList([0, 1], [1, 0], 2))
        big = [4_000_000_000], [4_000_000_001]
        for write in (canonical_edge_batch,
                      lambda s, d: insert_edges(graph, s, d),
                      lambda s, d: remove_edges(graph, s, d)):
            with pytest.raises(ValueError, match=LIMIT):
                write(*big)


# -- ingest and the LP engine never hash ---------------------------------------


def _unique_without_hashing(orig):
    def unique(ar, *args, return_index=False, return_inverse=False,
               return_counts=False, **kwargs):
        if not (args or return_index or return_inverse or return_counts):
            raise AssertionError("hashing np.unique called")
        return orig(ar, *args, return_index=return_index,
                    return_inverse=return_inverse,
                    return_counts=return_counts, **kwargs)
    return unique


class TestNoHashingUnique:
    def test_ingest_and_lp_solves(self, monkeypatch):
        monkeypatch.setattr(np, "unique", _unique_without_hashing(np.unique))
        with pytest.raises(AssertionError, match="hashing"):
            np.unique(np.arange(3))
        for name, spec in DATASETS.items():
            graph = spec.build(0.02)
            if name in ("Twtr", "GBRd", "Pkc"):
                for method in ("thrifty", "dolp"):
                    connected_components(graph, method)
