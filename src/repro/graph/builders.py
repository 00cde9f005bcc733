"""End-to-end builders: raw edges -> canonical CSR graph.

The paper removes zero-degree vertices before processing "because of
their destructive effect" (Table II caption); :func:`build_graph`
implements the same normalization pipeline:

    raw edges -> drop self-loops -> symmetrize+dedup
              -> (optionally) drop zero-degree vertices and relabel
              -> CSR
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .coo import (EdgeList, _edge_keys, distinct, remove_self_loops,
                  symmetrize)
from .csr import CSRGraph

__all__ = ["build_graph", "build_graph_streamed", "from_pairs",
           "compact_vertices"]


def from_pairs(pairs: Sequence[tuple[int, int]],
               num_vertices: int | None = None) -> EdgeList:
    """Convenience: build an :class:`EdgeList` from python pairs."""
    if len(pairs) == 0:
        return EdgeList(np.empty(0, np.int64), np.empty(0, np.int64),
                        int(num_vertices or 0))
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (u, v) tuples")
    n = int(num_vertices) if num_vertices is not None else int(arr.max()) + 1
    return EdgeList(arr[:, 0], arr[:, 1], n)


def compact_vertices(edges: EdgeList) -> tuple[EdgeList, np.ndarray]:
    """Drop vertices that appear in no edge; relabel the rest densely.

    Returns the compacted edge list and ``old_ids`` such that
    ``old_ids[new_id] == original vertex id``.
    """
    if edges.num_edges == 0:
        return (EdgeList(edges.src, edges.dst, 0),
                np.empty(0, dtype=np.int64))
    used = np.zeros(edges.num_vertices, dtype=bool)
    used[edges.src] = True
    used[edges.dst] = True
    old_ids = np.flatnonzero(used)
    remap = np.full(edges.num_vertices, -1, dtype=np.int64)
    remap[old_ids] = np.arange(old_ids.size, dtype=np.int64)
    return (EdgeList(remap[edges.src], remap[edges.dst], old_ids.size),
            old_ids)


def build_graph_streamed(chunks,
                         num_vertices: int,
                         *,
                         drop_zero_degree: bool = True) -> CSRGraph:
    """Two-pass streaming CSR construction from edge chunks.

    For inputs too large to materialize as one EdgeList (the paper's
    datasets reach 15.6 B edges), the standard out-of-core recipe is
    two passes over the stream: count the edges, then write their keys
    into a preallocated array that one sort orders and dedupes.
    ``chunks`` is any re-iterable of ``(src, dst)`` array pairs (e.g. a
    generator factory's output consumed twice via a list, or chunked
    reads of a file).

    Normalization matches :func:`build_graph`: self-loops dropped,
    edges symmetrized, duplicates removed, zero-degree vertices
    optionally compacted away.
    """
    chunk_list = list(chunks)
    n = int(num_vertices)
    # Pass 1: validate ids and count the kept half-edges.
    total = 0
    for src, dst in chunk_list:
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        if src.size and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= n):
            raise ValueError("vertex id out of range in chunk")
        total += 2 * int(np.count_nonzero(src != dst))
    # Pass 2: write both directions' edge keys into one preallocated
    # array, then sort and dedup them once.
    keys = np.empty(total, dtype=np.int64)
    at = 0
    for src, dst in chunk_list:
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        keep = src != dst
        for a, b in ((src[keep], dst[keep]), (dst[keep], src[keep])):
            keys[at:at + a.size] = _edge_keys(a, b, n)
            at += a.size
    keys = distinct(keys)
    m = max(n, 1)
    edges = EdgeList(keys // m, keys % m, n)
    if drop_zero_degree:
        edges, _ = compact_vertices(edges)
    return _sorted_csr(edges)


def build_graph(edges: EdgeList,
                *,
                drop_zero_degree: bool = True,
                keep_self_loops: bool = False) -> CSRGraph:
    """Normalize an arbitrary edge list into the canonical CSR form.

    Parameters
    ----------
    drop_zero_degree:
        Remove isolated vertices and relabel, as the paper's datasets do.
    keep_self_loops:
        Self-loops are dropped by default; they carry no connectivity.
    """
    if not keep_self_loops:
        edges = remove_self_loops(edges)
    edges = symmetrize(edges)
    if drop_zero_degree:
        edges, _ = compact_vertices(edges)
    return _sorted_csr(edges)


def _sorted_csr(edges: EdgeList) -> CSRGraph:
    """CSR of edges already sorted by (src, dst), as ``symmetrize``
    returns them and ``compact_vertices``' order-preserving relabel
    keeps them, without sorting them again."""
    n = edges.num_vertices
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges.src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, edges.dst)
