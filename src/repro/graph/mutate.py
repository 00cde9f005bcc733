"""Graph mutation helpers: batched edge insertion / removal on CSR.

:class:`~repro.graph.csr.CSRGraph` is immutable by design — every
consumer (kernels, caches, fingerprints) relies on the arrays never
changing under it.  Mutation therefore means *building a new graph*:
these helpers take a graph plus an undirected edge batch and return
the successor graph, along with the canonical batch that actually
changed the structure (deduplicated, self-loops dropped, already-
present edges filtered out).  The canonical batch is what the
incremental CC tier records as delta lineage: replaying exactly those
edges on the predecessor's labels reproduces the successor's
components.

Cost shape: adjacency lists are sorted (the CSR invariant), so each of
a batch's ``b`` undirected pairs has one sorted slot per direction,
found by a vectorized bisection inside its row — ``O(b log d_max)``.
The successor's arrays are then one ``np.insert`` / ``np.delete`` copy
of ``indices`` plus an ``indptr`` shift: ``O(m)`` memory traffic, no
edge-key materialization and no sort over ``m``.
"""

from __future__ import annotations

import numpy as np

from .coo import _edge_keys, distinct
from .csr import CSRGraph

__all__ = ["canonical_edge_batch", "insert_edges", "remove_edges"]


def _endpoints(ids) -> np.ndarray:
    """One side of an edge batch as int64, rejecting non-integer ids."""
    arr = np.asarray(ids).ravel()
    # An empty batch passes whatever its dtype: ``np.asarray([])`` is
    # float64.
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(
            f"edge endpoints must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def canonical_edge_batch(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an undirected edge batch to sorted unique (lo, hi) pairs.

    Drops self-loops and duplicate pairs (in either orientation).
    Returns int64 arrays with ``src < dst``, sorted lexicographically —
    a canonical form, so equal batches compare equal element-wise.
    Non-integer endpoints raise ``TypeError`` and negative ones
    ``ValueError``: neither is ever truncated or wrapped into range.
    So does an id at or above :data:`~repro.graph.coo.MAX_KEY_VERTICES`,
    whose pair keys would wrap int64.
    """
    src, dst = _endpoints(src), _endpoints(dst)
    if src.shape != dst.shape:
        raise ValueError("edge batch src/dst lengths differ")
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if lo.size and int(lo.min()) < 0:
        raise ValueError("negative vertex id in edge batch")
    keep = lo != hi
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return lo, hi
    span = int(hi.max()) + 1
    keys = distinct(_edge_keys(lo, hi, span))
    return keys // span, keys % span


def _check_range(graph: CSRGraph, hi: np.ndarray) -> None:
    n = graph.num_vertices
    if hi.size and int(hi.max()) >= n:
        raise ValueError(f"edge endpoint out of range for num_vertices={n}")


def _find_slots(graph: CSRGraph, src: np.ndarray, dst: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted slot of each directed pair ``(src[i], dst[i])`` in ``indices``.

    Returns ``(slots, found)``: ``slots[i]`` is the first position in
    row ``src[i]`` whose neighbour is ``>= dst[i]`` (where ``dst[i]``
    sits or would be inserted), and ``found[i]`` says whether it is
    already there.  One lock-step bisection over every pair's row
    range: ``ceil(log2(d_max + 1))`` vectorized steps.
    """
    indptr, indices = graph.indptr, graph.indices
    lo, end = indptr[src], indptr[src + 1]
    hi = end
    active = lo < hi
    while active.any():
        mid = (lo + hi) >> 1
        right = active & (indices[np.where(active, mid, 0)] < dst)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(active & ~right, mid, hi)
        active = lo < hi
    found = lo < end
    found[found] = indices[lo[found]] == dst[found]
    return lo, found


def _shifted_indptr(graph: CSRGraph, rows: np.ndarray,
                    sign: int) -> np.ndarray:
    """``indptr`` after adding (``sign=1``) or dropping one slot per row id."""
    shift = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=graph.num_vertices),
              out=shift[1:])
    return graph.indptr + sign * shift


def insert_edges(graph: CSRGraph, src, dst
                 ) -> tuple[CSRGraph, np.ndarray, np.ndarray]:
    """Insert an undirected edge batch; returns the successor graph.

    Returns ``(new_graph, ins_src, ins_dst)`` where the two arrays are
    the canonical batch of edges that were genuinely new (absent from
    ``graph``); edges already present are filtered out.  Vertex ids
    must be in range — mutation never grows the vertex set.  When
    nothing is new, the *same* graph object is returned with empty
    batch arrays.
    """
    lo, hi = canonical_edge_batch(src, dst)
    _check_range(graph, hi)
    _, found = _find_slots(graph, lo, hi)
    lo, hi = lo[~found], hi[~found]
    if lo.size == 0:
        return graph, lo, hi
    # Half-edges sharing a slot (same row, adjacent new neighbours)
    # must land in ascending order: np.insert keeps ties in the order
    # given, so give them sorted by (src, dst).
    n = graph.num_vertices
    keys = np.sort(_edge_keys(np.concatenate((lo, hi)),
                              np.concatenate((hi, lo)), n))
    add_src, add_dst = keys // n, keys % n
    slots, _ = _find_slots(graph, add_src, add_dst)
    indices = np.insert(graph.indices, slots, add_dst)
    return CSRGraph(_shifted_indptr(graph, add_src, 1), indices), lo, hi


def remove_edges(graph: CSRGraph, src, dst) -> CSRGraph:
    """Remove an undirected edge batch; returns the successor graph.

    Edges not present are ignored, and a batch that removes nothing
    returns the same graph object.  Removal can split components, so
    the incremental tier records no delta lineage for it — successors
    built here are served by full recompute (the planner's fallback).
    """
    lo, hi = canonical_edge_batch(src, dst)
    _check_range(graph, hi)
    rows = np.concatenate((lo, hi))
    slots, found = _find_slots(graph, rows, np.concatenate((hi, lo)))
    if not found.any():
        return graph
    indices = np.delete(graph.indices, slots[found])
    return CSRGraph(_shifted_indptr(graph, rows[found], -1), indices)
