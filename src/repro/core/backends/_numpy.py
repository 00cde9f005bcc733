"""Canonical numpy kernel implementations (backend-private).

This module is backend-private: use it through
:func:`repro.core.backends.get_backend`.  The set of modules is an
implementation detail of the registry: compiled backends subclass
:class:`NumpyBackend` and must stay free to reorganize these files.

The kernels are the batch equivalents of the paper's C inner loops:

* :meth:`NumpyBackend.pull_block` — the pull traversal over a
  contiguous vertex block: per-row minimum over neighbour labels
  (``minimum.reduceat`` over the CSR slice).
* :meth:`NumpyBackend.pull_block_zero_cut` — the same, plus the exact
  count of edges a sequential scan with the Zero Convergence
  early-exit (Algorithm 2 line 31) would touch: the position of each
  row's first zero-labelled neighbour, found with one ``flatnonzero``
  + ``searchsorted``.
* :meth:`NumpyBackend.concat_adjacency` — gather the adjacency lists
  of an arbitrary vertex set (push traversals, BFS frontiers).
* :meth:`NumpyBackend.batch_atomic_min` /
  :meth:`NumpyBackend.scatter_min_count` — the linearized batch
  atomic-min scatter shared by the push engine and the union-find
  hooks (the linearizability argument is on :func:`batch_atomic_min`).

The kernels *compute* with whole-block batches but *account* work in
the counters exactly as the modelled sequential/parallel C loops
would — counters, not NumPy op counts, are the reproduction's ground
truth (DESIGN.md Section 5).  Every other backend must be
bit-identical to this one: labels, changed masks, scan lengths,
counters and traces (the conformance suite in
``tests/test_backend_conformance.py`` enforces it).
"""

from __future__ import annotations

import numpy as np

from ...graph.coo import distinct
from ...graph.csr import CSRGraph

_INT64_MAX = np.iinfo(np.int64).max


def blockwise_sums(values: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """Per-block sums ``values[starts[i]:ends[i]]`` via one prefix sum.

    Unlike ``np.add.reduceat`` this is well-defined for empty blocks
    (``starts[i] == ends[i]`` sums to 0), which the engine's block
    metadata produces for empty partitions.  Blocks may overlap or be
    listed in any order; only ``starts <= ends`` is required.
    """
    cum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return cum[ends] - cum[starts]


def segment_min(values: np.ndarray, starts: np.ndarray,
                ends: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Per-segment minimum of ``values[starts[i]:ends[i]]``.

    Empty segments get ``fill[i]``.  Segments must be non-overlapping
    and ascending (CSR rows always are).
    """
    out = np.asarray(fill).copy()
    nonempty = ends > starts
    if not nonempty.any():
        return out
    s = starts[nonempty]
    mins = np.minimum.reduceat(values, s)
    # reduceat's segment i ends at the next start; CSR rows are
    # contiguous (ends[i] == starts[i+1] for adjacent rows), and any
    # gap rows were empty, so the tail beyond ends[i] belongs to later
    # segments only when rows are contiguous — which they are here.
    out[nonempty] = np.minimum(out[nonempty], mins)
    return out


def pull_block(graph: CSRGraph, labels: np.ndarray,
               lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate labels for rows ``[lo, hi)`` from the current array.

    Returns ``(new_labels_block, changed_mask)`` where
    ``new_labels_block[i] = min(labels[lo+i], min of neighbour labels)``.
    Does *not* write; callers decide commit policy (double-buffered for
    DO-LP, in-place for Thrifty).
    """
    if hi <= lo:
        empty = np.empty(0, dtype=labels.dtype)
        return empty, np.empty(0, dtype=bool)
    s0 = int(graph.indptr[lo])
    s1 = int(graph.indptr[hi])
    own = labels[lo:hi]
    if s1 == s0:
        return own.copy(), np.zeros(hi - lo, dtype=bool)
    nbr_labels = labels[graph.indices[s0:s1]]
    starts = (graph.indptr[lo:hi] - s0).astype(np.int64)
    ends = (graph.indptr[lo + 1:hi + 1] - s0).astype(np.int64)
    new = segment_min(nbr_labels, starts, ends, own)
    return new, new < own


def pull_block_zero_cut(graph: CSRGraph, labels: np.ndarray,
                        lo: int, hi: int,
                        skip: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pull_block` plus the Zero-Convergence scan lengths.

    One gather of the rows' full adjacency yields both: the new labels
    and changed mask are exactly :func:`pull_block`'s, and the per-row
    scan lengths are the edges a Zero-Convergence scan would touch
    (Algorithm 2 line 31): 0 for a skipped row — own label already
    zero (the default ``skip``), or ``skip[i]`` — otherwise the
    1-based position of the row's first zero-labelled neighbour, or
    its degree when it has none.  Labels are non-negative, so a row
    prefix ending at a zero has the same minimum as the whole row:
    the sequential zero-cut loop computes the same minima.

    Returns ``(new_labels_block, changed_mask, scan_lengths)``.  Does
    not write; callers decide commit policy.
    """
    if hi <= lo:
        empty = np.empty(0, dtype=labels.dtype)
        return empty, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    own = labels[lo:hi]
    if skip is None:
        skip = own == 0
    s0 = int(graph.indptr[lo])
    s1 = int(graph.indptr[hi])
    if s1 == s0:
        return (own.copy(), np.zeros(hi - lo, dtype=bool),
                np.zeros(hi - lo, dtype=np.int64))
    nbr_labels = labels[graph.indices[s0:s1]]
    starts = (graph.indptr[lo:hi] - s0).astype(np.int64)
    ends = (graph.indptr[lo + 1:hi + 1] - s0).astype(np.int64)
    new = segment_min(nbr_labels, starts, ends, own)
    return new, new < own, _zero_cut_lengths(nbr_labels, starts, ends,
                                             skip)


def _zero_cut_lengths(nbr_labels: np.ndarray, starts: np.ndarray,
                      ends: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Per-row zero-cut scan lengths over gathered neighbour labels:
    one ``flatnonzero`` for the zeros, one ``searchsorted`` per row."""
    scanned = ends - starts
    zero_pos = np.flatnonzero(nbr_labels == 0)
    if zero_pos.size:
        k = np.searchsorted(zero_pos, starts, side="left")
        first = zero_pos[np.minimum(k, zero_pos.size - 1)]
        has_zero = (k < zero_pos.size) & (first < ends)
        scanned = np.where(has_zero, first - starts + 1, scanned)
    return np.where(skip, 0, scanned)


def intra_block_groups(graph: CSRGraph, block_bounds: np.ndarray
                       ) -> np.ndarray:
    """Connected components of each block's internal subgraph.

    ``block_bounds`` partitions ``[0, n)`` into contiguous blocks;
    an edge is *internal* when both endpoints fall in the same block.
    Returns ``groups[v]`` = minimum vertex id of v's internal
    component (so ``groups[v] == v`` for singleton/boundary-only
    vertices).

    This is simulation machinery for the Unified Labels Array: a real
    thread sweeps its range vertex-by-vertex reading freshly-written
    labels, so a label entering a block propagates through the block's
    internal subgraph within the same iteration.  The engine models
    that as one group-min per block per pull ("block-asynchronous"
    execution); the groups are static, so they are computed once here
    by pointer-jumping CC over intra-block edges only.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)
    if n == 0 or graph.num_edges == 0:
        return parent
    src = graph.edge_sources()
    dst = graph.indices.astype(np.int64)
    block_of = np.searchsorted(block_bounds, np.arange(n), side="right")
    same = block_of[src] == block_of[dst]
    eu, ev = src[same], dst[same]
    while eu.size:
        # Resolve roots, keep only cross-component edges, link to min.
        while True:
            nxt = parent[parent]
            if np.array_equal(nxt, parent):
                break
            parent = nxt
        ru, rv = parent[eu], parent[ev]
        cross = ru != rv
        eu, ev, ru, rv = eu[cross], ev[cross], ru[cross], rv[cross]
        if eu.size == 0:
            break
        lo = np.minimum(ru, rv)
        hi = np.maximum(ru, rv)
        np.minimum.at(parent, hi, lo)
    while True:
        nxt = parent[parent]
        if np.array_equal(nxt, parent):
            return parent
        parent = nxt


def block_async_min(jacobi: np.ndarray, groups_local: np.ndarray
                    ) -> np.ndarray:
    """Propagate one Jacobi step to quiescence within a block.

    ``jacobi`` holds each row's one-step min (own + neighbour
    snapshot); ``groups_local`` the 0-based internal-component id of
    each row.  The block-asynchronous fixpoint is simply the group
    minimum of the Jacobi values — every label entering an internal
    component floods it.
    """
    tmp = np.full(jacobi.size, _INT64_MAX, dtype=np.int64)
    np.minimum.at(tmp, groups_local, jacobi)
    return np.minimum(jacobi, tmp[groups_local])


def chunked_cuts(boundaries: np.ndarray, block_size: int) -> np.ndarray:
    """Subdivide boundary-delimited segments into ``block_size`` chunks.

    ``boundaries`` is a strictly-increasing array of offsets; each
    segment ``[boundaries[i], boundaries[i+1])`` is cut into pieces of
    at most ``block_size`` starting at the segment's own start, so no
    chunk ever crosses a boundary.  Returns the ascending cut offsets,
    from ``boundaries[0]`` to ``boundaries[-1]`` inclusive: chunk ``i``
    is ``[cuts[i], cuts[i+1])``.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    seg = np.diff(boundaries)
    if np.any(seg <= 0):
        raise ValueError("boundaries must be strictly increasing")
    nchunks = (seg + block_size - 1) // block_size
    total = int(nchunks.sum())
    base = np.repeat(boundaries[:-1], nchunks)
    first = np.repeat(np.cumsum(nchunks) - nchunks, nchunks)
    offs = (np.arange(total, dtype=np.int64) - first) * block_size
    return np.concatenate([base + offs, boundaries[-1:]])


def concat_adjacency(graph: CSRGraph, rows: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the adjacency lists of ``rows``.

    Returns ``(targets, counts)`` where ``targets`` is the
    concatenation of each row's neighbours (row-major order) and
    ``counts[i] = degree(rows[i])``.  Sources repeated per edge are
    ``np.repeat(rows, counts)``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    counts = graph.degrees[rows]
    if (rows.size and rows[-1] - rows[0] + 1 == rows.size
            and np.all(np.diff(rows) == 1)):
        # Consecutive rows (a full frontier) are one slice of indices.
        lo, hi = graph.indptr[rows[0]], graph.indptr[rows[-1] + 1]
        return graph.indices[lo:hi].copy(), counts.astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return (np.empty(0, dtype=graph.indices.dtype),
                counts.astype(np.int64))
    offsets = np.zeros(rows.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    # Edge k of row i sits at indptr[rows[i]] + (k - offsets[i]): one
    # repeat of the per-row shift, no per-edge row search.
    pos = (np.repeat(graph.indptr[rows] - offsets, counts)
           + np.arange(total, dtype=np.int64))
    return graph.indices[pos], counts.astype(np.int64)


def batch_atomic_min(array: np.ndarray,
                     indices: np.ndarray,
                     values: np.ndarray) -> np.ndarray:
    """Linearized batch of concurrent atomic-min operations.

    Applies ``array[indices[k]] = min(array[indices[k]], values[k])``
    for all k as one unbuffered scatter, then returns the *unique*
    target indices whose cells actually changed (ascending).  This
    matches the set of vertices any real interleaving of CAS-min
    loops would enqueue (modulo duplicates, which the paper's shared
    byte array also only suppresses best-effort): ``np.minimum.at``
    is an unbuffered scatter-min, the linearized effect of a batch of
    CAS-min loops (Algorithm 1, line 13), and the *set* of changed
    cells is interleaving-independent.
    """
    indices = np.asarray(indices)
    values = np.asarray(values)
    if indices.shape != values.shape:
        raise ValueError("indices and values must have equal shapes")
    if indices.size == 0:
        return np.empty(0, dtype=np.int64)
    targets = distinct(indices)
    before = array[targets].copy()
    np.minimum.at(array, indices, values)
    return targets[array[targets] < before].astype(np.int64)


def scatter_min_count(array: np.ndarray,
                      indices: np.ndarray,
                      values: np.ndarray) -> int:
    """Scatter-min that counts *slots* whose cell decreased.

    Unlike :func:`batch_atomic_min` (which reports unique changed
    cells), this counts one success per input slot whose cell ended
    below that slot's pre-batch snapshot — the convention the
    union-find hooks use to charge one link per winning CAS attempt
    (``disjoint_set.link_roots``).  Duplicated indices therefore may
    count more than once, exactly as the per-slot replay would.
    """
    indices = np.asarray(indices)
    values = np.asarray(values)
    if indices.size == 0:
        return 0
    before = array[indices].copy()
    np.minimum.at(array, indices, values)
    return int(np.count_nonzero(array[indices] < before))


class NumpyBackend:
    """The canonical kernel backend: pure-numpy batch kernels.

    Every registered backend must be bit-identical to this one on all
    outputs (labels, masks, scan lengths, counts).  Compiled backends
    subclass it and override the hot kernels, inheriting the
    structural helpers (``chunked_cuts``, ``intra_block_groups``)
    that run once per graph and never dominate.
    """

    name = "numpy"

    blockwise_sums = staticmethod(blockwise_sums)
    segment_min = staticmethod(segment_min)
    pull_block = staticmethod(pull_block)
    pull_block_zero_cut = staticmethod(pull_block_zero_cut)
    intra_block_groups = staticmethod(intra_block_groups)
    block_async_min = staticmethod(block_async_min)
    chunked_cuts = staticmethod(chunked_cuts)
    concat_adjacency = staticmethod(concat_adjacency)
    batch_atomic_min = staticmethod(batch_atomic_min)
    scatter_min_count = staticmethod(scatter_min_count)
