"""Vectorized traversal kernels shared by DO-LP and Thrifty (facade).

As of the backend redesign this module is a thin dispatching facade
over the *default* kernel backend (see :mod:`repro.core.backends`):
every function forwards to ``get_backend()`` — the canonical
``"numpy"`` backend unless a caller threads an explicit ``backend``
option through the engine, which then holds its own backend object
and never routes through here.  The facade keeps the historical
import surface stable for tests, notebooks and external callers;
implementations live in the backend-private modules and must be
bit-identical across backends.

The kernels are the batch equivalents of the paper's C inner loops:

* :func:`pull_block` — the pull traversal over a contiguous vertex
  block: per-row minimum over neighbour labels.
* :func:`zero_cut_scan_lengths` — exact count of edges a sequential
  scan with the Zero Convergence early-exit (Algorithm 2 line 31)
  would touch.
* :func:`concat_adjacency` — gather the adjacency lists of an
  arbitrary vertex set (push traversals, BFS frontiers).
* :func:`fused_push_window` — speculative fused evaluation of a
  window of push chunks.
* :func:`chunked_cuts` / :func:`push_scan_lengths` — chunk a
  boundary-segmented worklist into ``block_size`` pieces and count
  the atomic-min attempts each chunk performs.

The kernels *compute* with whole-block batches but *account* work in
the counters exactly as the modelled sequential/parallel C loops
would — counters, not NumPy op counts, are the reproduction's ground
truth (DESIGN.md Section 5).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .backends import get_backend

__all__ = [
    "pull_block",
    "pull_block_zero_cut",
    "zero_cut_scan_lengths",
    "concat_adjacency",
    "fused_push_window",
    "chunked_cuts",
    "push_scan_lengths",
    "segment_min",
    "intra_block_groups",
    "block_async_min",
    "blockwise_sums",
]


def blockwise_sums(values: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """Per-block sums ``values[starts[i]:ends[i]]`` via one prefix sum.

    Well-defined for empty blocks (``starts[i] == ends[i]`` sums to
    0); blocks may overlap or be listed in any order.
    """
    return get_backend().blockwise_sums(values, starts, ends)


def segment_min(values: np.ndarray, starts: np.ndarray,
                ends: np.ndarray, fill: np.ndarray) -> np.ndarray:
    """Per-segment minimum of ``values[starts[i]:ends[i]]``.

    Empty segments get ``fill[i]``.  Segments must be non-overlapping
    and ascending (CSR rows always are).
    """
    return get_backend().segment_min(values, starts, ends, fill)


def pull_block(graph: CSRGraph, labels: np.ndarray,
               lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate labels for rows ``[lo, hi)`` from the current array.

    Returns ``(new_labels_block, changed_mask)`` where
    ``new_labels_block[i] = min(labels[lo+i], min of neighbour labels)``.
    Does *not* write; callers decide commit policy (double-buffered for
    DO-LP, in-place for Thrifty).
    """
    return get_backend().pull_block(graph, labels, lo, hi)


def pull_block_zero_cut(graph: CSRGraph, labels: np.ndarray,
                        lo: int, hi: int,
                        skip: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pull_block` plus the Zero-Convergence scan lengths.

    Returns ``(new_labels_block, changed_mask, scan_lengths)`` from one
    gather of the rows' adjacency: the first two equal
    :func:`pull_block`'s, ``scan_lengths`` equals
    :func:`zero_cut_scan_lengths` (Algorithm 2 line 31: skipped rows —
    own label already zero, or ``skip[i]`` — scan nothing, every other
    row stops at its first zero-labelled neighbour).  Labels are
    non-negative, so a row prefix ending at a zero has the whole row's
    minimum: the sequential zero-cut loop yields the same labels.
    """
    return get_backend().pull_block_zero_cut(graph, labels, lo, hi, skip)


def zero_cut_scan_lengths(graph: CSRGraph, labels: np.ndarray,
                          lo: int, hi: int,
                          skip: np.ndarray | None = None) -> np.ndarray:
    """Edges a Zero-Convergence scan of rows ``[lo, hi)`` would touch.

    For each row: 0 if the row is skipped (own label already zero),
    otherwise the 1-based position of its first zero-labelled
    neighbour (the scan breaks there), or the full degree when no
    neighbour is zero.  ``skip`` is the per-row skip mask (default:
    ``labels[lo:hi]==0``).
    """
    return get_backend().zero_cut_scan_lengths(graph, labels, lo, hi,
                                               skip)


def intra_block_groups(graph: CSRGraph, block_bounds: np.ndarray
                       ) -> np.ndarray:
    """Connected components of each block's internal subgraph.

    ``block_bounds`` partitions ``[0, n)`` into contiguous blocks; an
    edge is *internal* when both endpoints fall in the same block.
    Returns ``groups[v]`` = minimum vertex id of v's internal
    component.  Simulation machinery for the Unified Labels Array —
    see the canonical backend's docstring for the full argument.
    """
    return get_backend().intra_block_groups(graph, block_bounds)


def block_async_min(jacobi: np.ndarray, groups_local: np.ndarray
                    ) -> np.ndarray:
    """Propagate one Jacobi step to quiescence within a block.

    The block-asynchronous fixpoint is the group minimum of the
    Jacobi values — every label entering an internal component floods
    it.
    """
    return get_backend().block_async_min(jacobi, groups_local)


def chunked_cuts(boundaries: np.ndarray, block_size: int) -> np.ndarray:
    """Subdivide boundary-delimited segments into ``block_size`` chunks.

    Each segment ``[boundaries[i], boundaries[i+1])`` is cut into
    pieces of at most ``block_size`` starting at the segment's own
    start, so no chunk ever crosses a boundary.  Returns the ascending
    cut offsets; chunk ``i`` is ``[cuts[i], cuts[i+1])``.
    """
    return get_backend().chunked_cuts(boundaries, block_size)


def push_scan_lengths(graph: CSRGraph, active: np.ndarray,
                      starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Atomic-min attempts a push over each chunk
    ``active[starts[i]:ends[i]]`` performs — the sum of the chunk
    rows' degrees (a push scans every incident edge; there is no
    zero-cut on the push side, the early exit lives in the CAS)."""
    return get_backend().push_scan_lengths(graph, active, starts, ends)


def fused_push_window(graph: CSRGraph, read: np.ndarray,
                      write: np.ndarray, rows: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
    """Speculative fused evaluation of a window of push chunks.

    Concatenates the adjacency of ``rows``, gathers each edge's source
    value from ``read``, and marks the edges whose atomic-min against
    ``write`` would succeed on the current snapshot.  Returns
    ``(targets, values, counts, improving)`` with ``counts[i] =
    degree(rows[i])``.  Exact up to and including the *first* chunk
    containing an improving edge (see ``_Engine._push_run``).
    """
    return get_backend().fused_push_window(graph, read, write, rows)


def concat_adjacency(graph: CSRGraph, rows: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the adjacency lists of ``rows``.

    Returns ``(targets, counts)`` where ``targets`` is the
    concatenation of each row's neighbours (row-major order) and
    ``counts[i] = degree(rows[i])``.  Sources repeated per edge are
    ``np.repeat(rows, counts)``.
    """
    return get_backend().concat_adjacency(graph, rows)
