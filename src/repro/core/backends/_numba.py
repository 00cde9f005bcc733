"""Optional numba-compiled kernel backend (backend-private).

Import through :func:`repro.core.backends.get_backend("numba")`; the
registry only loads this module when :mod:`numba` imports cleanly, so
the rest of the repo never depends on it.

Each hot kernel is the *same sequential loop the paper's C code runs*,
JIT-compiled: where the numpy backend reconstructs the loop's effect
from batch primitives (``reduceat``, ``searchsorted``,
``minimum.at``), these kernels just run it.  Outputs are bit-identical
by construction — the loops are the specification the numpy kernels
were derived from — and the conformance suite
(``tests/test_backend_conformance.py``) plus the backend-parametrized
property sweeps enforce it.

Design rules keeping the two backends in lockstep:

* dtype-sensitive allocation happens in the Python wrappers with
  numpy (``labels.dtype``, ``graph.indices.dtype``), so output dtypes
  cannot drift from the canonical backend; the ``@njit`` functions
  only fill preallocated arrays or return scalars.
* every edge-case early return (empty block, edgeless slice) is the
  numpy wrapper's own, copied verbatim.
* compilation is lazy per dtype signature (no eager ``signature=``),
  so importing this module is cheap and first use pays the JIT cost
  once per process.
"""

from __future__ import annotations

import numpy as np
from numba import njit

from ...graph.csr import CSRGraph
from ._numpy import NumpyBackend

_INT64_MAX = np.iinfo(np.int64).max


@njit(cache=True, nogil=True)
def _fill_blockwise_sums(values, starts, ends, out):
    cum = np.empty(values.size + 1, dtype=np.int64)
    cum[0] = 0
    for i in range(values.size):
        cum[i + 1] = cum[i] + values[i]
    for i in range(starts.size):
        out[i] = cum[ends[i]] - cum[starts[i]]


@njit(cache=True, nogil=True)
def _fill_segment_min(values, starts, ends, out):
    for i in range(starts.size):
        m = out[i]
        for j in range(starts[i], ends[i]):
            v = values[j]
            if v < m:
                m = v
        out[i] = m


@njit(cache=True, nogil=True)
def _fill_pull_block(indptr, indices, labels, lo, hi, new, changed):
    for i in range(hi - lo):
        row = lo + i
        m = labels[row]
        for p in range(indptr[row], indptr[row + 1]):
            v = labels[indices[p]]
            if v < m:
                m = v
        new[i] = m
        changed[i] = m < labels[row]


@njit(cache=True, nogil=True)
def _fill_pull_zero_cut(indptr, indices, labels, lo, hi, skip,
                        new, changed, scanned):
    # The sequential Zero-Convergence scan itself (Algorithm 2 line
    # 31): break at the first zero-labelled neighbour, counting it.
    # Labels are non-negative, so the minimum up to that zero is the
    # whole row's; a skipped row still yields its minimum but scans 0.
    for i in range(hi - lo):
        row = lo + i
        own = labels[row]
        m = own
        cnt = np.int64(0)
        for p in range(indptr[row], indptr[row + 1]):
            cnt += 1
            v = labels[indices[p]]
            if v < m:
                m = v
            if v == 0:
                break
        new[i] = m
        changed[i] = m < own
        scanned[i] = 0 if skip[i] else cnt


@njit(cache=True, nogil=True)
def _fill_concat_adjacency(indptr, indices, rows, offsets, targets):
    for i in range(rows.size):
        row = rows[i]
        base = offsets[i]
        start = indptr[row]
        for k in range(indptr[row + 1] - start):
            targets[base + k] = indices[start + k]


@njit(cache=True, nogil=True)
def _scatter_min(array, indices, values):
    for k in range(indices.size):
        i = indices[k]
        v = values[k]
        if v < array[i]:
            array[i] = v


@njit(cache=True, nogil=True)
def _scatter_min_count_slots(array, indices, values):
    before = np.empty(indices.size, dtype=array.dtype)
    for k in range(indices.size):
        before[k] = array[indices[k]]
    for k in range(indices.size):
        i = indices[k]
        v = values[k]
        if v < array[i]:
            array[i] = v
    count = 0
    for k in range(indices.size):
        if array[indices[k]] < before[k]:
            count += 1
    return count


@njit(cache=True, nogil=True)
def _fill_block_async_min(jacobi, groups_local, out):
    tmp = np.full(jacobi.size, _INT64_MAX, dtype=np.int64)
    for i in range(jacobi.size):
        g = groups_local[i]
        if jacobi[i] < tmp[g]:
            tmp[g] = jacobi[i]
    for i in range(jacobi.size):
        m = tmp[groups_local[i]]
        out[i] = m if m < jacobi[i] else jacobi[i]


def blockwise_sums(values: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    out = np.empty(np.asarray(starts).size, dtype=np.int64)
    _fill_blockwise_sums(np.ascontiguousarray(values),
                         np.ascontiguousarray(starts),
                         np.ascontiguousarray(ends), out)
    return out


def segment_min(values: np.ndarray, starts: np.ndarray,
                ends: np.ndarray, fill: np.ndarray) -> np.ndarray:
    out = np.asarray(fill).copy()
    if out.size == 0:
        return out
    _fill_segment_min(np.ascontiguousarray(values),
                      np.ascontiguousarray(starts),
                      np.ascontiguousarray(ends), out)
    return out


def pull_block(graph: CSRGraph, labels: np.ndarray,
               lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    if hi <= lo:
        empty = np.empty(0, dtype=labels.dtype)
        return empty, np.empty(0, dtype=bool)
    if int(graph.indptr[hi]) == int(graph.indptr[lo]):
        return labels[lo:hi].copy(), np.zeros(hi - lo, dtype=bool)
    new = np.empty(hi - lo, dtype=labels.dtype)
    changed = np.empty(hi - lo, dtype=bool)
    _fill_pull_block(graph.indptr, graph.indices, labels,
                     np.int64(lo), np.int64(hi), new, changed)
    return new, changed


def pull_block_zero_cut(graph: CSRGraph, labels: np.ndarray,
                        lo: int, hi: int,
                        skip: np.ndarray | None = None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if hi <= lo:
        empty = np.empty(0, dtype=labels.dtype)
        return empty, np.empty(0, dtype=bool), np.empty(0, dtype=np.int64)
    if skip is None:
        skip = labels[lo:hi] == 0
    new = np.empty(hi - lo, dtype=labels.dtype)
    changed = np.empty(hi - lo, dtype=bool)
    scanned = np.empty(hi - lo, dtype=np.int64)
    _fill_pull_zero_cut(graph.indptr, graph.indices, labels,
                        np.int64(lo), np.int64(hi),
                        np.ascontiguousarray(skip), new, changed, scanned)
    return new, changed, scanned


def concat_adjacency(graph: CSRGraph, rows: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    counts = graph.degrees[rows].astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=graph.indices.dtype), counts
    offsets = np.zeros(rows.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    targets = np.empty(total, dtype=graph.indices.dtype)
    _fill_concat_adjacency(graph.indptr, graph.indices, rows, offsets,
                           targets)
    return targets, counts


def block_async_min(jacobi: np.ndarray, groups_local: np.ndarray
                    ) -> np.ndarray:
    out = np.empty(jacobi.size, dtype=jacobi.dtype)
    _fill_block_async_min(np.ascontiguousarray(jacobi),
                          np.ascontiguousarray(groups_local), out)
    return out


def batch_atomic_min(array: np.ndarray,
                     indices: np.ndarray,
                     values: np.ndarray) -> np.ndarray:
    indices = np.asarray(indices)
    values = np.asarray(values)
    if indices.shape != values.shape:
        raise ValueError("indices and values must have equal shapes")
    if indices.size == 0:
        return np.empty(0, dtype=np.int64)
    targets = np.unique(indices)
    before = array[targets].copy()
    _scatter_min(array, np.ascontiguousarray(indices),
                 np.ascontiguousarray(values))
    return targets[array[targets] < before].astype(np.int64)


def scatter_min_count(array: np.ndarray,
                      indices: np.ndarray,
                      values: np.ndarray) -> int:
    indices = np.asarray(indices)
    values = np.asarray(values)
    if indices.size == 0:
        return 0
    return int(_scatter_min_count_slots(array,
                                        np.ascontiguousarray(indices),
                                        np.ascontiguousarray(values)))


class NumbaBackend(NumpyBackend):
    """JIT-compiled backend: the paper's sequential loops, compiled.

    Inherits the structural helpers (``chunked_cuts``,
    ``intra_block_groups``) from the canonical backend — they run
    once per graph and are not worth compiling.
    """

    name = "numba"

    blockwise_sums = staticmethod(blockwise_sums)
    segment_min = staticmethod(segment_min)
    pull_block = staticmethod(pull_block)
    pull_block_zero_cut = staticmethod(pull_block_zero_cut)
    block_async_min = staticmethod(block_async_min)
    concat_adjacency = staticmethod(concat_adjacency)
    batch_atomic_min = staticmethod(batch_atomic_min)
    scatter_min_count = staticmethod(scatter_min_count)
