"""Compressed Sparse Row graph representation.

Matches the paper's storage convention (Section V-A): ``|V|+1`` index
values (here int64, the paper uses 8 bytes) and ``|E|`` neighbour ids
(int32 when the graph fits, as in the paper's 4-byte neighbour ids).
Each undirected edge appears twice, once per direction, which is what
lets both push and pull traversals follow edges in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coo import EdgeList, _edge_keys

__all__ = ["CSRGraph"]


@dataclass(frozen=True)
class CSRGraph:
    """Immutable undirected graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; neighbours of
        vertex ``v`` live in ``indices[indptr[v]:indptr[v+1]]``.
    indices:
        Neighbour ids, sorted within each vertex's adjacency list.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0:
            raise ValueError("indptr must be a non-empty 1-D array")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = indptr.size - 1
        dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        indices = np.ascontiguousarray(self.indices, dtype=dtype)
        if indices.ndim != 1:
            raise ValueError("indices must be a 1-D array")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1]={indptr[-1]} but indices has {indices.size} entries"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbour id out of range")
        # Invariant: adjacency lists are sorted (binary-search lookups,
        # reduceat segments).  Normalize builders that deliver rows in
        # arbitrary order.
        if indices.size:
            row_start = np.zeros(indices.size, dtype=bool)
            row_start[indptr[:-1][indptr[:-1] < indices.size]] = True
            unsorted = (~row_start[1:]) & (indices[1:] < indices[:-1])
            if unsorted.any():
                rows = np.repeat(np.arange(n, dtype=np.int64),
                                 np.diff(indptr))
                keys = np.sort(_edge_keys(rows, indices, n))
                indices = (keys % n).astype(dtype)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)

    # -- basic shape ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Directed edge count (= 2x undirected edges for simple graphs)."""
        return int(self.indices.size)

    @property
    def num_undirected_edges(self) -> int:
        return self.num_edges // 2

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (== degree for symmetric graphs).

        Computed once and cached; hot paths (frontier bookkeeping,
        adjacency gathers) read it per iteration.
        """
        cached = self.__dict__.get("_degrees")
        if cached is None:
            cached = np.diff(self.indptr)
            cached.flags.writeable = False
            object.__setattr__(self, "_degrees", cached)
        return cached

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """View (not copy) of v's sorted adjacency list."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def max_degree_vertex(self) -> int:
        """Lowest-id vertex with the maximum degree.

        This is the vertex Zero Planting targets.  Ties broken towards
        the smaller id, matching a deterministic parallel max-reduction
        over thread-local maxima scanned in ascending order.
        """
        if self.num_vertices == 0:
            raise ValueError("empty graph has no max-degree vertex")
        return int(np.argmax(self.degrees))

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < nbrs.size and int(nbrs[i]) == v

    # -- conversions ----------------------------------------------------

    @classmethod
    def from_edge_list(cls, edges: EdgeList) -> "CSRGraph":
        """Build CSR from a (already symmetric, deduplicated) edge list.

        Adjacency lists come out sorted because we sort by the combined
        (src, dst) key.
        """
        n = edges.num_vertices
        keys = np.sort(_edge_keys(edges.src, edges.dst, n))
        m = max(n, 1)
        counts = np.bincount(keys // m, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, keys % m)

    def to_edge_list(self) -> EdgeList:
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        self.degrees)
        return EdgeList(src, self.indices.astype(np.int64),
                        self.num_vertices)

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every directed edge slot, aligned with indices."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                         self.degrees)

    def __repr__(self) -> str:
        return (f"CSRGraph(|V|={self.num_vertices}, "
                f"|E|={self.num_undirected_edges} undirected)")
