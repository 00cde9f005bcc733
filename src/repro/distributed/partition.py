"""Vertex-to-rank partitioning strategies for the distributed tier.

Two strategies, selected by ``DistributedOptions.partition``:

* ``"block"`` — equal *vertex* counts per rank (the historical
  linspace split).  Simple, but on skewed graphs the hubs concentrate
  edges (and therefore compute and boundary traffic) onto few ranks.
* ``"degree_balanced"`` — equal *edge* counts per rank, reusing the
  same prefix-sum edge partitioner as the shared-memory runtime
  (:func:`repro.parallel.partition.edge_balanced_partitions` with one
  partition per rank), so both layers share one notion of balance.

Both produce contiguous vertex ranges, which keeps ghost/mirror
metadata a pure function of the rank bounds.  :func:`edge_cut` reports
the number of directed edges crossing rank boundaries — the structural
upper bound on per-superstep communication — for every run.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..parallel.partition import (_edge_balanced_cut,
                                  edge_balanced_partitions)

__all__ = ["PARTITION_STRATEGIES", "rank_bounds", "rank_of_vertex",
           "edge_cut", "intra_rank_blocks"]

PARTITION_STRATEGIES = ("block", "degree_balanced")


def rank_bounds(graph: CSRGraph, num_ranks: int,
                strategy: str = "block") -> np.ndarray:
    """Rank boundary array of length ``num_ranks + 1``.

    Rank ``r`` owns vertices ``[bounds[r], bounds[r+1])``.
    """
    if num_ranks < 1:
        raise ValueError("num_ranks must be >= 1")
    if strategy == "block":
        return np.linspace(0, graph.num_vertices,
                           num_ranks + 1).astype(np.int64)
    if strategy == "degree_balanced":
        return edge_balanced_partitions(graph, num_ranks, 1).bounds
    raise ValueError(f"unknown partition strategy {strategy!r}; "
                     f"pick one of {list(PARTITION_STRATEGIES)}")


def rank_of_vertex(bounds: np.ndarray, n: int) -> np.ndarray:
    """Owner rank of every vertex (handles empty ranks: duplicate
    bounds resolve to the unique non-empty range)."""
    return np.searchsorted(bounds[1:], np.arange(n), side="right")


def edge_cut(graph: CSRGraph, rank_of: np.ndarray) -> int:
    """Directed edges whose endpoints live on different ranks."""
    if graph.num_edges == 0:
        return 0
    src = graph.edge_sources()
    dst = graph.indices
    return int(np.count_nonzero(rank_of[src] != rank_of[dst]))


def intra_rank_blocks(graph: CSRGraph, lo: int, hi: int,
                      num_blocks: int) -> np.ndarray:
    """Edge-balanced block bounds inside one rank's range ``[lo, hi)``.

    The rank-local pull visits these blocks the way the shared-memory
    engine visits its partitions: converged (all-zero) blocks are
    skipped without touching their rows.  Same prefix-sum cut as
    :func:`repro.parallel.partition.edge_balanced_partitions`, applied
    to the rank's slice; blocks may be empty on extreme skew.
    """
    if hi <= lo:
        return np.array([lo, lo], dtype=np.int64)
    return _edge_balanced_cut(graph.indptr, lo, hi,
                              max(1, min(num_blocks, hi - lo)))
