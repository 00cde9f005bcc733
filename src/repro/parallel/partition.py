"""Edge-balanced vertex partitioning (paper Section V-A).

The paper creates ``32 x #threads`` edge-balanced partitions; thread
``t`` initially owns partitions ``[32t, 32(t+1))``.  Partitions are
contiguous vertex ranges whose edge counts are as equal as possible —
computed here with a single ``searchsorted`` over ``indptr``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["Partitioning", "edge_balanced_partitions",
           "vertex_balanced_partitions", "PARTITIONS_PER_THREAD"]

# The paper's constant: 32 partitions per thread.
PARTITIONS_PER_THREAD = 32


@dataclass(frozen=True)
class Partitioning:
    """Contiguous vertex ranges with near-equal edge counts.

    ``bounds`` has ``num_partitions + 1`` entries; partition ``p``
    covers vertices ``[bounds[p], bounds[p+1])``.
    """

    bounds: np.ndarray
    num_threads: int

    def __post_init__(self) -> None:
        bounds = np.ascontiguousarray(self.bounds, dtype=np.int64)
        if bounds.ndim != 1 or bounds.size < 2:
            raise ValueError("bounds must have at least 2 entries")
        if np.any(np.diff(bounds) < 0) or bounds[0] != 0:
            raise ValueError("bounds must be non-decreasing from 0")
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if (bounds.size - 1) % self.num_threads:
            raise ValueError(
                f"{bounds.size - 1} partitions do not split evenly "
                f"over {self.num_threads} threads")
        object.__setattr__(self, "bounds", bounds)

    @property
    def num_partitions(self) -> int:
        return self.bounds.size - 1

    @property
    def num_vertices(self) -> int:
        return int(self.bounds[-1])

    def vertex_range(self, p: int) -> tuple[int, int]:
        return int(self.bounds[p]), int(self.bounds[p + 1])

    def partitions_per_thread(self) -> int:
        return self.num_partitions // self.num_threads

    def owned_by(self, thread_id: int) -> range:
        """Partition ids initially assigned to ``thread_id``."""
        k = self.partitions_per_thread()
        return range(thread_id * k, (thread_id + 1) * k)

    def owner_of(self, p: int) -> int:
        """Thread that initially owns partition ``p``."""
        return p // self.partitions_per_thread()

    def partition_of(self, v: int | np.ndarray) -> int | np.ndarray:
        """Partition whose vertex range contains ``v``.

        Accepts a single vertex id or an array of ids (the push path
        maps whole chunk sequences in one call).  With empty
        partitions several ranges share a boundary; the (unique)
        non-empty one containing each vertex is returned.
        """
        ids = np.asarray(v, dtype=np.int64)
        if ids.size and (int(ids.min()) < 0
                         or int(ids.max()) >= self.num_vertices):
            raise ValueError(f"vertex {v} out of range")
        p = np.searchsorted(self.bounds, ids, side="right") - 1
        p = np.minimum(p, self.num_partitions - 1)
        return p if ids.ndim else int(p)

    def edge_counts(self, graph: CSRGraph) -> np.ndarray:
        """Directed edges per partition."""
        return np.diff(graph.indptr[self.bounds])


def vertex_balanced_partitions(graph: CSRGraph,
                               num_threads: int,
                               partitions_per_thread: int =
                               PARTITIONS_PER_THREAD) -> Partitioning:
    """Equal *vertex* counts per partition — the naive alternative.

    On skewed graphs this concentrates the hubs' edges into a few
    partitions, producing the load imbalance that edge-balanced
    partitioning (the paper's choice) avoids; experiment E7 quantifies
    the difference via the scheduler's makespan.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    if partitions_per_thread < 1:
        raise ValueError("partitions_per_thread must be >= 1")
    p = num_threads * partitions_per_thread
    bounds = np.linspace(0, graph.num_vertices, p + 1).astype(np.int64)
    return Partitioning(bounds, num_threads)


def edge_balanced_partitions(graph: CSRGraph,
                             num_threads: int,
                             partitions_per_thread: int = PARTITIONS_PER_THREAD
                             ) -> Partitioning:
    """Split vertices into ``num_threads * partitions_per_thread``
    contiguous ranges with near-equal edge counts.

    Each partition boundary is the first vertex whose cumulative edge
    count reaches the ideal share — exactly what a prefix-sum-based
    edge partitioner produces.  A partition may be empty for extremely
    skewed graphs where one vertex holds more than a share of edges.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    if partitions_per_thread < 1:
        raise ValueError("partitions_per_thread must be >= 1")
    bounds = _edge_balanced_cut(graph.indptr, 0, graph.num_vertices,
                                num_threads * partitions_per_thread)
    return Partitioning(bounds, num_threads)


def _edge_balanced_cut(indptr: np.ndarray, lo: int, hi: int,
                       parts: int) -> np.ndarray:
    """Prefix-sum cut of vertices ``[lo, hi)`` into ``parts`` ranges.

    Boundary ``k`` is the first vertex whose cumulative edge count
    (from ``lo``) reaches ``k/parts`` of the slice's edges; ranges may
    be empty on extreme skew.  Returns ``parts + 1`` bounds.
    """
    e0 = int(indptr[lo])
    targets = e0 + (int(indptr[hi]) - e0) * np.arange(
        1, parts, dtype=np.float64) / parts
    cut = lo + 1 + np.searchsorted(indptr[lo + 1:hi], targets,
                                   side="left")
    bounds = np.empty(parts + 1, dtype=np.int64)
    bounds[0] = lo
    bounds[1:-1] = np.minimum(cut, hi)
    bounds[-1] = hi
    np.maximum.accumulate(bounds, out=bounds)
    return bounds
