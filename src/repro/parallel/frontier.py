"""Active-set data structures for LP frontiers (paper Section II).

A frontier represents the active vertex set F.V and the induced active
edge set F.E.  The paper uses three operating modes:

* **bitmap** — a boolean array, O(1) set/test, for dense frontiers;
* **worklist** — an explicit vertex list, for sparse frontiers
  (:class:`AdaptiveFrontier` switches from this to a bitmap as the
  frontier grows);
* **count-only** — Thrifty's accelerated pull mode (Section IV-E): no
  per-vertex record is kept, only |F.V| and |F.E| (enough to pick the
  next direction).  A Pull-Frontier iteration is used to materialize a
  real frontier before switching to push.

Density is ``(|F.V| + |F.E|) / |E|`` exactly as in Algorithm 1 line 7.
"""

from __future__ import annotations

import numpy as np

from ..graph.coo import distinct
from ..graph.csr import CSRGraph

__all__ = ["CountOnlyFrontier", "AdaptiveFrontier", "SWITCH_DENSITY"]

#: Fraction of vertices active above which an :class:`AdaptiveFrontier`
#: switches from its worklist to a bitmap (the engine's threshold).
SWITCH_DENSITY = 0.02


class AdaptiveFrontier:
    """A frontier with dynamic worklist/bitmap representation switching.

    Section II: "Frontiers may be implemented as worklists ... or as a
    bitmap ... Graph processing systems dynamically switch between
    these representations depending on the density of the frontier."

    Below ``switch_density`` (fraction of vertices active) the
    frontier keeps an explicit sorted worklist (cheap to iterate, no
    O(n) scans); above it, a bitmap (O(1) membership, no duplicate
    concerns).  The representation is visible via :attr:`mode` so the
    cost accounting can charge the right structure, and conversions
    happen at most once per batch of insertions.  Engine frontiers
    only grow, so the only switch is worklist→bitmap.

    :meth:`set_many` and :meth:`full` also maintain the induced active
    edge count behind ``num_active_edges`` / ``density``.
    """

    def __init__(self, num_vertices: int,
                 *, switch_density: float = SWITCH_DENSITY) -> None:
        if not (0.0 < switch_density <= 1.0):
            raise ValueError("switch_density must be in (0, 1]")
        self._n = num_vertices
        self._switch = switch_density
        self._mode = "worklist"
        self._list: np.ndarray = np.empty(0, dtype=np.int64)
        self._bitmap: np.ndarray | None = None
        self._conversions = 0
        self._active_edges = 0

    @classmethod
    def full(cls, graph: CSRGraph, *,
             switch_density: float = SWITCH_DENSITY) -> "AdaptiveFrontier":
        """All vertices active — starts directly in bitmap mode
        (construction, not a switch: ``conversions`` stays 0)."""
        f = cls(graph.num_vertices, switch_density=switch_density)
        f._bitmap = np.ones(graph.num_vertices, dtype=bool)
        f._mode = "bitmap"
        f._active_edges = graph.num_edges
        return f

    @property
    def mode(self) -> str:
        """Current representation: ``"worklist"`` or ``"bitmap"``."""
        return self._mode

    @property
    def conversions(self) -> int:
        """How many representation switches have happened."""
        return self._conversions

    def __len__(self) -> int:
        if self._mode == "worklist":
            return int(self._list.size)
        return int(np.count_nonzero(self._bitmap))

    @property
    def num_active(self) -> int:
        return len(self)

    @property
    def num_active_edges(self) -> int:
        """Edges incident to active vertices, as maintained by the
        graph-aware mutators (``set_many`` / ``full``)."""
        return self._active_edges

    def density(self, graph: CSRGraph) -> float:
        """(|F.V| + |F.E|)/|E| — Algorithm 1, line 7."""
        if graph.num_edges == 0:
            return 0.0
        return (len(self) + self._active_edges) / graph.num_edges

    def set_many(self, graph: CSRGraph, vertices: np.ndarray) -> None:
        """Activate a batch, tracking the induced active edges.

        Duplicates and already-active entries are ignored (their edges
        are not double counted); the representation switches if the
        density crosses the threshold.
        """
        vertices = distinct(np.asarray(vertices, dtype=np.int64))
        if vertices.size == 0:
            return
        if vertices[0] < 0 or vertices[-1] >= self._n:
            raise ValueError("vertex id out of range")
        if self._mode == "worklist":
            keep = ~np.isin(vertices, self._list, assume_unique=True)
            fresh = vertices[keep]
            self._list = distinct(np.concatenate((self._list, fresh)))
        else:
            fresh = vertices[~self._bitmap[vertices]]
            self._bitmap[fresh] = True
        self._active_edges += int(graph.degrees[fresh].sum())
        self._maybe_switch()

    def vertices(self) -> np.ndarray:
        """Sorted active vertex ids (either representation)."""
        if self._mode == "worklist":
            return self._list.copy()
        return np.flatnonzero(self._bitmap).astype(np.int64)

    def _maybe_switch(self) -> None:
        if (self._mode == "worklist"
                and len(self) / max(self._n, 1) > self._switch):
            bitmap = np.zeros(self._n, dtype=bool)
            bitmap[self._list] = True
            self._bitmap = bitmap
            self._list = np.empty(0, dtype=np.int64)
            self._mode = "bitmap"
            self._conversions += 1


class CountOnlyFrontier:
    """Thrifty's cheap pull-mode frontier: counts, no membership.

    Supports exactly the operations a non-final pull iteration needs —
    accumulate |F.V| and |F.E|, compute density — without the memory
    traffic of a bitmap or worklist (Section IV-E).
    """

    def __init__(self) -> None:
        self._num_active = 0
        self._active_edges = 0

    def add(self, count: int, edges: int) -> None:
        """Record ``count`` newly-active vertices carrying ``edges``."""
        if count < 0 or edges < 0:
            raise ValueError("counts must be non-negative")
        self._num_active += count
        self._active_edges += edges

    @property
    def num_active(self) -> int:
        return self._num_active

    @property
    def num_active_edges(self) -> int:
        return self._active_edges

    def __len__(self) -> int:
        return self._num_active

    def density(self, graph: CSRGraph) -> float:
        if graph.num_edges == 0:
            return 0.0
        return (self._num_active + self._active_edges) / graph.num_edges
