"""Quantifying Section III: repeated wavefronts and hub centrality.

The paper motivates Thrifty with two structural observations:

* III-A/III-C — synchronous LP with structure-oblivious initial labels
  overwrites the same vertices repeatedly as successive wavefronts
  carrying smaller labels ripple through the graph.
  :func:`wavefront_statistics` measures exactly that: how many times
  each vertex's label changes before convergence, under identity
  initialization vs Zero Planting.
* IV-C — the maximum-degree vertex is a hub: almost every vertex in
  its component is a small number of hops away, so planting the
  minimum there shortens every propagation path.
  :func:`hub_distance_profile` measures the BFS distance distribution
  from the hub and from a reference vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.backends import get_backend
from ..graph.coo import distinct
from ..graph.csr import CSRGraph

__all__ = [
    "WavefrontStats",
    "wavefront_statistics",
    "hub_distance_profile",
    "DistanceProfile",
]


@dataclass(frozen=True)
class WavefrontStats:
    """Per-vertex label-update behaviour of synchronous LP."""

    iterations: int
    total_updates: int
    mean_updates_per_vertex: float
    max_updates: int
    update_histogram: np.ndarray   # index k = #vertices updated k times

    @property
    def overwrite_fraction(self) -> float:
        """Fraction of updates that were later overwritten (wasted).

        A vertex updated k times only needed the final one; the other
        k-1 writes are the "repeated wavefront" waste of Section III-A.
        """
        if self.total_updates == 0:
            return 0.0
        updated_vertices = int(self.update_histogram[1:].sum())
        return 1.0 - updated_vertices / self.total_updates


def wavefront_statistics(graph: CSRGraph,
                         *, zero_planted: bool = False) -> WavefrontStats:
    """Run synchronous (Jacobi) LP counting per-vertex label updates.

    With ``zero_planted`` the labels start as ``v+1`` with 0 on the
    max-degree vertex (the Thrifty assignment); otherwise identity.
    Every committed label change counts as one update; the returned
    histogram shows how many vertices changed 0, 1, 2, ... times —
    the paper's "repeated wavefronts" are vertices with count >= 2.
    """
    n = graph.num_vertices
    if n == 0:
        return WavefrontStats(0, 0, 0.0, 0, np.zeros(1, dtype=np.int64))
    if zero_planted:
        labels = np.arange(1, n + 1, dtype=np.int64)
        labels[graph.max_degree_vertex()] = 0
    else:
        labels = np.arange(n, dtype=np.int64)
    updates = np.zeros(n, dtype=np.int64)
    iterations = 0
    src = graph.edge_sources()
    while True:
        iterations += 1
        # One synchronous round: min over neighbours.
        gathered = labels[graph.indices]
        new = labels.copy()
        np.minimum.at(new, src, gathered)
        changed = new < labels
        if not changed.any():
            break
        updates[changed] += 1
        labels = new
    hist = np.bincount(updates)
    return WavefrontStats(
        iterations=iterations,
        total_updates=int(updates.sum()),
        mean_updates_per_vertex=float(updates.mean()),
        max_updates=int(updates.max()),
        update_histogram=hist.astype(np.int64),
    )


@dataclass(frozen=True)
class DistanceProfile:
    """BFS distance distribution from one source."""

    source: int
    histogram: np.ndarray        # index d = #vertices at distance d
    unreachable: int

    @property
    def eccentricity(self) -> int:
        return int(self.histogram.size - 1)

    @property
    def mean_distance(self) -> float:
        total = int(self.histogram.sum())
        if total == 0:
            return 0.0
        d = np.arange(self.histogram.size)
        return float((d * self.histogram).sum() / total)

    def coverage_within(self, hops: int) -> float:
        """Fraction of the graph within ``hops`` of the source."""
        total = int(self.histogram.sum()) + self.unreachable
        if total == 0:
            return 0.0
        reach = int(self.histogram[:hops + 1].sum())
        return reach / total


def hub_distance_profile(graph: CSRGraph,
                         source: int | None = None) -> DistanceProfile:
    """BFS distance histogram from ``source`` (default: the hub).

    Supports the Zero Planting rationale: compare
    ``hub_distance_profile(g).mean_distance`` against
    ``hub_distance_profile(g, source=0)``.
    """
    n = graph.num_vertices
    if n == 0:
        return DistanceProfile(-1, np.zeros(1, dtype=np.int64), 0)
    src = graph.max_degree_vertex() if source is None else int(source)
    dist = np.full(n, -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    level = 0
    counts = [1]
    while frontier.size:
        level += 1
        nbrs, _ = get_backend().concat_adjacency(graph, frontier)
        new = distinct(nbrs[dist[nbrs] < 0])
        if new.size == 0:
            break
        dist[new] = level
        counts.append(int(new.size))
        frontier = new.astype(np.int64)
    return DistanceProfile(
        source=src,
        histogram=np.array(counts, dtype=np.int64),
        unreachable=int(np.count_nonzero(dist < 0)),
    )
