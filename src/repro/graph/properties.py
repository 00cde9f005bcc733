"""Structural graph properties the paper's analysis relies on.

The Thrifty optimizations are justified by three structural facts about
real-world skewed-degree graphs (Sections III-IV):

* a heavy-tailed (power-law-ish) degree distribution,
* a giant component containing >94% of the vertices (Table I),
* hub vertices being few hops from everything (low effective diameter).

This module measures all three on arbitrary graphs so the synthetic
surrogates can be validated against the paper's premises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coo import distinct
from .csr import CSRGraph

__all__ = [
    "DegreeStats",
    "degree_stats",
    "estimate_power_law_exponent",
    "is_skewed",
    "component_labels_reference",
    "component_sizes",
    "giant_component_fraction",
    "sampled_giant_fraction",
    "max_degree_component_fraction",
    "estimate_diameter",
]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree distribution."""

    min: int
    max: int
    mean: float
    median: float
    p99: float
    gini: float
    top1pct_edge_share: float

    @property
    def skew_ratio(self) -> float:
        """max degree / mean degree — crude but robust skew indicator."""
        return self.max / self.mean if self.mean else 0.0


def degree_stats(graph: CSRGraph) -> DegreeStats:
    """Compute :class:`DegreeStats` for a graph."""
    d = graph.degrees.astype(np.float64)
    if d.size == 0:
        return DegreeStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    d_sorted = np.sort(d)
    total = d_sorted.sum()
    # Gini coefficient of the degree distribution.
    n = d_sorted.size
    if total > 0:
        cum = np.cumsum(d_sorted)
        gini = float((n + 1 - 2 * (cum / total).sum()) / n)
    else:
        gini = 0.0
    # Share of edges incident to the top 1% highest-degree vertices.
    k = max(1, n // 100)
    top_share = float(d_sorted[-k:].sum() / total) if total else 0.0
    return DegreeStats(
        min=int(d_sorted[0]),
        max=int(d_sorted[-1]),
        mean=float(d.mean()),
        median=float(np.median(d_sorted)),
        p99=float(np.percentile(d_sorted, 99)),
        gini=gini,
        top1pct_edge_share=top_share,
    )


def estimate_power_law_exponent(graph: CSRGraph,
                                *, k_min: int = 2) -> float:
    """Discrete power-law exponent via the Clauset-Shalizi-Newman MLE.

    Fits P(k) ~ k^-gamma to the degree tail (degrees >= ``k_min``)
    using the continuous approximation of the maximum-likelihood
    estimator::

        gamma = 1 + n_tail / sum(ln(k_i / (k_min - 0.5)))

    Real social networks sit around gamma = 2-3; road networks have no
    meaningful fit (with ``k_min`` above their 2-4 degree bulk the
    estimator returns a large value because no tail remains).  Pick
    ``k_min`` above the bulk of the distribution — at ``k_min`` inside
    the bulk the continuous MLE is meaningless for any graph.  Used to
    validate the surrogates against Table II's Power-Law column.
    """
    d = graph.degrees
    tail = d[d >= k_min].astype(np.float64)
    if tail.size < 2:
        return float("inf")
    return float(1.0 + tail.size
                 / np.log(tail / (k_min - 0.5)).sum())


def is_skewed(graph: CSRGraph, *,
              min_skew_ratio: float = 10.0,
              min_top1pct_share: float = 0.05) -> bool:
    """Heuristic test for a heavy-tailed degree distribution.

    Mirrors the paper's informal "Power-Law: Yes/No" dataset column: a
    graph is considered skewed when the max degree dwarfs the mean and
    the top-1% of vertices carry a disproportionate share of edges.
    Road networks (near-uniform small degrees) fail both conditions.
    """
    stats = degree_stats(graph)
    return (stats.skew_ratio >= min_skew_ratio
            and stats.top1pct_edge_share >= min_top1pct_share)


def component_labels_reference(graph: CSRGraph) -> np.ndarray:
    """Ground-truth component labels via scipy's connected_components.

    Used only for validation — the library's own algorithms live in
    :mod:`repro.core` and :mod:`repro.baselines`.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = graph.num_vertices
    mat = csr_matrix(
        (np.ones(graph.num_edges, dtype=np.int8),
         graph.indices.astype(np.int64), graph.indptr),
        shape=(n, n),
    )
    _, labels = connected_components(mat, directed=False)
    return labels.astype(np.int64)


def component_sizes(graph: CSRGraph) -> np.ndarray:
    """Sizes of all connected components, descending."""
    labels = component_labels_reference(graph)
    if labels.size == 0:
        return np.empty(0, dtype=np.int64)
    sizes = np.bincount(labels)
    return np.sort(sizes)[::-1].astype(np.int64)


def giant_component_fraction(graph: CSRGraph) -> float:
    """Fraction of vertices in the largest component."""
    sizes = component_sizes(graph)
    if sizes.size == 0:
        return 0.0
    return float(sizes[0] / graph.num_vertices)


def sampled_giant_fraction(graph: CSRGraph, *, samples: int = 256,
                           seed: int = 0) -> float:
    """Cheap giant-component vertex-fraction estimate via a hub BFS.

    One BFS from the maximum-degree vertex marks its component — on
    skewed graphs the hub almost surely lives in the giant component
    (the Zero Planting premise, Table I), and on road-like graphs the
    single component is found regardless of the seed.  With
    ``samples > 0`` the fraction is estimated from that many uniformly
    sampled vertices (deterministic given ``seed``); ``samples == 0``
    counts the mask exactly.  Unlike :func:`giant_component_fraction`
    this never materializes a scipy sparse matrix, so the serving
    layer can afford it as a structural probe.
    """
    n = graph.num_vertices
    if n == 0:
        return 0.0
    hub = graph.max_degree_vertex()
    visited = np.zeros(n, dtype=bool)
    visited[hub] = True
    frontier = np.array([hub], dtype=np.int64)
    kb = _kernels()
    while frontier.size:
        nbrs, _ = kb.concat_adjacency(graph, frontier)
        new = distinct(nbrs[~visited[nbrs]])
        if new.size == 0:
            break
        visited[new] = True
        frontier = new
    if samples <= 0 or samples >= n:
        return float(np.count_nonzero(visited) / n)
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, n, size=samples)
    return float(np.count_nonzero(visited[picks]) / samples)


def max_degree_component_fraction(graph: CSRGraph) -> float:
    """Table I quantity: % of vertices sharing a component with the
    maximum-degree vertex.

    The Zero Planting heuristic bets this is ~the giant component; on
    all of the paper's power-law datasets it is >94%.
    """
    if graph.num_vertices == 0:
        return 0.0
    labels = component_labels_reference(graph)
    hub = graph.max_degree_vertex()
    return float((labels == labels[hub]).sum() / graph.num_vertices)


def estimate_diameter(graph: CSRGraph, *, num_sources: int = 4,
                      seed: int = 0) -> int:
    """Lower-bound diameter estimate by double-sweep BFS.

    Runs BFS from a few pseudo-random sources plus the farthest vertex
    found from each (the classic double sweep), returning the largest
    eccentricity seen.  Exact for trees/paths; a tight lower bound in
    practice.  Used to check road surrogates are high-diameter and
    power-law surrogates are low-diameter.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    sources = set(int(v) for v in rng.integers(0, n, size=num_sources))
    for s in sources:
        dist, far = _bfs_eccentricity(graph, s)
        best = max(best, dist)
        dist2, _ = _bfs_eccentricity(graph, far)
        best = max(best, dist2)
    return best


def _bfs_eccentricity(graph: CSRGraph, source: int) -> tuple[int, int]:
    """(eccentricity within source's component, farthest vertex)."""
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    visited[source] = True
    frontier = np.array([source], dtype=np.int64)
    level = 0
    last = source
    kb = _kernels()
    while frontier.size:
        nbrs, _ = kb.concat_adjacency(graph, frontier)
        new = distinct(nbrs[~visited[nbrs]])
        if new.size == 0:
            break
        visited[new] = True
        frontier = new
        level += 1
        last = int(new[0])
    return level, last


def _kernels():
    """The canonical kernel backend (imported late: ``repro.core``
    imports ``repro.graph``)."""
    from ..core.backends import get_backend
    return get_backend()
