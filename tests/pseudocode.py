"""Test-side straight-line implementations of Algorithms 1 and 2.

These transliterate the paper's pseudocode per-vertex, with no
vectorization and no scheduling model: a single simulated thread
processes vertices in ascending order.  They are intentionally slow
and exist as ground truth for the test suite:

* components must match the production implementations exactly;
* the unified-labels reference exhibits in-iteration propagation at
  single-vertex granularity, bounding the iteration counts the
  block-granular production kernel may produce.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "reference_dolp",
    "reference_thrifty",
    "reference_label_propagation_iterations",
]


def reference_dolp(graph: CSRGraph,
                   threshold: float = 0.05) -> tuple[np.ndarray, int]:
    """Algorithm 1, executed single-threaded per the pseudocode.

    Returns ``(labels, iterations)``.
    """
    n = graph.num_vertices
    old_lbs = np.arange(n, dtype=np.int64)
    new_lbs = old_lbs.copy()
    old_fr = set(range(n))
    iterations = 0
    while old_fr:
        iterations += 1
        new_fr: set[int] = set()
        active_edges = sum(graph.degree(v) for v in old_fr)
        density = ((len(old_fr) + active_edges) / graph.num_edges
                   if graph.num_edges else 0.0)
        if density < threshold:
            # Push traversal.
            for v in old_fr:
                for u in graph.neighbors(v):
                    u = int(u)
                    if old_lbs[v] < new_lbs[u]:
                        new_lbs[u] = old_lbs[v]
                        new_fr.add(u)
        else:
            # Pull traversal over all vertices, reading old labels.
            for v in range(n):
                new_label = old_lbs[v]
                for u in graph.neighbors(v):
                    if old_lbs[u] < new_label:
                        new_label = old_lbs[u]
                if new_label < old_lbs[v]:
                    new_lbs[v] = new_label
                    new_fr.add(v)
        old_lbs[:] = new_lbs
        old_fr = new_fr
    return old_lbs, iterations


def reference_thrifty(graph: CSRGraph,
                      threshold: float = 0.01) -> tuple[np.ndarray, int]:
    """Algorithm 2, executed single-threaded per the pseudocode.

    One labels array (Unified Labels), Zero Planting on the max-degree
    vertex, an Initial Push iteration, and Zero Convergence checks in
    the pull loop.  Returns ``(labels, iterations)`` counting the
    Initial Push as an iteration (Section V-C convention).
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    labels = np.arange(1, n + 1, dtype=np.int64)
    hub = graph.max_degree_vertex()
    labels[hub] = 0

    iterations = 1  # the Initial Push
    frontier: set[int] = set()
    for u in graph.neighbors(hub):
        u = int(u)
        if labels[hub] < labels[u]:
            labels[u] = labels[hub]
            frontier.add(u)

    while frontier:
        iterations += 1
        new_fr: set[int] = set()
        active_edges = sum(graph.degree(v) for v in frontier)
        density = ((len(frontier) + active_edges) / graph.num_edges
                   if graph.num_edges else 0.0)
        if density < threshold:
            for v in sorted(frontier):
                for u in graph.neighbors(v):
                    u = int(u)
                    if labels[v] < labels[u]:
                        labels[u] = labels[v]
                        new_fr.add(u)
        else:
            for v in range(n):
                if labels[v] == 0:   # Zero Convergence: skip
                    continue
                new_label = labels[v]
                for u in graph.neighbors(v):
                    if labels[u] < new_label:
                        new_label = labels[u]
                    if new_label == 0:   # Zero Convergence: break
                        break
                if new_label < labels[v]:
                    labels[v] = new_label
                    new_fr.add(v)
        frontier = new_fr
    return labels, iterations


def reference_label_propagation_iterations(graph: CSRGraph) -> int:
    """Iterations of plain synchronous LP (no direction optimization).

    Used in tests as an upper bound: unified-array variants must not
    need more rounds than fully synchronous label propagation.
    """
    n = graph.num_vertices
    labels = np.arange(n, dtype=np.int64)
    iterations = 0
    while True:
        iterations += 1
        new = labels.copy()
        for v in range(n):
            for u in graph.neighbors(v):
                if labels[u] < new[v]:
                    new[v] = labels[u]
        if np.array_equal(new, labels):
            return iterations
        labels = new
