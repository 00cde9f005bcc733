"""Vertex relabeling (reordering) utilities.

The paper's introduction lists locality-optimizing relabeling as one
of CC's applications, and the reproduction surfaced a subtler
connection: with a Unified Labels Array, *how vertex ids are ordered
relative to the graph structure changes how far labels travel per
iteration* (an in-order sweep floods id-ascending paths instantly).
These utilities produce the standard orderings so that sensitivity can
be measured (extension experiment E2).

All functions return a **new graph** plus the permutation used:
``new_id = perm[old_id]``.
"""

from __future__ import annotations

import numpy as np

from ..core.backends import get_backend
from ..graph.coo import _edge_keys, distinct
from ..graph.csr import CSRGraph

__all__ = [
    "relabel",
    "degree_sort_relabel",
    "bfs_relabel",
    "random_relabel",
    "hub_cluster_relabel",
]


def relabel(graph: CSRGraph, perm: np.ndarray, *,
            assume_permutation: bool = False
            ) -> tuple[CSRGraph, np.ndarray]:
    """Apply an explicit permutation: ``new_id = perm[old_id]``.

    Fully vectorized: one sort of the relabelled edges' int64 keys
    stands in for the per-vertex scatter loop (the key orders by (new
    row, new neighbour), which lands every edge in its CSR slot with
    neighbours ascending — the exact layout the loop produced).
    ``assume_permutation=True`` skips the validity check for callers
    that constructed ``perm`` themselves (the orderings below — they
    invert an argsort, a permutation by construction).
    """
    perm = np.asarray(perm, dtype=np.int64)
    n = graph.num_vertices
    if perm.shape != (n,):
        raise ValueError("perm must have one entry per vertex")
    if not assume_permutation and n:
        # Negative ids get their own check and message: they are the
        # signature of an inverted-argsort bug in the caller (a slot
        # left at its -1 fill value), not a merely out-of-range id.
        if perm.min() < 0:
            raise ValueError(
                f"perm contains negative ids (min {perm.min()}); "
                "it must be a permutation of 0..n-1")
        # Bincount beats the old full np.sort: O(n) with no copy of
        # a sorted array, and it catches out-of-range ids before the
        # fancy-indexing below would.
        if (perm.max() >= n
                or np.any(np.bincount(perm, minlength=n) != 1)):
            raise ValueError("perm must be a permutation of 0..n-1")
    # new indptr from permuted degrees.
    new_deg = np.zeros(n, dtype=np.int64)
    new_deg[perm] = graph.degrees
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_deg, out=indptr[1:])
    # Relabel both endpoints of every edge, then sort edges by (new
    # source, new destination): rows land in new-id order with each
    # row's neighbours ascending — bit-identical to scattering row by
    # row and sorting each row.
    keys = np.sort(_edge_keys(perm[graph.edge_sources()],
                              perm[graph.indices], n))
    return CSRGraph(indptr, keys % max(n, 1)), perm


def degree_sort_relabel(graph: CSRGraph, *, descending: bool = True
                        ) -> tuple[CSRGraph, np.ndarray]:
    """Relabel by degree (hubs first by default) — the classic
    frequency-based locality ordering."""
    order = np.argsort(-graph.degrees if descending else graph.degrees,
                       kind="stable")
    perm = np.empty(graph.num_vertices, dtype=np.int64)
    perm[order] = np.arange(graph.num_vertices, dtype=np.int64)
    return relabel(graph, perm, assume_permutation=True)


def bfs_relabel(graph: CSRGraph, source: int | None = None
                ) -> tuple[CSRGraph, np.ndarray]:
    """Relabel in BFS visit order from the hub (default).

    Vertices outside the source's component keep their relative order
    after all reached vertices.
    """
    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    src = graph.max_degree_vertex() if source is None else int(source)
    order = np.full(n, -1, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    seen[src] = True
    frontier = np.array([src], dtype=np.int64)
    pos = 0
    while frontier.size:
        order[pos:pos + frontier.size] = frontier
        pos += frontier.size
        nbrs, _ = get_backend().concat_adjacency(graph, frontier)
        new = distinct(nbrs[~seen[nbrs]])
        seen[new] = True
        frontier = new.astype(np.int64)
    rest = np.flatnonzero(~seen)
    order[pos:pos + rest.size] = rest
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    return relabel(graph, perm, assume_permutation=True)


def hub_cluster_relabel(graph: CSRGraph, *, num_hubs: int | None = None
                        ) -> tuple[CSRGraph, np.ndarray]:
    """Relabel with hubs first, each hub's neighbours clustered after it.

    The skew-aware ordering for skewed-degree graphs: the top
    ``num_hubs`` vertices by degree (default ``ceil(sqrt(n))``) get
    the lowest ids in degree-descending order, and immediately after
    each hub come its not-yet-placed neighbours (in ascending old-id
    order, so the layout is deterministic).  Remaining vertices keep
    their relative order at the tail.  Hub labels then flood their
    clusters in a single in-order sweep, while the hub block itself
    stays resident in cache — the combination the degree-only and
    BFS orderings each get half of.
    """
    n = graph.num_vertices
    if n == 0:
        return graph, np.empty(0, dtype=np.int64)
    if num_hubs is None:
        num_hubs = int(np.ceil(np.sqrt(n)))
    num_hubs = max(1, min(int(num_hubs), n))
    by_degree = np.argsort(-graph.degrees, kind="stable")
    hubs = by_degree[:num_hubs]
    order = np.empty(n, dtype=np.int64)
    placed = np.zeros(n, dtype=bool)
    placed[hubs] = True
    pos = 0
    for hub in hubs:
        order[pos] = hub
        pos += 1
        nbrs = np.unique(graph.neighbors(hub))
        fresh = nbrs[~placed[nbrs]]
        order[pos:pos + fresh.size] = fresh
        placed[fresh] = True
        pos += fresh.size
    rest = np.flatnonzero(~placed)
    order[pos:pos + rest.size] = rest
    perm = np.empty(n, dtype=np.int64)
    perm[order] = np.arange(n, dtype=np.int64)
    return relabel(graph, perm, assume_permutation=True)


def random_relabel(graph: CSRGraph, seed: int = 0
                   ) -> tuple[CSRGraph, np.ndarray]:
    """Relabel uniformly at random — the structure-oblivious baseline."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(graph.num_vertices).astype(np.int64)
    return relabel(graph, perm, assume_permutation=True)
