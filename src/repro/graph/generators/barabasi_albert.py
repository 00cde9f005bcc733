"""Barabási-Albert preferential attachment generator.

Produces connected scale-free graphs (gamma = 3).  Unlike RMAT and
Chung-Lu the result is connected by construction, which is useful for
surrogates of single-component datasets (Pokec, Friendster, ...,
|CC| = 1 in Table II).

Preferential attachment is inherently sequential, but the standard
repeated-endpoints trick keeps it O(m) with only a thin Python loop
over *vertices* (each step vectorized over its m attachment targets):
sampling uniformly from the flat array of all previous edge endpoints
is exactly degree-proportional sampling.
"""

from __future__ import annotations

import numpy as np

from ..builders import build_graph
from ..coo import EdgeList, distinct
from ..csr import CSRGraph
from .rng import as_generator

__all__ = ["barabasi_albert_edges", "barabasi_albert_graph"]


def barabasi_albert_edges(num_vertices: int,
                          attach: int = 8,
                          *,
                          seed: int | np.random.Generator | None = 0
                          ) -> EdgeList:
    """Grow a BA graph: each new vertex attaches to ``attach`` targets."""
    if attach < 1:
        raise ValueError("attach must be >= 1")
    if num_vertices <= attach:
        raise ValueError("num_vertices must exceed attach")
    rng = as_generator(seed)
    m = attach
    # Endpoint pool: every edge contributes both endpoints, so uniform
    # draws from the pool are degree-proportional.
    num_new = num_vertices - (m + 1)
    total_edges = m * (m + 1) // 2 + num_new * m
    src = np.empty(total_edges, dtype=np.int64)
    dst = np.empty(total_edges, dtype=np.int64)
    pool = np.empty(2 * total_edges, dtype=np.int64)
    # Seed clique on vertices 0..m.
    k = 0
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            src[k], dst[k] = u, v
            pool[2 * k], pool[2 * k + 1] = u, v
            k += 1
    for v in range(m + 1, num_vertices):
        # Draw with replacement then dedup; top up until m distinct
        # targets — duplicates are rare once the pool is large.
        targets = distinct(pool[rng.integers(0, 2 * k, size=m)])
        while targets.size < m:
            extra = pool[rng.integers(0, 2 * k, size=m)]
            targets = distinct(np.concatenate([targets, extra]))[:m]
        e = slice(k, k + m)
        src[e] = v
        dst[e] = targets
        pool[2 * k: 2 * k + 2 * m: 2] = v
        pool[2 * k + 1: 2 * k + 2 * m: 2] = targets
        k += m
    return EdgeList(src, dst, num_vertices)


def barabasi_albert_graph(num_vertices: int,
                          attach: int = 8,
                          *,
                          seed: int | np.random.Generator | None = 0
                          ) -> CSRGraph:
    """Connected scale-free CSR graph (single component by construction)."""
    edges = barabasi_albert_edges(num_vertices, attach, seed=seed)
    return build_graph(edges, drop_zero_degree=False)
