"""Chung-Lu random graphs with a prescribed expected degree sequence.

Given weights w_v, edge (u, v) appears with probability proportional to
w_u * w_v.  Feeding a power-law weight sequence produces graphs whose
*realized* degree distribution follows the same tail, with independent
edges — a cleaner null model than RMAT (no quadrant locality).

Sampling is done by drawing endpoints independently with probability
proportional to weight (the "fast Chung-Lu" / edge-skeleton variant),
which preserves expected degrees and is fully vectorizable.
"""

from __future__ import annotations

import numpy as np

from ..builders import build_graph
from ..coo import EdgeList
from ..csr import CSRGraph
from .rng import as_generator

__all__ = ["power_law_weights", "chung_lu_edges", "chung_lu_graph"]


def power_law_weights(num_vertices: int,
                      exponent: float = 2.1,
                      *,
                      min_weight: float = 1.0,
                      max_weight: float | None = None,
                      seed: int | np.random.Generator | None = 0
                      ) -> np.ndarray:
    """Draw i.i.d. Pareto(exponent-1) weights, the classic scale-free tail.

    ``exponent`` is the degree-distribution exponent gamma (P(k) ~
    k^-gamma); real social networks sit around 2-3.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must exceed 1")
    rng = as_generator(seed)
    u = rng.random(num_vertices)
    w = min_weight * (1.0 - u) ** (-1.0 / (exponent - 1.0))
    if max_weight is not None:
        np.minimum(w, max_weight, out=w)
    return w


def chung_lu_edges(weights: np.ndarray,
                   num_edges: int,
                   *,
                   seed: int | np.random.Generator | None = 0) -> EdgeList:
    """Sample ``num_edges`` directed edges with endpoint P(v) ∝ w_v."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    rng = as_generator(seed)
    p = weights / weights.sum()
    # Inverse-CDF sampling keeps memory flat for large num_edges.
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    src = _inverse_cdf(cdf, rng.random(num_edges))
    dst = _inverse_cdf(cdf, rng.random(num_edges))
    return EdgeList(src, dst, weights.size)


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``searchsorted(cdf, u, side="right")`` as int64.  Sorted needles
    walk ``cdf`` in order, which is faster than random probes even
    after paying for the sort and the scatter back."""
    order = np.argsort(u)
    out = np.empty(u.size, dtype=np.int64)
    out[order] = np.searchsorted(cdf, u[order], side="right")
    return out


def chung_lu_graph(num_vertices: int,
                   avg_degree: float = 16.0,
                   *,
                   exponent: float = 2.1,
                   max_weight: float | None = None,
                   seed: int | np.random.Generator | None = 0,
                   drop_zero_degree: bool = True) -> CSRGraph:
    """Power-law Chung-Lu graph in canonical CSR form."""
    rng = as_generator(seed)
    w = power_law_weights(num_vertices, exponent,
                          max_weight=max_weight, seed=rng)
    m = int(round(num_vertices * avg_degree / 2))
    edges = chung_lu_edges(w, m, seed=rng)
    return build_graph(edges, drop_zero_degree=drop_zero_degree)
