"""Multi-component graph construction.

Table II lists datasets with anything from 1 to 5.6M connected
components; web crawls in particular pair a giant component with a dust
cloud of tiny ones.  :func:`with_dust_components` attaches that dust to
any base graph so surrogates can match the paper's |CC| character, and
:func:`disjoint_union` combines arbitrary graphs.
"""

from __future__ import annotations

import numpy as np

from ..coo import EdgeList
from ..csr import CSRGraph
from .rng import as_generator

__all__ = ["disjoint_union", "with_dust_components", "with_tendrils",
           "star_graph"]


def disjoint_union(graphs: list[CSRGraph]) -> CSRGraph:
    """Concatenate graphs with shifted vertex ids; components add up."""
    if not graphs:
        raise ValueError("need at least one graph")
    indptrs = []
    indices = []
    offset = 0
    edge_offset = 0
    for g in graphs:
        ip = g.indptr[1:] if indptrs else g.indptr
        indptrs.append(ip + edge_offset)
        indices.append(g.indices.astype(np.int64) + offset)
        offset += g.num_vertices
        edge_offset += g.num_edges
    return CSRGraph(np.concatenate(indptrs), np.concatenate(indices))


def with_dust_components(base: CSRGraph,
                         num_dust: int,
                         *,
                         max_dust_size: int = 6,
                         seed: int | np.random.Generator | None = 0
                         ) -> CSRGraph:
    """Append ``num_dust`` tiny extra components (paths of 2..max size).

    The giant component's identity is preserved: the base graph keeps
    vertex ids 0..|V|-1, dust vertices come after, so degree-based hub
    selection still lands in the base graph (dust degrees <= 2).
    """
    if num_dust == 0:
        return base
    rng = as_generator(seed)
    sizes = rng.integers(2, max_dust_size + 1, size=num_dust)
    total = int(sizes.sum())
    # Build all dust paths at once: edges (v, v+1) within each path.
    starts = base.num_vertices + np.concatenate(
        [[0], np.cumsum(sizes[:-1])])
    src_parts = []
    for s, size in zip(starts, sizes):
        v = np.arange(s, s + size - 1, dtype=np.int64)
        src_parts.append(v)
    src = np.concatenate(src_parts)
    return _with_edges(base, src, src + 1, base.num_vertices + total)


def with_tendrils(base: CSRGraph,
                  num_tendrils: int,
                  *,
                  min_depth: int = 4,
                  max_depth: int = 12,
                  permute_fraction: float = 1.0,
                  seed: int | np.random.Generator | None = 0) -> CSRGraph:
    """Attach path "tendrils" (whiskers) to random base vertices.

    Real social networks and especially web crawls have long
    low-degree chains hanging off the core; they are what gives those
    graphs their large effective diameter and what makes synchronous
    label propagation need many iterations (paper Table V: WebBase
    needs 744 DO-LP iterations).  Pure RMAT/Chung-Lu cores have
    diameter ~log n, so surrogates add tendrils to recover the paper's
    iteration-count behaviour.

    Tendril vertices are appended after the base ids and are connected
    to the giant component (unlike :func:`with_dust_components`), so
    component counts and Table I fractions are unaffected.

    ``permute_fraction`` of the tendril vertex ids are scattered
    randomly within the appended range.  At 0.0 every chain is
    id-ascending, which an in-order unified-labels sweep floods in a
    single iteration; at 1.0 ids are fully random and propagation
    degenerates to ~1 hop/iteration.  Real crawl/social ids have
    partial locality (BFS crawl order), i.e. something in between —
    the fraction is the dataset surrogates' diameter-behaviour knob.
    """
    if not (0.0 <= permute_fraction <= 1.0):
        raise ValueError("permute_fraction must be in [0, 1]")
    if num_tendrils == 0:
        return base
    if base.num_vertices == 0:
        raise ValueError("cannot attach tendrils to an empty graph")
    if not (1 <= min_depth <= max_depth):
        raise ValueError("need 1 <= min_depth <= max_depth")
    rng = as_generator(seed)
    depths = rng.integers(min_depth, max_depth + 1, size=num_tendrils)
    anchors = rng.integers(0, base.num_vertices, size=num_tendrils)
    total = int(depths.sum())
    n0 = base.num_vertices
    starts = n0 + np.concatenate([[0], np.cumsum(depths[:-1])])
    src_parts = [anchors.astype(np.int64)]   # anchor -> first path vertex
    dst_parts = [starts.astype(np.int64)]
    for s, d in zip(starts, depths):
        if d > 1:
            v = np.arange(s, s + d - 1, dtype=np.int64)
            src_parts.append(v)
            dst_parts.append(v + 1)
    src = np.concatenate(src_parts)
    dst = np.concatenate(dst_parts)
    k = int(round(permute_fraction * total))
    if k > 1:
        remap = np.arange(n0 + total, dtype=np.int64)
        sel = rng.choice(total, size=k, replace=False)
        remap[n0 + sel] = n0 + rng.permutation(sel)
        src = remap[src]
        dst = remap[dst]
    return _with_edges(base, src, dst, n0 + total)


def _with_edges(base: CSRGraph, src: np.ndarray, dst: np.ndarray,
                n: int) -> CSRGraph:
    """``base`` grown to ``n`` vertices plus the undirected edges
    ``(src[i], dst[i])``: one key sort of all edges, no re-placement."""
    return CSRGraph.from_edge_list(EdgeList(
        np.concatenate((base.edge_sources(), src, dst)),
        np.concatenate((base.indices, dst, src)), n))


def star_graph(num_leaves: int) -> CSRGraph:
    """Hub-and-spokes: vertex 0 connected to 1..num_leaves.

    The extreme skew case — useful for unit-testing Zero Planting and
    Initial Push (one push converges everything).
    """
    if num_leaves < 1:
        raise ValueError("star needs at least one leaf")
    n = num_leaves + 1
    indptr = np.concatenate([[0, num_leaves],
                             num_leaves + np.arange(1, n, dtype=np.int64)])
    indices = np.concatenate([np.arange(1, n, dtype=np.int64),
                              np.zeros(num_leaves, dtype=np.int64)])
    return CSRGraph(indptr.astype(np.int64), indices)
