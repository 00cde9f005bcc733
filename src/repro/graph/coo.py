"""Coordinate (edge-list) graph representation and normalization.

The paper represents undirected graphs in CSR with every edge stored in
both directions (Section II).  Raw inputs (generators, files) arrive as
COO edge lists; this module canonicalizes them: symmetrization,
deduplication, self-loop removal, and basic sanity checking.

Every edge ordering in ingest goes through one int64 key per edge,
``src * n + dst`` (:func:`_edge_keys`): one value sort of the keys
orders edges by (source, neighbour), and ``//`` / ``%`` decode them.
Sorted distinct values come from :func:`distinct`, one sort plus a
neighbour compare.  Neither calls ``np.unique``: numpy 2.x answers it
with a hash table when no ``return_*`` flag is given, which is many
times slower than a sort on integer ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EdgeList",
    "symmetrize",
    "dedup",
    "remove_self_loops",
    "distinct",
    "MAX_KEY_VERTICES",
]

#: Largest vertex count whose edge keys fit int64: the top key is
#: ``n * n - 1``, so ``n`` may not exceed ``isqrt(2**63)``.
MAX_KEY_VERTICES = 3_037_000_499


@dataclass(frozen=True)
class EdgeList:
    """A directed edge list over vertices ``0..num_vertices-1``.

    ``src`` and ``dst`` are equal-length integer arrays.  An undirected
    graph is an :class:`EdgeList` that is symmetric (closed under
    swapping ``src``/``dst``); :func:`symmetrize` establishes that
    property.
    """

    src: np.ndarray
    dst: np.ndarray
    num_vertices: int

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1:
            raise ValueError("src/dst must be 1-D arrays")
        if src.shape != dst.shape:
            raise ValueError(
                f"src and dst lengths differ: {src.shape[0]} != {dst.shape[0]}"
            )
        n = int(self.num_vertices)
        if n < 0:
            raise ValueError("num_vertices must be non-negative")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0:
                raise ValueError("negative vertex id in edge list")
            if hi >= n:
                raise ValueError(
                    f"vertex id {hi} out of range for num_vertices={n}"
                )
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "num_vertices", n)

    @property
    def num_edges(self) -> int:
        """Number of directed edges (array length)."""
        return int(self.src.size)

    def is_symmetric(self) -> bool:
        """True if for every (u, v) the edge (v, u) is also present."""
        fwd = _edge_keys(self.src, self.dst, self.num_vertices)
        rev = _edge_keys(self.dst, self.src, self.num_vertices)
        return bool(np.array_equal(np.sort(fwd), np.sort(rev)))


def _edge_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Encode edge pairs over ``0..n-1`` as int64 keys ``src * n + dst``.

    Keys sort by (src, dst) and decode as ``key // n, key % n`` (with
    ``n`` at least 1: an empty graph has no keys to decode).  Raises
    ``ValueError`` past :data:`MAX_KEY_VERTICES`, where keys would wrap.
    """
    if n > MAX_KEY_VERTICES:
        raise ValueError(
            f"{n} vertices exceed the int64 edge-key limit of "
            f"{MAX_KEY_VERTICES} (MAX_KEY_VERTICES)")
    return np.asarray(src, dtype=np.int64) * max(n, 1) + dst


def distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct ``values``, equal to ``np.unique(values)``, from
    one sort and a neighbour compare (no hash table)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def remove_self_loops(edges: EdgeList) -> EdgeList:
    """Drop edges (v, v).

    Self-loops never affect connectivity but inflate degree counts,
    which matters for Zero Planting (max-degree selection).
    """
    keep = edges.src != edges.dst
    if bool(keep.all()):
        return edges
    return EdgeList(edges.src[keep], edges.dst[keep], edges.num_vertices)


def dedup(edges: EdgeList) -> EdgeList:
    """Remove duplicate directed edges; the rest come out sorted by
    (src, dst)."""
    if edges.num_edges == 0:
        return edges
    n = edges.num_vertices
    keys = distinct(_edge_keys(edges.src, edges.dst, n))
    return EdgeList(keys // n, keys % n, n)


def symmetrize(edges: EdgeList) -> EdgeList:
    """Return the undirected closure: both (u,v) and (v,u), deduplicated.

    This mirrors the paper's CSR convention where each undirected edge
    is represented twice.
    """
    src = np.concatenate([edges.src, edges.dst])
    dst = np.concatenate([edges.dst, edges.src])
    return dedup(EdgeList(src, dst, edges.num_vertices))
