"""Disjoint-set (union-find) substrate for the tree-hooking baselines.

Three layers:

* :class:`DisjointSet` — a classic scalar union-find with union by
  rank and path halving.  Used directly by tests and by small-scale
  verification; too slow (pure Python) for the benchmark graphs.
* Vectorized primitives — :func:`resolve_roots_local`,
  :func:`pointer_jump_roots`, :func:`link_roots` and
  :func:`shortcut_parents` — batched equivalents of rounds of
  concurrent hooking, used by the SV / JT / Afforest simulations.
  They operate on a parent array with NumPy scatter/gather; every
  round is a linearization of a batch of concurrent links, the same
  modelling step as the backends' ``batch_atomic_min``.
* Shared accounting — :func:`charge_union` / :func:`charge_finds`
  apply the one per-edge counter recipe every union call site uses,
  so the recipe cannot drift between baselines (it used to be
  copy-pasted into SV, Afforest and both ConnectIt phases, and had
  diverged).

Worklist-local vs all-vertex resolution
---------------------------------------

``union_edge_batch(..., local=True)`` (the default) resolves roots
only for the endpoints present in the batch: restricted pointer
jumping over the touched set with a memoized per-batch root cache
(path compression of the touched entries).  Each round costs
O(touched), never O(n).  ``local=False`` keeps the historical
all-vertex implementation — :func:`pointer_jump_roots` over the whole
parent array every round — as a bit-comparable reference: both paths
produce **identical final labels and identical link counts**, because
links depend only on endpoint roots and path compression never
changes any vertex's root.

Find-cost (``hops``) contract
-----------------------------

The ``hops`` returned by the local path count exactly the dependent
parent reads a per-endpoint sequential find would make under path
compression:

* the first find of a distinct endpoint in a batch round costs
  ``max(depth, 1)`` reads, where ``depth`` is its distance from its
  root when the round starts;
* every further find of that endpoint in the same round hits the
  memoized (compressed) entry and costs 1 read.

No vertex outside the batch is ever charged.  The all-vertex
reference instead charges the historical pointer-jumping quantity
(one read per still-moving vertex per doubling round over all n),
which is what the issue calls the O(n)-per-round accounting skew.
"""

from __future__ import annotations

import numpy as np

from ..core.backends import get_backend
from ..instrument.counters import OpCounters

__all__ = ["DisjointSet", "pointer_jump_roots", "link_roots",
           "flatten_parents", "shortcut_parents", "resolve_roots_local",
           "union_edge_batch", "charge_union", "charge_finds"]


class DisjointSet:
    """Scalar union-find with union-by-rank and path halving."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be non-negative")
        self.parent = np.arange(n, dtype=np.int64)
        self.rank = np.zeros(n, dtype=np.int8)
        self._num_sets = n

    def find(self, x: int) -> int:
        """Root of x's set, halving the path along the way."""
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = int(p[x])
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of a and b; True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self._num_sets -= 1
        return True

    def same_set(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    @property
    def num_sets(self) -> int:
        return self._num_sets

    def labels(self) -> np.ndarray:
        """Root id of every element (fully compressed)."""
        return flatten_parents(self.parent.copy())


# -- shared counter recipes ------------------------------------------------

def charge_finds(counters: OpCounters, hops: int) -> None:
    """Charge ``hops`` union-find root-resolution reads.

    Each hop is a serially-dependent random parent read feeding the
    next one, so it lands in ``dependent_accesses`` (priced without
    memory-level parallelism by the cost model) and ``label_reads``.
    """
    counters.dependent_accesses += hops
    counters.label_reads += hops


def charge_union(counters: OpCounters, edges: int, links: int, hops: int,
                 *, endpoint_reads: int = 1) -> None:
    """The one per-edge accounting recipe for a union-edge batch.

    ``edges`` edges were offered, ``links`` roots were actually linked
    and ``hops`` dependent parent reads resolved the endpoint roots
    (see the module docstring for the hops contract).
    ``endpoint_reads`` is the random endpoint gathers per edge: 1 when
    the source side comes off a worklist scan (Afforest's neighbour
    rounds, ConnectIt sampling/skip-giant), 2 when both endpoints are
    gathered from an edge list (JT, all-edges finish).
    """
    counters.edges_processed += edges
    counters.random_accesses += endpoint_reads * edges
    counters.label_reads += endpoint_reads * edges
    counters.cas_attempts += edges
    counters.branches += edges
    counters.unpredictable_branches += edges
    counters.record_cas_successes(links)
    charge_finds(counters, hops)


# -- root resolution -------------------------------------------------------

def resolve_roots_local(parent: np.ndarray,
                        vertices: np.ndarray) -> tuple[np.ndarray, int]:
    """Roots of exactly the given vertices (duplicates welcome).

    Restricted pointer jumping: only the touched entries and their
    ancestor chains are walked; the rest of the parent array is never
    read.  Touched entries are path-compressed in place (the memoized
    per-batch root cache), which never changes any vertex's root.

    Returns ``(roots, hops)`` with ``roots`` aligned to ``vertices``
    and ``hops`` following the sequential-find contract: ``max(depth,
    1)`` reads for the first find of each distinct vertex, 1 read for
    each repeat find within the batch.
    """
    vertices = np.asarray(vertices)
    if vertices.size == 0:
        return np.empty(0, dtype=parent.dtype), 0
    if vertices.size >= parent.size // 8:
        # Large batch: dedupe with a byte stamp instead of a sort.
        # The memset is O(n) but linear-scan cheap; the batch itself
        # is already a constant fraction of n here, so the round stays
        # O(touched) up to that scan.
        seen = np.zeros(parent.size, dtype=bool)
        seen[vertices] = True
        uniq = np.flatnonzero(seen)
    else:
        # Sort-based dedupe: O(touched log touched), independent of n.
        uniq = np.sort(vertices)
        keep = np.empty(uniq.size, dtype=bool)
        keep[0] = True
        np.not_equal(uniq[1:], uniq[:-1], out=keep[1:])
        uniq = uniq[keep]
    roots = parent[uniq]
    hops = int(vertices.size)           # every find reads parent[x] once
    walking = np.flatnonzero(parent[roots] != roots)
    while walking.size:
        hops += int(walking.size)
        nxt = parent[roots[walking]]
        roots[walking] = nxt
        walking = walking[parent[nxt] != nxt]
    parent[uniq] = roots                # memoized compression
    # Every occurrence now reads its compressed entry straight off.
    return parent[vertices], hops


def pointer_jump_roots(parent: np.ndarray) -> tuple[np.ndarray, int]:
    """Roots of all elements via repeated parent[parent] jumping.

    The all-vertex reference: returns ``(roots, hops)`` where ``hops``
    is the total number of dependent parent reads a per-element
    sequential walk would have made — the historical quantity the
    ``local=False`` paths charge for find operations.
    """
    roots = parent.copy()
    hops = 0
    while True:
        nxt = roots[roots]
        moved = nxt != roots
        n_moved = int(np.count_nonzero(moved))
        hops += n_moved
        if n_moved == 0:
            return roots, hops
        roots = nxt


def shortcut_parents(parent: np.ndarray, *,
                     local: bool = True) -> tuple[int, int]:
    """Pointer-jump every tree to depth <= 1, in place.

    The SV shortcut / final flatten.  Returns ``(rounds, touched)``:
    ``rounds`` is the number of jump rounds in which anything moved and
    ``touched`` the total entries rewritten across those rounds — the
    writes actually performed, which is what the touched-set accounting
    charges.

    ``local=True`` restricts each round to the not-yet-flat entries
    (an entry is flat once its parent is a root, and flatness is
    monotone under shortcutting, so the active set only shrinks);
    ``local=False`` recomputes the full ``parent[parent]`` array every
    round, the historical reference.  Both produce bit-identical
    arrays: updating a flat entry is a no-op.
    """
    rounds = 0
    touched = 0
    if local:
        active = np.flatnonzero(parent[parent] != parent)
        while active.size:
            rounds += 1
            touched += int(active.size)
            parent[active] = parent[parent[active]]
            still = parent[parent[active]] != parent[active]
            active = active[still]
        return rounds, touched
    while True:
        nxt = parent[parent]
        moved = int(np.count_nonzero(nxt != parent))
        if moved == 0:
            return rounds, touched
        rounds += 1
        touched += moved
        parent[:] = nxt


def flatten_parents(parent: np.ndarray) -> np.ndarray:
    """Fully compress a parent array in place; returns it.

    Touched-set jumping under the hood (:func:`shortcut_parents` with
    ``local=True``): after one discovery sweep, only non-flat entries
    are revisited — the result is bit-identical to the historical
    full-array fixpoint loop.
    """
    shortcut_parents(parent, local=True)
    return parent


def union_edge_batch(parent: np.ndarray, eu: np.ndarray, ev: np.ndarray,
                     *, priority: np.ndarray | None = None,
                     max_rounds: int = 10_000,
                     local: bool = True,
                     kb=None) -> tuple[int, int]:
    """Union a batch of edges to quiescence (linearized rounds).

    Returns ``(links, hops)``: successful links and the find cost the
    callers charge to their counters (see the module docstring; the
    meaning of ``hops`` depends on ``local``).  ``priority`` selects
    randomized linking (JT) instead of link-to-smaller-id.

    ``local=True`` resolves roots only for the endpoints still in the
    batch each round — O(touched) per round; ``local=False`` is the
    all-vertex reference.  Both produce identical links and final
    labels.  ``kb`` is the kernel backend the link scatter dispatches
    through (default: the canonical numpy backend).
    """
    links = 0
    hops = 0
    rounds = 0
    while eu.size and rounds < max_rounds:
        rounds += 1
        if local:
            touched = np.concatenate((eu, ev))
            troots, h = resolve_roots_local(parent, touched)
            hops += h
            ru, rv = troots[:eu.size], troots[eu.size:]
        else:
            roots, h = pointer_jump_roots(parent)
            hops += h
            ru, rv = roots[eu], roots[ev]
        cross = ru != rv
        eu, ev = eu[cross], ev[cross]
        ru, rv = ru[cross], rv[cross]
        if eu.size == 0:
            break
        links += link_roots(parent, ru, rv, priority, kb=kb)
    if eu.size:
        raise RuntimeError("union batch failed to converge")
    return links, hops


def link_roots(parent: np.ndarray,
               a_roots: np.ndarray,
               b_roots: np.ndarray,
               priority: np.ndarray | None = None,
               *, kb=None) -> int:
    """Linearized batch of concurrent root links.

    For each pair, the root with the larger priority value is pointed
    at the one with the smaller (priority defaults to the vertex id,
    i.e. link-to-smaller-id, the LP minimum convention).  Conflicting
    links to the same loser keep the best winner, matching the winner
    of a CAS loop.  Returns the number of roots actually linked.

    Acyclicity: parent pointers always lead to strictly smaller
    priority, so no cycle can form within or across batches.

    Contract: a batch may re-link an element that stopped being a root
    earlier in the same batch, which can temporarily split a merged
    set — exactly as racy concurrent hooking does.  Callers must loop
    until no edge crosses two sets (as SV/JT/Afforest all do).

    The id-priority link is one atomic-min scatter with per-slot
    success counting; it dispatches through ``kb`` (default: the
    canonical numpy backend).
    """
    if priority is None:
        # Smaller id = higher priority (becomes the winner/parent).
        lo = np.minimum(a_roots, b_roots)
        hi = np.maximum(a_roots, b_roots)
    else:
        a_first = priority[a_roots] < priority[b_roots]
        lo = np.where(a_first, a_roots, b_roots)
        hi = np.where(a_first, b_roots, a_roots)
    mask = lo != hi
    lo, hi = lo[mask], hi[mask]
    if hi.size == 0:
        return 0
    if priority is None:
        return (kb or get_backend()).scatter_min_count(parent, hi, lo)
    # Keep, per loser, the winner with the best (lowest) priority.
    order = np.lexsort((priority[lo], hi))
    hi_sorted = hi[order]
    lo_sorted = lo[order]
    first = np.ones(hi_sorted.size, dtype=bool)
    first[1:] = hi_sorted[1:] != hi_sorted[:-1]
    losers = hi_sorted[first]
    winners = lo_sorted[first]
    changed = parent[losers] != winners
    parent[losers[changed]] = winners[changed]
    return int(np.count_nonzero(changed))
