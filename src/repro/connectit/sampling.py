"""ConnectIt sampling strategies (Dhulipala et al., VLDB 2021).

The paper's Related Work discusses ConnectIt — a framework combining
*sampling* strategies (cheaply union a subgraph so most of the giant
component is already merged) with *finish* strategies (complete the
remaining work, usually skipping the sampled giant component).  The
authors could not evaluate ConnectIt because its repository did not
compile; this subpackage implements the framework's design space so
the comparison the paper wanted can be run.

All strategies operate on a union-find parent array and return an
OpCounters-style record of the work they performed, charged through
the shared :func:`repro.baselines.disjoint_set.charge_union` recipe
(one accounting convention across every union call site in the repo):

* ``kout`` — union every vertex with its first k neighbours
  (Afforest's "neighbour rounds" is exactly k-out with k=2);
* ``bfs`` — run a BFS from the max-degree vertex for a bounded number
  of rounds, unioning tree edges (captures the hub's neighbourhood);
* ``ldd`` — low-diameter decomposition: multi-source BFS from random
  seeds growing disjoint clusters, unioning intra-cluster tree edges;
* ``none`` — no sampling (pure finish baseline).

Every strategy takes ``local`` (default True): worklist-local root
resolution inside ``union_edge_batch``; ``local=False`` is the
all-vertex reference with identical links and labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.disjoint_set import charge_union, union_edge_batch
from ..core.backends import get_backend
from ..graph.csr import CSRGraph
from ..instrument.counters import OpCounters

__all__ = ["SampleOutcome", "SAMPLING_STRATEGIES",
           "sample_kout", "sample_bfs", "sample_ldd", "sample_none"]


@dataclass
class SampleOutcome:
    """Result of a sampling phase."""

    counters: OpCounters
    edges_sampled: int

    @staticmethod
    def empty() -> "SampleOutcome":
        return SampleOutcome(OpCounters(), 0)


def sample_kout(graph: CSRGraph, parent: np.ndarray,
                *, k: int = 2, seed: int = 0,
                local: bool = True) -> SampleOutcome:
    """Union each vertex with its first ``k`` neighbours."""
    counters = OpCounters()
    total = 0
    degrees = graph.degrees
    for r in range(k):
        has = np.flatnonzero(degrees > r)
        if has.size == 0:
            break
        nbr = graph.indices[graph.indptr[has] + r].astype(np.int64)
        links, hops = union_edge_batch(parent, has, nbr, local=local)
        charge_union(counters, int(has.size), links, hops)
        total += int(has.size)
    return SampleOutcome(counters, total)


def sample_bfs(graph: CSRGraph, parent: np.ndarray,
               *, rounds: int = 3, seed: int = 0,
               local: bool = True) -> SampleOutcome:
    """BFS from the hub for ``rounds`` levels, unioning tree edges."""
    counters = OpCounters()
    n = graph.num_vertices
    if n == 0:
        return SampleOutcome.empty()
    hub = graph.max_degree_vertex()
    seen = np.zeros(n, dtype=bool)
    seen[hub] = True
    frontier = np.array([hub], dtype=np.int64)
    total = 0
    for _ in range(rounds):
        if frontier.size == 0:
            break
        dst, counts = get_backend().concat_adjacency(graph, frontier)
        if dst.size == 0:
            break
        src = np.repeat(frontier, counts)
        dst = dst.astype(np.int64)
        links, hops = union_edge_batch(parent, src, dst, local=local)
        charge_union(counters, int(dst.size), links, hops)
        total += int(dst.size)
        fresh = np.unique(dst[~seen[dst]])
        seen[fresh] = True
        frontier = fresh.astype(np.int64)
    return SampleOutcome(counters, total)


def sample_ldd(graph: CSRGraph, parent: np.ndarray,
               *, num_seeds: int | None = None, rounds: int = 4,
               seed: int = 0, local: bool = True) -> SampleOutcome:
    """Low-diameter decomposition sampling.

    Grows disjoint BFS clusters from random seeds for ``rounds``
    levels; edges claimed by a cluster are unioned.  Vertices are
    owned by whichever cluster reaches them first (ties: lower seed
    index), mirroring the shifted-start LDD construction.
    """
    counters = OpCounters()
    n = graph.num_vertices
    if n == 0:
        return SampleOutcome.empty()
    rng = np.random.default_rng(seed)
    k = num_seeds if num_seeds is not None else max(1, n // 16)
    seeds = rng.choice(n, size=min(k, n), replace=False)
    owner = np.full(n, -1, dtype=np.int64)
    owner[seeds] = seeds
    # Tie-break rank: the position of each seed in the draw order, so
    # simultaneous claims resolve toward the lower seed index.
    seed_rank = np.full(n, n, dtype=np.int64)
    seed_rank[seeds] = np.arange(seeds.size)
    frontier = np.unique(seeds).astype(np.int64)
    total = 0
    for _ in range(rounds):
        if frontier.size == 0:
            break
        dst, counts = get_backend().concat_adjacency(graph, frontier)
        src = np.repeat(frontier, counts)
        if dst.size == 0:
            break
        dst = dst.astype(np.int64)
        # Claim unowned targets; among same-round claims to one target
        # the cluster with the lowest seed index wins.
        unowned = owner[dst] < 0
        claim_src = src[unowned]
        claim_dst = dst[unowned]
        if claim_dst.size:
            rank = seed_rank[owner[claim_src]]
            order = np.lexsort((rank, claim_dst))
            cd = claim_dst[order]
            cs = claim_src[order]
            first = np.ones(cd.size, dtype=bool)
            first[1:] = cd[1:] != cd[:-1]
            winners_dst = cd[first]
            winners_src = cs[first]
            owner[winners_dst] = owner[winners_src]
            links, hops = union_edge_batch(parent, winners_src,
                                           winners_dst, local=local)
            charge_union(counters, int(dst.size), links, hops)
            total += int(dst.size)
            frontier = winners_dst
        else:
            counters.edges_processed += int(dst.size)
            counters.random_accesses += int(dst.size)
            total += int(dst.size)
            break
    return SampleOutcome(counters, total)


def sample_none(graph: CSRGraph, parent: np.ndarray,
                *, seed: int = 0, local: bool = True) -> SampleOutcome:
    """No sampling: the finish phase does all the work."""
    return SampleOutcome.empty()


SAMPLING_STRATEGIES = {
    "kout": sample_kout,
    "bfs": sample_bfs,
    "ldd": sample_ldd,
    "none": sample_none,
}
