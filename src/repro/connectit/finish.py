"""ConnectIt finish strategies.

After sampling merged most of the giant component, a finish strategy
completes the components:

* ``skip-giant`` — identify the most frequent sampled component and
  union only the edges of vertices outside it (Afforest's phase 3;
  ConnectIt's most effective finish on skewed graphs);
* ``all-edges`` — union every remaining edge (the safe baseline);
* ``thrifty-pull`` — run Thrifty-style zero-convergent label
  propagation seeded from the sampled components: the sampled roots
  are flattened into labels, the largest component's label is mapped
  to zero, and the LP engine finishes propagation.  This is the
  hybrid the paper's framing invites (sampling + LP finish).

Union work is charged through the shared
:func:`repro.baselines.disjoint_set.charge_union` recipe and sampled
finds through :func:`charge_finds` — the same convention as every
other union call site, so counter streams stay comparable across the
design space.  ``local`` (default True) selects worklist-local root
resolution; ``local=False`` is the all-vertex reference with
identical links and labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.disjoint_set import (
    charge_finds,
    charge_union,
    flatten_parents,
    pointer_jump_roots,
    resolve_roots_local,
    union_edge_batch,
)
from ..core.backends import get_backend
from ..graph.csr import CSRGraph
from ..instrument.counters import OpCounters

__all__ = ["FinishOutcome", "FINISH_STRATEGIES",
           "finish_skip_giant", "finish_all_edges", "finish_thrifty_pull"]


@dataclass
class FinishOutcome:
    """Result of a finish phase: final labels plus its work record."""

    labels: np.ndarray
    counters: OpCounters
    edges_processed: int


def _sampled_giant(parent: np.ndarray, sample_size: int, seed: int,
                   local: bool) -> tuple[np.ndarray, int, int]:
    """(all roots, most frequent sampled root, sampled-find hops).

    The hops are the modelled find cost of exactly the sampled
    vertices (worklist-local resolution); the all-vertex reference
    keeps the historical flat two-hops-per-sample charge.  The full
    roots view is a simulation device for the membership tests below
    and is not charged (the real algorithm folds that find into each
    vertex's finish-phase visit).
    """
    n = parent.size
    rng = np.random.default_rng(seed)
    sample = rng.integers(0, n, size=min(sample_size, n))
    if local:
        sample_roots, hops = resolve_roots_local(parent, sample)
    else:
        all_roots, _ = pointer_jump_roots(parent)
        sample_roots = all_roots[sample]
        hops = 2 * int(sample.size)
    giant = int(np.bincount(sample_roots).argmax())
    roots, _ = pointer_jump_roots(parent)
    return roots, giant, hops


def finish_skip_giant(graph: CSRGraph, parent: np.ndarray,
                      *, sample_size: int = 1024,
                      seed: int = 0, local: bool = True) -> FinishOutcome:
    """Afforest-style finish: only non-giant vertices touch their edges."""
    counters = OpCounters()
    n = graph.num_vertices
    if n == 0:
        return FinishOutcome(parent, counters, 0)
    roots, giant, find_hops = _sampled_giant(parent, sample_size, seed,
                                             local)
    charge_finds(counters, find_hops)
    outside = np.flatnonzero(roots != giant)
    total = 0
    if outside.size:
        targets, counts = get_backend().concat_adjacency(graph, outside)
        sources = np.repeat(outside, counts)
        if targets.size:
            links, hops = union_edge_batch(parent, sources,
                                           targets.astype(np.int64),
                                           local=local)
            total = int(targets.size)
            charge_union(counters, total, links, hops)
    counters.sequential_accesses += n
    counters.label_writes += n
    return FinishOutcome(flatten_parents(parent), counters, total)


def finish_all_edges(graph: CSRGraph, parent: np.ndarray,
                     *, seed: int = 0, local: bool = True) -> FinishOutcome:
    """Union every edge — correct regardless of sampling quality."""
    counters = OpCounters()
    src = graph.edge_sources()
    dst = graph.indices.astype(np.int64)
    once = src < dst
    eu, ev = src[once], dst[once]
    total = int(eu.size)
    if total:
        links, hops = union_edge_batch(parent, eu, ev, local=local)
        charge_union(counters, total, links, hops, endpoint_reads=2)
    n = graph.num_vertices
    counters.sequential_accesses += n
    counters.label_writes += n
    return FinishOutcome(flatten_parents(parent), counters, total)


def finish_thrifty_pull(graph: CSRGraph, parent: np.ndarray,
                        *, sample_size: int = 1024,
                        seed: int = 0, local: bool = True) -> FinishOutcome:
    """Finish with zero-convergent label propagation.

    The sampled components become the initial labels (root id + 1);
    the most frequent sampled component gets label 0 (Zero Planting on
    a *component* rather than a single hub).  A zero-convergent,
    unified-array pull loop then completes all components at once.
    """
    counters = OpCounters()
    n = graph.num_vertices
    if n == 0:
        return FinishOutcome(parent, counters, 0)
    roots, giant, find_hops = _sampled_giant(parent, sample_size, seed,
                                             local)
    charge_finds(counters, find_hops)
    labels = roots.astype(np.int64) + 1
    labels[roots == giant] = 0
    counters.sequential_accesses += n
    counters.label_writes += n
    total = 0
    kb = get_backend()
    while True:
        new, changed, lengths = kb.pull_block_zero_cut(graph, labels, 0, n)
        scanned = int(lengths.sum())
        counters.record_pull_scan(scanned, n)
        total += scanned
        if not changed.any():
            break
        labels[changed] = new[changed]
        counters.record_label_commits(int(changed.sum()), random=False)
    return FinishOutcome(labels, counters, total)


FINISH_STRATEGIES = {
    "skip-giant": finish_skip_giant,
    "all-edges": finish_all_edges,
    "thrifty-pull": finish_thrifty_pull,
}
