"""Afforest [22] — subgraph sampling + giant-component skipping.

Afforest exploits the same structural property as Thrifty (the giant
component of skewed graphs), on the disjoint-set side:

1. *Neighbour rounds*: union every vertex with its first
   ``neighbor_rounds`` (default 2) neighbours only — a cheap sampled
   spanning forest that already merges most of the giant component.
2. *Component sampling*: sample vertices, find the most frequent
   component c.
3. *Final phase*: only vertices **outside** c process their remaining
   edges; members of the giant component skip theirs entirely.

Cost accounting mirrors the real algorithm via the shared
:func:`charge_union` recipe: the actually-offered phase-1 edges (not
``neighbor_rounds * |V|`` — rounds can break early and degrees can be
short), the find cost of the *sampled* vertices in phase 2, and in
phase 3 the remaining degrees of non-giant vertices — which on the
paper's graphs is a tiny fraction of |E| (that is why Afforest is the
strongest baseline).  ``local=True`` (default) resolves roots only
for touched endpoints (see repro.baselines.disjoint_set);
``local=False`` keeps the historical all-vertex reference with its
flat ``2 x sample_size`` phase-2 charge.  Labels and link counts are
identical either way.
"""

from __future__ import annotations

import numpy as np

from ..core.result import CCResult
from ..graph.csr import CSRGraph
from ..instrument.counters import OpCounters
from ..instrument.trace import Direction, IterationRecord, RunTrace
from ..core.backends import get_backend
from ..parallel.machine import SKYLAKEX, MachineSpec
from .disjoint_set import (
    charge_finds,
    charge_union,
    flatten_parents,
    pointer_jump_roots,
    resolve_roots_local,
    union_edge_batch,
)

__all__ = ["afforest_cc", "validate_afforest"]


def validate_afforest(neighbor_rounds: int, sample_size: int) -> None:
    """Reject sampling parameters that would corrupt the run: a
    negative round reads the previous row's edges in phase 3, and an
    empty sample has no most frequent component."""
    if neighbor_rounds < 0:
        raise ValueError("neighbor_rounds must be >= 0")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")


def afforest_cc(graph: CSRGraph, *, neighbor_rounds: int = 2,
                sample_size: int = 1024, seed: int = 0,
                machine: MachineSpec = SKYLAKEX,
                dataset: str = "", local: bool = True,
                backend: str | None = None) -> CCResult:
    """Run Afforest; labels are fully-compressed parent ids.

    ``machine`` is accepted for front-door uniformity; execution is
    machine-independent (the cost model applies it at timing).
    ``backend`` selects the kernel backend for the union scatters;
    results are bit-identical across backends.
    """
    del machine
    validate_afforest(neighbor_rounds, sample_size)
    kb = get_backend(backend)
    n = graph.num_vertices
    trace = RunTrace(algorithm="afforest", dataset=dataset)
    parent = np.arange(n, dtype=np.int64)
    trace.setup_counters.sequential_accesses += n
    trace.setup_counters.label_writes += n
    if n == 0:
        return CCResult(labels=parent, trace=trace)
    degrees = graph.degrees

    # --- phase 1: neighbour rounds ------------------------------------
    phase1 = OpCounters()
    phase1_edges = 0
    for r in range(neighbor_rounds):
        has = np.flatnonzero(degrees > r)
        if has.size == 0:
            break
        nbr_r = graph.indices[graph.indptr[has] + r].astype(np.int64)
        links, hops = union_edge_batch(parent, has, nbr_r, local=local,
                                       kb=kb)
        charge_union(phase1, int(has.size), links, hops)
        phase1_edges += int(has.size)
    phase1.iterations = 1
    trace.add(IterationRecord(
        index=0, direction=Direction.PUSH, density=1.0,
        active_vertices=n, active_edges=phase1_edges,
        changed_vertices=n, converged_fraction=0.0, counters=phase1))

    # --- phase 2: sample the giant component --------------------------
    phase2 = OpCounters()
    rng = np.random.default_rng(seed)
    sample = rng.integers(0, n, size=min(sample_size, n))
    if local:
        # Charge the modelled find cost of exactly the sampled
        # vertices — what the real algorithm's sampled finds pay.
        sample_roots, sample_hops = resolve_roots_local(parent, sample)
        charge_finds(phase2, sample_hops)
    else:
        all_roots, _ = pointer_jump_roots(parent)
        sample_roots = all_roots[sample]
        phase2.dependent_accesses += int(sample.size) * 2  # flat charge
        phase2.label_reads += int(sample.size) * 2
    giant = int(np.bincount(sample_roots).argmax())
    # Full membership view for the skip test below; a simulation
    # device shared by both paths (the real algorithm folds this find
    # into each vertex's phase-3 visit), so it is not charged.
    roots, _ = pointer_jump_roots(parent)
    phase2.iterations = 1
    trace.add(IterationRecord(
        index=1, direction=Direction.PUSH, density=0.0,
        active_vertices=int(sample.size), active_edges=0,
        changed_vertices=0,
        converged_fraction=float(np.count_nonzero(roots == giant) / n),
        counters=phase2))

    # --- phase 3: finish everything outside the giant component -------
    phase3 = OpCounters()
    outside = np.flatnonzero(roots != giant)
    remaining_deg = np.maximum(degrees[outside] - neighbor_rounds, 0)
    active_edges = int(remaining_deg.sum())
    if outside.size:
        take = degrees[outside] > neighbor_rounds
        rows = outside[take]
        if rows.size:
            # Gather each remaining adjacency slice (beyond the first
            # neighbor_rounds entries already unioned in phase 1).
            counts = (degrees[rows] - neighbor_rounds).astype(np.int64)
            offsets = np.zeros(rows.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=offsets[1:])
            total = int(counts.sum())
            # Edge k of row i sits at indptr[rows[i]] + neighbor_rounds
            # + (k - offsets[i]): one repeat of the per-row shift.
            pos = (np.repeat(graph.indptr[rows] + neighbor_rounds
                             - offsets, counts)
                   + np.arange(total, dtype=np.int64))
            targets = graph.indices[pos].astype(np.int64)
            sources = np.repeat(rows, counts)
            links, hops = union_edge_batch(parent, sources, targets,
                                           local=local, kb=kb)
            charge_union(phase3, total, links, hops)
    phase3.sequential_accesses += n        # final compression pass
    phase3.label_writes += n
    phase3.iterations = 1
    trace.add(IterationRecord(
        index=2, direction=Direction.PUSH, density=0.0,
        active_vertices=int(outside.size), active_edges=active_edges,
        changed_vertices=int(outside.size),
        converged_fraction=1.0, counters=phase3))

    labels = flatten_parents(parent)
    return CCResult(labels=labels, trace=trace)
