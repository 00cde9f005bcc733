"""BFS-CC [30]: one direction-optimizing BFS per component.

Flood-filling CC: repeatedly pick the lowest-id unvisited vertex and
run a direction-optimizing (push/pull a.k.a. top-down/bottom-up) BFS
labelling everything reachable.  Strong on a single low-diameter
component; weak when the graph has many components (per-component
launch + per-level barrier costs) or a high diameter (many levels) —
both visible in Table IV.

Direction switching follows Beamer's heuristic: go bottom-up when the
frontier's out-edges exceed the unexplored edges / alpha; return
top-down when the frontier shrinks below |V| / beta.
"""

from __future__ import annotations

import numpy as np

from ..core.backends import get_backend
from ..core.result import CCResult
from ..graph.csr import CSRGraph
from ..instrument.counters import OpCounters
from ..instrument.trace import Direction, IterationRecord, RunTrace
from ..parallel.machine import SKYLAKEX, MachineSpec

__all__ = ["bfs_cc"]

_ALPHA = 14        # top-down -> bottom-up switch (Beamer)
_BETA = 24         # bottom-up -> top-down switch


def _first_hit_lengths(counts: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Per-segment scan length until the first True in ``hit``.

    ``counts`` are segment lengths partitioning ``hit``; returns, per
    segment, the 1-based position of its first hit, or the full length
    when it has none.
    """
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    ends = offsets + counts
    hit_pos = np.flatnonzero(hit)
    if hit_pos.size == 0:
        return counts.copy()
    k = np.searchsorted(hit_pos, offsets, side="left")
    k_clip = np.minimum(k, hit_pos.size - 1)
    first = hit_pos[k_clip]
    has = (k < hit_pos.size) & (first < ends)
    return np.where(has, first - offsets + 1, counts)


def bfs_cc(graph: CSRGraph, *,
           machine: MachineSpec = SKYLAKEX,
           dataset: str = "") -> CCResult:
    """Run BFS-CC; labels are the seed (minimum) vertex id per component.

    ``machine`` is accepted for front-door uniformity; execution is
    machine-independent (the cost model applies it at timing).
    """
    del machine
    n = graph.num_vertices
    trace = RunTrace(algorithm="bfs-cc", dataset=dataset)
    comp = np.full(n, -1, dtype=np.int64)
    trace.setup_counters.sequential_accesses += n
    trace.setup_counters.label_writes += n
    if n == 0:
        return CCResult(labels=comp, trace=trace)
    kb = get_backend()
    degrees = graph.degrees
    total_edges = graph.num_edges
    explored_edges = 0
    visited_count = 0
    next_seed = 0

    while visited_count < n:
        while comp[next_seed] != -1:
            next_seed += 1
        seed = next_seed
        comp[seed] = seed
        visited_count += 1
        frontier = np.array([seed], dtype=np.int64)
        bottom_up = False
        while frontier.size:
            counters = OpCounters()
            frontier_edges = int(degrees[frontier].sum())
            unexplored = total_edges - explored_edges
            if not bottom_up and frontier_edges > unexplored / _ALPHA:
                bottom_up = True
            elif bottom_up and frontier.size < n / _BETA:
                bottom_up = False

            if bottom_up:
                # Every unvisited vertex scans until a frontier neighbour.
                in_frontier = np.zeros(n, dtype=bool)
                in_frontier[frontier] = True
                unvisited = np.flatnonzero(comp == -1)
                targets, counts = kb.concat_adjacency(graph, unvisited)
                hit = in_frontier[targets]
                scan = _first_hit_lengths(counts, hit)
                joined_mask = np.zeros(unvisited.size, dtype=bool)
                if targets.size:
                    # a vertex joined iff its scan ended on a hit
                    offsets = np.zeros(counts.size, dtype=np.int64)
                    np.cumsum(counts[:-1], out=offsets[1:])
                    pos = offsets + scan - 1
                    valid = counts > 0
                    joined_mask[valid] = hit[pos[valid]]
                new = unvisited[joined_mask]
                edges_scanned = int(scan.sum())
                counters.record_pull_scan(edges_scanned,
                                          int(unvisited.size))
                direction = Direction.PULL
            else:
                targets, counts = kb.concat_adjacency(graph, frontier)
                fresh = targets[comp[targets] == -1]
                new = np.unique(fresh).astype(np.int64)
                edges_scanned = int(targets.size)
                counters.record_push_scan(edges_scanned,
                                          int(frontier.size))
                counters.cas_attempts += int(targets.size)
                direction = Direction.PUSH

            if new.size:
                comp[new] = seed
                visited_count += int(new.size)
                counters.record_label_commits(int(new.size), random=True)
                counters.record_frontier_updates(int(new.size))
            explored_edges += frontier_edges
            counters.iterations = 1
            trace.add(IterationRecord(
                index=trace.num_iterations,
                direction=direction,
                density=(frontier.size + frontier_edges) / max(total_edges, 1),
                active_vertices=int(frontier.size),
                active_edges=frontier_edges,
                changed_vertices=int(new.size),
                converged_fraction=visited_count / n,
                counters=counters,
            ))
            frontier = new
    return CCResult(labels=comp, trace=trace)
