"""Deterministic work-stealing schedule simulator (paper Section V-A).

The paper's runtime: a thread processes its own partitions in
*ascending* order, then steals from threads on the same NUMA node, and
finally from other NUMA nodes, taking victims' partitions in
*descending* order (to preserve the victim's locality).

Real work stealing is timing-dependent; this simulator replaces wall
time with a deterministic event-driven clock: each thread accumulates
the work (e.g. edge count) of the partitions it claims, and the thread
with the lowest clock claims next (ties broken by thread id).  This
preserves the two properties the algorithms observe:

1. the *visit order* of partitions (each processed exactly once per
   parallel-for), and
2. which thread executes which partition (for thread-local data such
   as per-thread max-degree reductions and local worklists).

Kernels replay the resulting order sequentially, which is what makes
in-place (unified-array) label updates reproducible.  Section IV-E
drains the push worklists with the same policy, so
:meth:`~repro.parallel.worklist.LocalWorklists.drain_order` and the
partition schedule share one replay, :func:`steal_replay`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .machine import MachineSpec
from .partition import Partitioning

__all__ = ["ScheduleStep", "WorkStealingScheduler", "steal_replay"]


def steal_replay(queues: list[list[int]], weights: np.ndarray,
                 nodes: list[int] | None = None
                 ) -> list[tuple[int, int, bool, float]]:
    """Replay the runtime's work-stealing policy on an event clock.

    ``queues[i]`` lists the items thread ``i`` owns, in the order it
    takes them; ``weights[item]`` is an item's duration and ``nodes[i]``
    thread ``i``'s NUMA node (omitted: one node, as for the push
    worklists).  The lowest-clock thread claims next (ties by thread
    id): its own next item, or else the *last* unclaimed item of the
    most-loaded victim, preferring victims on its own node (ties to
    the lowest id).  A thread with nothing left to steal idles out.

    Returns the claims ``(thread, item, stolen, start_time)`` in order.
    """
    t = len(queues)
    home = nodes if nodes is not None else [0] * t
    weights = np.asarray(weights, dtype=np.float64)
    w = weights.tolist()
    heads = [0] * t                    # own work consumed from the front
    tails = [len(q) for q in queues]   # steals consume from the back
    load = [float(weights[q].sum()) for q in queues]
    clocks = [(0.0, i) for i in range(t)]   # sorted, hence a heap
    claims: list[tuple[int, int, bool, float]] = []
    total = sum(tails)
    while len(claims) < total:
        now, thread = heapq.heappop(clocks)
        if heads[thread] < tails[thread]:
            owner, stolen = thread, False
            item = queues[thread][heads[thread]]
            heads[thread] += 1
        else:
            owner, best, mine = -1, (-1, -1.0), home[thread]
            for v in range(t):
                if v != thread and heads[v] < tails[v]:
                    key = (home[v] == mine, load[v])
                    if key > best:
                        owner, best = v, key
            if owner < 0:
                continue
            stolen = True
            tails[owner] -= 1
            item = queues[owner][tails[owner]]
        load[owner] -= w[item]
        claims.append((thread, item, stolen, now))
        heapq.heappush(clocks, (now + w[item], thread))
    return claims


@dataclass(frozen=True)
class ScheduleStep:
    """One simulated unit of work: a thread claiming a partition."""

    thread_id: int
    partition_id: int
    stolen: bool
    start_time: float


class WorkStealingScheduler:
    """Deterministic NUMA-aware work-stealing order.

    Parameters
    ----------
    partitioning:
        Edge-balanced partitioning to execute.
    machine:
        Supplies the NUMA topology used by the victim-selection policy.
    """

    def __init__(self, partitioning: Partitioning,
                 machine: MachineSpec) -> None:
        if partitioning.num_threads > machine.cores:
            raise ValueError(
                f"{partitioning.num_threads} threads exceed "
                f"{machine.cores} cores of {machine.name}")
        self.partitioning = partitioning
        self.machine = machine
        t = partitioning.num_threads
        self._queues = [list(partitioning.owned_by(i)) for i in range(t)]
        self._nodes = [machine.numa_node_of(i) for i in range(t)]

    def schedule(self, work: np.ndarray | None = None) -> list[ScheduleStep]:
        """Produce the deterministic claim order.

        ``work[p]`` is the simulated duration of partition ``p``
        (defaults to 1 per partition).  Stealing occurs whenever load
        is imbalanced: a thread that drains its own queue takes the
        *last* unclaimed partition of the most-loaded victim,
        preferring victims on its own NUMA node.
        """
        part = self.partitioning
        if work is None:
            work = np.ones(part.num_partitions, dtype=np.float64)
        else:
            work = np.asarray(work, dtype=np.float64)
            if work.shape != (part.num_partitions,):
                raise ValueError("work must have one entry per partition")
            if np.any(work < 0):
                raise ValueError("work must be non-negative")
        return [ScheduleStep(*claim) for claim in
                steal_replay(self._queues, work, self._nodes)]

    def partition_order(self, work: np.ndarray | None = None) -> np.ndarray:
        """Partition ids in simulated execution order."""
        return np.array([s.partition_id for s in self.schedule(work)],
                        dtype=np.int64)

    def makespan(self, work: np.ndarray) -> float:
        """Simulated parallel finish time of one parallel-for."""
        steps = self.schedule(work)
        if not steps:
            return 0.0
        work = np.asarray(work, dtype=np.float64)
        return max(s.start_time + float(work[s.partition_id])
                   for s in steps)
