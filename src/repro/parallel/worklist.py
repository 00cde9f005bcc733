"""Per-thread local worklists with a shared dedup byte array.

Paper Section IV-E: push iterations collect next-frontier vertices into
*thread-local worklists*; a *shared byte array* (written without
atomics) marks vertices already enqueued anywhere.  Races may enqueue a
vertex twice — harmless for correctness, and the paper accepts it.  In
the deterministic simulation there are no real races, so the dedup is
exact; the tests inject duplicate enqueues with a subclass
(``tests/push_oracle.py``) to check the algorithms tolerate them.

Threads drain their own worklist first (batches front-to-back), then
steal whole batches from others (ascending own, descending victims —
same most-loaded-victim policy as the partition scheduler).
"""

from __future__ import annotations

import numpy as np

from ..graph.coo import distinct
from .scheduler import steal_replay

__all__ = ["LocalWorklists"]


class LocalWorklists:
    """The Section IV-E push-frontier data structure."""

    def __init__(self, num_vertices: int, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads
        # The shared byte array: 1 = already enqueued somewhere.
        self._enqueued = np.zeros(num_vertices, dtype=np.uint8)
        self._lists: list[list[np.ndarray]] = [[] for _ in range(num_threads)]

    def push_batch(self, thread_id: int, vertices: np.ndarray) -> int:
        """Thread ``thread_id`` enqueues vertices not yet marked.

        Returns how many were actually enqueued.
        """
        if not (0 <= thread_id < self.num_threads):
            raise ValueError(f"thread {thread_id} out of range "
                             f"[0, {self.num_threads})")
        vertices = np.asarray(vertices, dtype=np.int64)
        if vertices.size == 0:
            return 0
        vertices = distinct(vertices)
        take = vertices[self._enqueued[vertices] == 0]
        if take.size == 0:
            return 0
        self._enqueued[take] = 1
        self._lists[thread_id].append(take)
        return int(take.size)

    def total_enqueued(self) -> int:
        return int(sum(arr.size for lst in self._lists for arr in lst))

    def thread_vertices(self, thread_id: int) -> np.ndarray:
        """All vertices currently queued on one thread."""
        lst = self._lists[thread_id]
        if not lst:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(lst)

    def thread_batches(self, thread_id: int) -> list[np.ndarray]:
        """One thread's batches in enqueue order (copies).

        Each push chunk that enqueued anything contributed exactly one
        batch, so the batch structure is a simulation observable: tests
        use it to check chunk-to-thread attribution.
        """
        return [arr.copy() for arr in self._lists[thread_id]]

    def drain_order(self) -> np.ndarray:
        """Vertices in the order the work-stealing drain visits them.

        Deterministic replay of the Section IV-E drain through the
        partition scheduler's :func:`~repro.parallel.scheduler.steal_replay`
        (minus the NUMA tier — worklists carry no topology), weighting
        each batch by its size: each thread consumes its own batches
        front-to-back; a thread that runs dry steals the most-loaded
        victim's *last* batch, preserving the victim's own
        front-to-back locality.  Consumers must tolerate duplicates
        (a racing enqueue), as the paper's algorithm does.
        """
        batches = [b for lst in self._lists for b in lst]
        if not batches:
            return np.empty(0, dtype=np.int64)
        queues, first = [], 0
        for lst in self._lists:
            queues.append(list(range(first, first + len(lst))))
            first += len(lst)
        sizes = np.array([b.size for b in batches], dtype=np.float64)
        return np.concatenate([batches[item] for _, item, _, _ in
                               steal_replay(queues, sizes)])
