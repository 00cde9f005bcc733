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

    def push_batches(self, threads: np.ndarray, vertices: np.ndarray,
                     bounds: np.ndarray) -> int:
        """Enqueue batch ``i``, ``vertices[bounds[i]:bounds[i + 1]]``, on
        thread ``threads[i]``, batches in order.

        The first batch holding an unmarked vertex enqueues it, each
        batch is queued ascending, and batches left empty add
        nothing.  Returns how many vertices were enqueued.
        """
        threads = np.asarray(threads, dtype=np.int64)
        vertices = np.asarray(vertices, dtype=np.int64)
        bad = threads[(threads < 0) | (threads >= self.num_threads)]
        if bad.size:
            raise ValueError(f"thread {bad[0]} out of range "
                             f"[0, {self.num_threads})")
        n = self._enqueued.size
        if vertices.size and (vertices.min() < 0 or vertices.max() >= n):
            raise ValueError(f"vertex id out of range [0, {n})")
        nb = threads.size
        batch = np.repeat(np.arange(nb), np.diff(bounds))
        # Vertex-major with the earliest batch first: a vertex's first
        # occurrence is the one that may enqueue it.
        order = np.argsort(vertices * nb + batch)
        v, b = vertices[order], batch[order]
        first = np.ones(v.size, dtype=bool)
        first[1:] = v[1:] != v[:-1]
        take = first & (self._enqueued[v] == 0)
        v, b = v[take], b[take]
        self._enqueued[v] = 1
        order = np.argsort(b * n + v)
        v = v[order]
        ends = np.searchsorted(b[order], np.arange(nb + 1))
        lists, owner, at = self._lists, threads.tolist(), ends.tolist()
        for i in np.flatnonzero(np.diff(ends)).tolist():
            lists[owner[i]].append(v[at[i]:at[i + 1]])
        return int(v.size)

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
