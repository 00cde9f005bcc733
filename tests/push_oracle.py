"""Test-side references for the push iteration.

:class:`PerChunkEngine` is the engine with its push solve replaced by
the literal loop the paper's C code performs: one Python iteration
per ``block_size`` chunk in worklist order, each chunk an atomic-min
against the labels as earlier chunks left them, its changed set one
worklist batch on the chunk's owning thread.  The push solve must
match it bit for bit in labels, counters, work vectors, makespans,
worklist batches and drain orders.  Use :func:`per_chunk_pushes` to
run any front door on it.

:class:`RacyWorklists` models the unsynchronized byte-array race of
paper Section IV-E: a fraction ``rate`` of already-marked vertices is
enqueued anyway.  :func:`racy_worklists` installs it for every engine
run inside the block, to check the algorithms tolerate duplicate
enqueues.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np

from repro.core import engine
from repro.graph.coo import distinct
from repro.parallel import LocalWorklists


class PerChunkEngine(engine._Engine):
    """The engine with the per-chunk reference push."""

    def _push_chunks(self, active, cuts, chunk_part, read, worklists,
                     work):
        g = self.graph
        part = self.partitioning
        for i in range(chunk_part.size):
            chunk = active[cuts[i]:cuts[i + 1]]
            p = int(chunk_part[i])
            targets, deg = self.kb.concat_adjacency(g, chunk)
            work[p] += int(chunk.size) + int(targets.size)
            if targets.size == 0:
                self.counters.record_push_scan(0, int(chunk.size))
                continue
            values = np.repeat(read[chunk], deg)
            changed = self.kb.batch_atomic_min(
                self.labels, targets.astype(np.int64), values)
            self.counters.record_push_scan(int(targets.size),
                                           int(chunk.size))
            self.counters.record_cas_successes(int(changed.size))
            if changed.size:
                owner = part.owner_of(p)   # chunk's simulated thread
                enq = worklists.push_batches([owner], changed,
                                             [0, changed.size])
                self.counters.record_frontier_updates(enq)


@contextmanager
def per_chunk_pushes():
    """Make every engine run inside the block use :class:`PerChunkEngine`."""
    with mock.patch.object(engine, "_Engine", PerChunkEngine):
        yield


class RacyWorklists(LocalWorklists):
    """Worklists whose dedup byte array races: each already-marked
    vertex of a batch is enqueued again with probability ``rate``."""

    def __init__(self, num_vertices: int, num_threads: int, *,
                 rate: float, seed: int = 0) -> None:
        if not (0.0 <= rate < 1.0):
            raise ValueError("race_rate must be in [0, 1)")
        super().__init__(num_vertices, num_threads)
        self.rate = rate
        self._rng = np.random.default_rng(seed)

    def push_batches(self, threads, vertices, bounds) -> int:
        # One batch at a time, in order, so the rng draws follow the
        # batches exactly as the per-chunk loop makes them.
        bad = [t for t in threads if not 0 <= t < self.num_threads]
        if bad:
            raise ValueError(f"thread {bad[0]} out of range "
                             f"[0, {self.num_threads})")
        vertices = np.asarray(vertices, dtype=np.int64)
        total = 0
        for t, lo, hi in zip(threads, bounds[:-1], bounds[1:]):
            batch = distinct(vertices[lo:hi])
            fresh = self._enqueued[batch] == 0
            take = batch[fresh]
            if self.rate > 0.0:
                dupes = batch[~fresh]
                if dupes.size:
                    raced = dupes[self._rng.random(dupes.size) < self.rate]
                    take = np.concatenate([take, raced])
            if take.size:
                self._enqueued[take] = 1
                self._lists[int(t)].append(take)
                total += int(take.size)
        return total


@contextmanager
def racy_worklists(rate: float):
    """Give every engine push inside the block :class:`RacyWorklists`
    at ``rate``, freshly seeded per push iteration."""
    with mock.patch.object(engine, "LocalWorklists",
                           partial(RacyWorklists, rate=rate)):
        yield
