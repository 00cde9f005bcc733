"""Test-side reference for the unified-labels (in-place) pull.

:class:`PerBlockEngine` is the engine with its in-place pull replaced
by the literal sweep the paper's C loops perform: one Python
iteration per block, partitions in schedule order, each block
evaluated from the labels as every earlier block left them and
committed before the next.  It is the model both production
strategies must match bit for bit — the fixpoint solve on resident
graphs and the windowed sweep on streamed ones — in labels,
counters, work vectors, makespans and frontiers.

It gathers every block on every pull, converged or not, so on a
streamed graph it is also the no-skip baseline the out-of-core fetch
counts are measured against.

Use :func:`per_block_pulls` to run any front door (``thrifty_cc``,
``label_propagation_cc``, ``connected_components``) on the oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.core import engine


class PerBlockEngine(engine._Engine):
    """The engine with the per-block reference pull."""

    def _sweep(self, read, counts, detailed, zero, work):
        g = self.graph
        kb = self.kb
        for p in self.partition_order:
            p = int(p)
            lo_p, hi_p = self.partitioning.vertex_range(p)
            for lo in range(lo_p, hi_p, self.opts.block_size):
                hi = min(lo + self.opts.block_size, hi_p)
                if zero:
                    skip = read[lo:hi] == 0
                    scanned = kb.pull_block_zero_cut(g, read, lo, hi,
                                                     skip)[2]
                    edges = int(scanned.sum())
                else:
                    edges = int(g.indptr[hi] - g.indptr[lo])
                new, _ = kb.pull_block(g, read, lo, hi)
                # Block-async: a thread's sequential sweep floods
                # each internal component within the iteration.
                new = kb.block_async_min(new, self.groups[lo:hi] - lo)
                changed = new < read[lo:hi]
                self.counters.record_pull_scan(edges, hi - lo)
                work[p] += edges + (hi - lo)
                self._commit_rows(lo, new, changed, counts, detailed)

    # Both production strategies of the in-place pull: the resident
    # fixpoint and the streamed windowed sweep.
    _pull_fixpoint = _pull_blocks_fused = _sweep


@contextmanager
def per_block_pulls():
    """Make every engine run inside the block use :class:`PerBlockEngine`."""
    with mock.patch.object(engine, "_Engine", PerBlockEngine):
        yield


def reference_cc(graph, opts=None, **kwargs):
    """:func:`repro.core.engine.label_propagation_cc` on the oracle."""
    with per_block_pulls():
        return engine.label_propagation_cc(graph, opts, **kwargs)
