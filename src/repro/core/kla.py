"""K-Level Asynchronous (KLA) label propagation.

Paper Section VII: "We plan to apply Thrifty to a distributed
processing model like KLA [66].  Moreover, the unordered scheduling of
the vertices based on the KLA model can be used in a shared memory
system to provide better CPU utilization."

KLA (Harshvardhan et al.) parameterizes the synchrony spectrum: within
one *superstep*, updates may propagate up to ``k`` hops before the
global synchronization; ``k = 1`` is classic bulk-synchronous label
propagation, ``k -> inf`` is fully asynchronous execution.  Larger k
trades redundant work (labels recomputed inside the superstep) for
fewer barriers.

This module implements KLA-LP with Thrifty's Zero Planting and Zero
Convergence optionally applied, and charges costs accordingly: every
inner hop pays its edge scans, but the barrier is paid once per
superstep.  Extension experiment E4 sweeps ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..instrument.counters import OpCounters
from ..instrument.trace import Direction, IterationRecord, RunTrace
from .backends import canonical_backend, get_backend
from .result import CCResult

__all__ = ["KLAOptions", "kla_cc"]


@dataclass(frozen=True)
class KLAOptions:
    """Configuration of KLA label propagation."""

    k: int = 4
    zero_planting: bool = True
    zero_convergence: bool = True
    max_supersteps: int = 1_000_000
    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend",
                           canonical_backend(self.backend))
        if self.k < 1:
            raise ValueError("k must be >= 1")


def kla_cc(graph: CSRGraph, opts: KLAOptions | None = None,
           *, dataset: str = "") -> CCResult:
    """Run KLA label propagation to convergence.

    Each superstep performs up to ``k`` whole-graph pull rounds
    (stopping early once a round changes nothing); one
    :class:`IterationRecord` is emitted per *superstep*, so the
    iteration count in the result is the number of barriers — the
    quantity KLA is designed to reduce.
    """
    opts = opts or KLAOptions()
    kb = get_backend(opts.backend)
    n = graph.num_vertices
    trace = RunTrace(algorithm=f"kla-lp[k={opts.k}]", dataset=dataset)
    if n == 0:
        return CCResult(labels=np.empty(0, dtype=np.int64), trace=trace)

    if opts.zero_planting:
        labels = np.arange(1, n + 1, dtype=np.int64)
        labels[graph.max_degree_vertex()] = 0
    else:
        labels = np.arange(n, dtype=np.int64)
    trace.setup_counters.sequential_accesses += 2 * n
    trace.setup_counters.label_writes += n

    for step in range(opts.max_supersteps):
        counters = OpCounters()
        changed_total = 0
        for _hop in range(opts.k):
            if opts.zero_convergence:
                new, changed, lengths = kb.pull_block_zero_cut(
                    graph, labels, 0, n)
                scanned = int(lengths.sum())
            else:
                new, changed = kb.pull_block(graph, labels, 0, n)
                scanned = graph.num_edges
            counters.record_pull_scan(scanned, n)
            n_changed = int(changed.sum())
            if n_changed == 0:
                break
            labels[changed] = new[changed]
            counters.record_label_commits(n_changed, random=False)
            changed_total += n_changed
        counters.iterations = 1
        trace.add(IterationRecord(
            index=step, direction=Direction.PULL, density=1.0,
            active_vertices=n, active_edges=graph.num_edges,
            changed_vertices=changed_total,
            converged_fraction=float(np.count_nonzero(labels == 0) / n),
            counters=counters))
        if changed_total == 0:
            break
    else:
        raise RuntimeError("KLA-LP failed to converge")
    return CCResult(labels=labels.copy(), trace=trace)
