"""The direction-optimizing label-propagation engine.

One engine executes Algorithm 1, Algorithm 2, and every ablation in
between: the four Thrifty optimizations are independent switches in
:class:`LPOptions`.

    DO-LP     = LPOptions(unified_labels=False, zero_convergence=False,
                          zero_planting=False, initial_push=False,
                          threshold=0.05)
    Unified   = DO-LP + unified_labels=True      (Figures 9/10 variant)
    Thrifty   = all four switches on, threshold=0.01

Execution model (DESIGN.md Section 5): the simulated work-stealing
schedule fixes a deterministic partition visit order; with unified
labels the pull commits updates in-place per sub-block of
``block_size`` vertices, so labels propagate multiple hops within one
iteration exactly as the paper's in-place C loops do (at block rather
than single-vertex granularity).  Without unified labels the pull is
double-buffered and block order is irrelevant.

The in-place pull is a triangular min-system.  Let L be the labels at
pull start and ``vr(v)`` the visit rank of v's block (partition visit
order, then block index).  The sweep leaves every vertex i at X[i],
the minimum over i's intra-block group of min(L[k], X[j] for the
neighbours j of k with vr(j) < vr(k), L[j] for the other
neighbours).  Every dependency points strictly backwards in ``vr``,
so the system has exactly one solution, and it is what the per-block
sweep computes.  On a resident graph :meth:`_Engine._pull_fixpoint`
solves it directly: one gather over the non-zero rows from L, then
rounds in which only the vertices that changed push their new value
forward in ``vr``; values only decrease, so the rounds end at the
unique fixpoint.  Counters, the frontier and the per-partition work
follow from X in bulk.  A streamed (out-of-core) graph keeps the
windowed speculative sweep of :meth:`_Engine._pull_blocks_fused`,
whose block-at-a-time access order is what its fetch accounting
models.  Neither gathers converged (zero) rows: the fixpoint
evaluates non-zero rows only and the sweep skips all-zero blocks.

The push mirrors that structure.  The active worklist is split at
partition boundaries first and only then into ``block_size`` chunks,
so a chunk always lies in exactly one partition and runs on that
partition's owning thread.  Chunks run in worklist order, each an
atomic-min against the labels earlier chunks left, so the value a row
pushes is the label it holds when its chunk starts: with unified
labels, the minimum of its label at push start and the values pushed
into it by earlier chunks.  That is again a triangular min-system,
solved per iteration by :meth:`_Engine._push_chunks` from one
adjacency gather, by forward substitution over blocks of rows: a
block's rows push once along their forward edges, and only the rows
lowered inside the block push again.  The commit, each chunk's
changed set and the worklist batches then follow in bulk.  The
literal one-Python-iteration-per-chunk loop it must match bit for bit
(labels, counters, traces, drain orders, makespans) is test-side
(``tests/push_oracle.py``).

Makespans are computed on read.  Each traversal fills a per-partition
work vector; :meth:`_Engine.record` keeps only its nonzero entries
(partition ids and values) and the iteration's
:attr:`~repro.instrument.trace.IterationRecord.makespan` replays the
work-stealing schedule over them the first time it is read, so a run
whose makespans nobody reads never simulates the schedule.

Detailed frontiers are :class:`AdaptiveFrontier` instances: sparse
frontiers keep an explicit worklist, so a sparse push iterates its
active set directly instead of scanning an n-bit bitmap; dense ones
switch to a bitmap.  The representation and switch count of the
frontier each iteration produces are recorded on its
:class:`IterationRecord` (``frontier_mode``/``frontier_conversions``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..graph.coo import distinct
from ..graph.csr import CSRGraph
from ..instrument.counters import OpCounters
from ..instrument.trace import Direction, IterationRecord, RunTrace
from ..parallel.frontier import AdaptiveFrontier, CountOnlyFrontier
from ..parallel.machine import SKYLAKEX, MachineSpec
from ..parallel.partition import (
    PARTITIONS_PER_THREAD,
    edge_balanced_partitions,
)
from ..parallel.scheduler import WorkStealingScheduler
from ..parallel.worklist import LocalWorklists
from ..storage.modes import canonical_storage
from .backends import canonical_backend, get_backend
from .labels import identity_labels, zero_planted_labels
from .result import CCResult

__all__ = ["LPOptions", "label_propagation_cc"]

# Edges per block of the push solve's forward substitution
# (:meth:`_Engine._solve_pushed`).  Results do not depend on it:
# larger blocks cost more re-push rounds, smaller ones more Python
# steps.
_SOLVE_BLOCK_EDGES = 1 << 16


@dataclass(frozen=True)
class LPOptions:
    """Configuration of the label-propagation engine.

    The four booleans are the paper's four optimizations; defaults
    correspond to full Thrifty.  ``backend`` selects the kernel
    backend the run dispatches its hot kernels through (``None`` =
    the canonical ``"numpy"`` backend); every registered backend is
    bit-identical, so it changes wall-clock only.

    ``storage`` selects where the edge array lives (``None`` =
    ``"resident"``; ``"out_of_core"`` spools the graph to a blocked
    on-disk file and streams it through a block cache bounded by
    ``resident_bytes`` — see :mod:`repro.storage`).  Like ``backend``
    it changes only the physical access schedule, never the results:
    labels, counters and traces stay bit-identical, with the fetch
    accounting reported in ``CCResult.extras["io"]``.
    """

    unified_labels: bool = True
    zero_convergence: bool = True
    zero_planting: bool = True
    initial_push: bool = True
    # Thrifty's Section IV-E frontier policy: dense pulls only count
    # active vertices/edges; a Pull-Frontier iteration materializes the
    # frontier just before switching to push.  DO-LP (False) collects a
    # detailed frontier in every pull.
    count_only_pulls: bool = True
    threshold: float = 0.01
    num_threads: int = 32
    machine: MachineSpec = SKYLAKEX
    partitions_per_thread: int = PARTITIONS_PER_THREAD
    block_size: int = 64
    track_convergence: bool = True
    max_iterations: int = 1_000_000
    algorithm_name: str = "thrifty"
    backend: str | None = None
    storage: str | None = None
    resident_bytes: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend",
                           canonical_backend(self.backend))
        object.__setattr__(self, "storage",
                           canonical_storage(self.storage))
        if self.resident_bytes is not None and self.resident_bytes < 1:
            raise ValueError("resident_bytes must be >= 1")
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError("threshold must be in (0, 1]")
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.partitions_per_thread < 1:
            raise ValueError("partitions_per_thread must be >= 1")

    def with_machine(self, machine: MachineSpec,
                     num_threads: int | None = None) -> "LPOptions":
        """Re-target the options at another machine (threads = cores)."""
        return replace(self, machine=machine,
                       num_threads=num_threads or machine.cores)


class _PendingMakespan:
    """One iteration's work vector, kept sparse until its makespan is
    read: the nonzero partition ids (int32) and their work.  Calling
    it rebuilds the dense vector and replays the schedule through
    :meth:`WorkStealingScheduler.makespan`, hence through
    ``schedule``."""

    __slots__ = ("scheduler", "ids", "values")

    def __init__(self, scheduler: WorkStealingScheduler,
                 work: np.ndarray) -> None:
        self.scheduler = scheduler
        self.ids = np.flatnonzero(work).astype(np.int32)
        self.values = work[self.ids]

    def __call__(self) -> float:
        work = np.zeros(self.scheduler.partitioning.num_partitions,
                        dtype=np.float64)
        work[self.ids] = self.values
        return self.scheduler.makespan(work)


class _Engine:
    """Mutable run state; one instance per call."""

    def __init__(self, graph: CSRGraph, opts: LPOptions,
                 dataset: str) -> None:
        self.graph = graph
        self.opts = opts
        # The kernel backend every hot call below dispatches through;
        # resolved once per run from the typed option.
        self.kb = get_backend(opts.backend)
        self.n = graph.num_vertices
        self.counters = OpCounters()
        self.trace = RunTrace(algorithm=opts.algorithm_name,
                              dataset=dataset)
        self.snapshots: list[np.ndarray] = []
        self.partitioning = edge_balanced_partitions(
            graph, opts.num_threads, opts.partitions_per_thread)
        self.scheduler = WorkStealingScheduler(self.partitioning,
                                               opts.machine)
        self.partition_order = self.scheduler.partition_order(
            self.partitioning.edge_counts(graph).astype(np.float64))
        # Per-iteration work vector (vertices scanned + edges processed
        # per partition) filled by the traversal methods; record() keeps
        # its nonzero entries for the iteration's lazy makespan.
        self._last_work: np.ndarray | None = None
        # Push introspection: the worklists and drain order of the most
        # recent push iteration (simulation observables for tests and
        # analyses; the engine itself only consumes the drained set).
        self.last_worklists: LocalWorklists | None = None
        self.last_drain_order: np.ndarray | None = None
        # Representation of the frontier the current iteration
        # produced, recorded on its IterationRecord by record().
        self._last_frontier_mode = ""
        self._last_frontier_conversions = 0
        # Labels.
        if self.n == 0:
            self.labels = identity_labels(0)
            self.hub = -1
        elif opts.zero_planting:
            self.labels, self.hub = zero_planted_labels(
                graph, self.partitioning, self.counters)
        else:
            self.labels = identity_labels(self.n)
            self.hub = graph.max_degree_vertex()
            self.counters.sequential_accesses += self.n
            self.counters.label_writes += self.n
        self.old_labels = None if opts.unified_labels else self.labels.copy()
        # Set by _setup_fixpoint on resident unified-labels runs.
        self.group_members: CSRGraph | None = None
        # Unified labels: precompute each block's internal components
        # for block-asynchronous in-iteration propagation (DESIGN.md
        # Section 5 / the backend's intra_block_groups), plus the block and
        # partition->block metadata every pull reuses.  Cached once:
        # the bounds, groups and schedule are iteration-invariant.
        if opts.unified_labels:
            # Each partition cut into block_size pieces from its own
            # start; empty partitions add no boundary.
            self.block_bounds = self.kb.chunked_cuts(
                distinct(self.partitioning.bounds), opts.block_size)
            # Block-provider seam: a streaming graph (out-of-core
            # BlockedGraph) computes its groups with one sequential
            # setup scan instead of a resident edge array; the result
            # is bit-identical (both reach the same canonical
            # min-vertex fixpoint per block).
            groups_provider = getattr(graph, "intra_block_groups", None)
            if groups_provider is not None:
                self.groups = groups_provider(self.block_bounds[1:])
            else:
                self.groups = self.kb.intra_block_groups(
                    graph, self.block_bounds[1:])
            self.block_starts = self.block_bounds[:-1]
            self.block_ends = self.block_bounds[1:]
            self.block_edge_counts = (
                graph.indptr[self.block_ends]
                - graph.indptr[self.block_starts]).astype(np.int64)
            pb = self.partitioning.bounds
            # Blocks never span partitions, so partition p owns the
            # contiguous block index range [part_block_lo[p],
            # part_block_hi[p]) — empty for empty partitions.
            self.part_block_lo = np.searchsorted(self.block_starts,
                                                 pb[:-1], side="left")
            self.part_block_hi = np.searchsorted(self.block_starts,
                                                 pb[1:], side="left")
            if groups_provider is None:
                self._setup_fixpoint()
        else:
            self.block_bounds = None
            self.groups = None

    def _setup_fixpoint(self) -> None:
        """Per-run metadata of the resident pull's fixpoint solve.

        ``visit_rank[v]`` orders v's block in the pull's visit order:
        its partition's position in the schedule, then its index.
        ``group_members`` is a CSR index from each intra-block group's
        representative (its minimum vertex) to the group's members,
        so ``concat_adjacency`` expands groups to their vertices.
        """
        order = self.partition_order
        part_pos = np.empty_like(order)
        part_pos[order] = np.arange(order.size)
        nblocks = self.block_starts.size
        block_rank = (np.repeat(part_pos, self.part_block_hi
                                - self.part_block_lo) * nblocks
                      + np.arange(nblocks))
        self.visit_rank = np.repeat(block_rank,
                                    self.block_ends - self.block_starts)
        members = np.argsort(self.groups, kind="stable")
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.groups, minlength=self.n), out=ptr[1:])
        self.group_members = CSRGraph(ptr, members)

    # -- label access shims ----------------------------------------------

    def _read_array(self) -> np.ndarray:
        """Array a traversal reads: current (unified) or previous."""
        return self.labels if self.opts.unified_labels else self.old_labels

    def _end_iteration_sync(self) -> None:
        """DO-LP's labels synchronization (Algorithm 1 lines 21-22)."""
        if not self.opts.unified_labels:
            self.old_labels[:] = self.labels
            self.counters.record_sync_pass(self.n)

    # -- frontier plumbing -------------------------------------------------

    def _note_frontier(self, frontier: AdaptiveFrontier | None) -> None:
        """Remember the produced frontier's representation for record()."""
        if frontier is None:
            self._last_frontier_mode = "count-only"
            self._last_frontier_conversions = 0
        else:
            self._last_frontier_mode = frontier.mode
            self._last_frontier_conversions = frontier.conversions

    # -- traversals --------------------------------------------------------

    def initial_push(self) -> AdaptiveFrontier:
        """Thrifty iteration 0: push the hub's label one hop."""
        g = self.graph
        targets = g.neighbors(self.hub).astype(np.int64)
        values = np.full(targets.size, self._read_array()[self.hub],
                         dtype=self.labels.dtype)
        changed = self.kb.batch_atomic_min(self.labels, targets, values)
        self.counters.record_push_scan(int(targets.size), 1)
        self.counters.record_cas_successes(int(changed.size))
        frontier = AdaptiveFrontier(self.n)
        frontier.set_many(g, changed)
        self.counters.record_frontier_updates(int(changed.size))
        work = np.zeros(self.partitioning.num_partitions,
                        dtype=np.float64)
        work[self.partitioning.partition_of(self.hub)] = \
            1 + int(targets.size)
        self._last_work = work
        self._end_iteration_sync()
        self._note_frontier(frontier)
        return frontier

    def pull(self, collect_frontier: bool
             ) -> tuple[AdaptiveFrontier | None, CountOnlyFrontier]:
        """One pull iteration over all vertices in schedule order.

        Returns ``(detailed_frontier_or_None, counts)``.  With unified
        labels the commit is in-place per block; otherwise double-
        buffered (block order then has no effect on the result).
        """
        opts = self.opts
        read = self._read_array()
        counts = CountOnlyFrontier()
        detailed = AdaptiveFrontier(self.n) if collect_frontier else None
        zero = opts.zero_convergence
        work = np.zeros(self.partitioning.num_partitions,
                        dtype=np.float64)
        # Without unified labels the pull is double-buffered, so block
        # order cannot affect the result: one whole-graph block is both
        # faster and bit-identical.
        if not opts.unified_labels:
            self._pull_whole_graph(read, counts, detailed, zero, work)
        elif self.group_members is None:     # streamed graph
            self._pull_blocks_fused(read, counts, detailed, zero, work)
        else:
            self._pull_fixpoint(read, counts, detailed, zero, work)
        self._last_work = work
        self._end_iteration_sync()
        self._note_frontier(detailed)
        return detailed, counts

    def _commit_rows(self, lo: int, new: np.ndarray, changed: np.ndarray,
                     counts: CountOnlyFrontier,
                     detailed: AdaptiveFrontier | None) -> None:
        """Commit one block's improved labels at offset ``lo``."""
        n_changed = int(changed.sum())
        if not n_changed:
            return
        g = self.graph
        rows = lo + np.flatnonzero(changed)
        self.labels[rows] = new[changed]
        self.counters.record_label_commits(n_changed, random=False)
        counts.add(n_changed, int(g.degrees[rows].sum()))
        if detailed is not None:
            detailed.set_many(g, rows)
            self.counters.record_frontier_updates(n_changed)

    def _pull_whole_graph(self, read: np.ndarray,
                          counts: CountOnlyFrontier,
                          detailed: AdaptiveFrontier | None,
                          zero: bool, work: np.ndarray) -> None:
        """Double-buffered pull: one whole-graph vectorized block."""
        g = self.graph
        n = self.n
        pb = self.partitioning.bounds
        if zero:
            new, changed, scanned = self.kb.pull_block_zero_cut(g, read,
                                                                0, n)
            edges = int(scanned.sum())
            work += self.kb.blockwise_sums(scanned, pb[:-1], pb[1:])
        else:
            new, changed = self.kb.pull_block(g, read, 0, n)
            edges = int(g.indptr[n] - g.indptr[0])
            work += np.diff(g.indptr[pb])
        work += np.diff(pb)   # one own-label check per vertex
        self.counters.record_pull_scan(edges, n)
        self._commit_rows(0, new, changed, counts, detailed)

    def _pull_fixpoint(self, read: np.ndarray, counts: CountOnlyFrontier,
                       detailed: AdaptiveFrontier | None, zero: bool,
                       work: np.ndarray) -> None:
        """Resident in-place pull: solve the sweep's triangular
        min-system (module docstring) without visiting blocks.

        Round 0 evaluates the non-zero rows from ``read``; each later
        round pushes every changed value to the later-visited
        neighbours it beats and floods their groups.  Values stay
        upper bounds of the solution, so the fixpoint reached is it.
        """
        g, kb = self.graph, self.kb
        groups, vr = self.groups, self.visit_rank
        # A zero row can never change and, under Zero Convergence,
        # scans nothing: only non-zero rows are evaluated.
        rows = np.flatnonzero(read)
        targets, deg = kb.concat_adjacency(g, rows)
        nbr = read[targets]
        ends = np.cumsum(deg)
        x = read.copy()
        np.minimum.at(x, groups[rows],
                      kb.segment_min(nbr, ends - deg, ends, read[rows]))
        x[rows] = x[groups[rows]]
        moved = rows[x[rows] < read[rows]]
        while moved.size:
            t, d = kb.concat_adjacency(g, moved)
            vals = np.repeat(x[moved], d)
            # x is constant on every group, so each kept edge lowers
            # its target's group.
            ahead = (np.repeat(vr[moved], d) < vr[t]) & (vals < x[t])
            into = groups[t[ahead]]
            np.minimum.at(x, into, vals[ahead])
            moved, _ = kb.concat_adjacency(self.group_members,
                                           distinct(into))
            x[moved] = x[groups[moved]]
        # Counters are additive, so every row is accounted in one call,
        # converged ones included, as in the whole-graph pull.
        pb = self.partitioning.bounds
        if zero:
            behind = np.repeat(vr[rows], deg) > vr[targets]
            scan = _zero_cut(np.where(behind, x[targets], nbr), ends, deg)
            # rows is sorted: each partition's rows are one slice of it.
            cut = np.searchsorted(rows, pb)
            edges = kb.blockwise_sums(scan, cut[:-1], cut[1:])
        else:
            edges = np.diff(g.indptr[pb])
        self.counters.record_pull_scan(int(edges.sum()), self.n)
        work += edges + np.diff(pb)
        self._commit_rows(0, x, x < read, counts, detailed)

    def _pull_blocks_fused(self, read: np.ndarray,
                           counts: CountOnlyFrontier,
                           detailed: AdaptiveFrontier | None,
                           zero: bool, work: np.ndarray) -> None:
        """Converged-block-aware streamed pull (DESIGN.md Section 5).

        An all-zero block can never change again — labels only
        decrease and zero is the global minimum — and a visit would
        record a fixed per-vertex counter delta, so such blocks are
        skipped without entering Python and accounted in one bulk
        call.  Partitions with no live block cost zero Python
        iterations.  Runs of consecutive live blocks go through
        :meth:`_pull_run`; everything observable (labels, counters,
        traces) is bit-identical to the per-block sweep.
        """
        part = self.partitioning
        bs_, be_ = self.block_starts, self.block_ends
        nonzero = read != 0
        blk_live = self.kb.blockwise_sums(nonzero, bs_, be_) > 0
        # Bulk-account every converged block: per-vertex own-label
        # checks, plus the full edge scan when Zero Convergence is off
        # (with it on, a zero row's scan length is exactly 0).
        nv_skip = int((be_ - bs_)[~blk_live].sum())
        if zero:
            if nv_skip:
                self.counters.record_pull_skip(nv_skip)
        else:
            skip_edges = np.where(blk_live, 0, self.block_edge_counts)
            e_skip = int(skip_edges.sum())
            if nv_skip or e_skip:
                self.counters.record_pull_skip(nv_skip, e_skip)
            work += self.kb.blockwise_sums(skip_edges, self.part_block_lo,
                                           self.part_block_hi)
        work += np.diff(part.bounds)   # one own-label check per vertex
        live_parts = self.kb.blockwise_sums(nonzero, part.bounds[:-1],
                                            part.bounds[1:]) > 0
        for p in self.partition_order[live_parts[self.partition_order]]:
            p = int(p)
            b0, b1 = int(self.part_block_lo[p]), int(self.part_block_hi[p])
            live = np.flatnonzero(blk_live[b0:b1]) + b0
            breaks = np.flatnonzero(np.diff(live) > 1) + 1
            run_edges = 0
            start = 0
            for stop in [*breaks.tolist(), live.size]:
                run_edges += self._pull_run(int(live[start]),
                                            int(live[stop - 1]) + 1,
                                            read, counts, detailed, zero)
                start = stop
            work[p] += run_edges

    def _pull_run(self, bi0: int, bi1: int, read: np.ndarray,
                  counts: CountOnlyFrontier, detailed: AdaptiveFrontier | None,
                  zero: bool) -> int:
        """Fused pull over the consecutive live blocks with indices
        ``[bi0, bi1)``; returns the edges scanned.

        Speculation keeps the in-place sequential semantics exact: a
        fused Jacobi + block-async evaluation of a window of blocks
        from the current labels is valid up to and including the
        *first* block that improves (every earlier block commits
        nothing, so a sequential visit would have read the same
        snapshot).  That block is committed and the evaluation resumes
        after it.  The window doubles after every clean evaluation and
        resets to one block after a commit, so densely-changing runs
        cost per-block work while a fully-converged run — the common
        case once zero labels have flooded the graph — costs one pass
        over its edges in O(log blocks) fused evaluations.

        With Zero Convergence on, one ``pull_block_zero_cut`` call per
        window yields both the row minima and the per-row scan lengths
        from a single gather; the lengths are summed up to the cut.
        """
        g = self.graph
        bs_, be_ = self.block_starts, self.block_ends
        edges_total = 0
        bi = bi0
        window = 1
        while bi < bi1:
            wend = min(bi + window, bi1)
            lo, whi = int(bs_[bi]), int(be_[wend - 1])
            if zero:
                new, _, scanned = self.kb.pull_block_zero_cut(g, read,
                                                              lo, whi)
            else:
                new, _ = self.kb.pull_block(g, read, lo, whi)
            new = self.kb.block_async_min(new, self.groups[lo:whi] - lo)
            changed = new < read[lo:whi]
            if not changed.any():
                fb = -1
                cut = whi
            elif window == 1:
                fb, flo, cut = bi, lo, whi
            else:
                first = lo + int(np.argmax(changed))
                fb = int(np.searchsorted(bs_, first, side="right")) - 1
                flo, cut = int(bs_[fb]), int(be_[fb])
            if zero:
                edges = int(scanned[:cut - lo].sum())
            else:
                edges = int(g.indptr[cut] - g.indptr[lo])
            self.counters.record_pull_scan(edges, cut - lo)
            edges_total += edges
            if fb >= 0:
                self._commit_rows(flo, new[flo - lo:cut - lo],
                                  changed[flo - lo:cut - lo],
                                  counts, detailed)
                bi = fb + 1
                window = 1
            else:
                bi = wend
                window *= 2
        return edges_total

    def push(self, frontier) -> AdaptiveFrontier:
        """One push iteration from a detailed frontier.

        The frontier's vertices are drained through the per-thread local
        worklists in chunks: the active worklist is split at
        *partition boundaries* first, then into ``block_size`` pieces
        within each partition, so every chunk lies in exactly one
        partition and runs on the thread that owns it under the
        scheduler's edge-balanced initial assignment
        (:meth:`Partitioning.owner_of`).  With unified labels each
        chunk reads the labels as updated by earlier chunks.
        """
        g = self.graph
        opts = self.opts
        part = self.partitioning
        active = frontier.vertices()
        self.counters.sequential_accesses += int(active.size)
        worklists = LocalWorklists(self.n, opts.num_threads)
        work = np.zeros(part.num_partitions, dtype=np.float64)
        read = self._read_array()
        if active.size:
            # Offsets into `active` where a new partition begins;
            # chunks never straddle them (partitions are contiguous
            # vertex ranges and `active` is sorted).
            seg = distinct(np.searchsorted(active, part.bounds))
            cuts = self.kb.chunked_cuts(seg, opts.block_size)
            chunk_part = part.partition_of(active[cuts[:-1]])
            self._push_chunks(active, cuts, chunk_part, read, worklists,
                              work)
        self._last_work = work
        self._end_iteration_sync()
        self.last_worklists = worklists
        self.last_drain_order = worklists.drain_order()
        new_frontier = AdaptiveFrontier(self.n)
        new_frontier.set_many(g, self.last_drain_order)
        self._note_frontier(new_frontier)
        return new_frontier

    def _push_chunks(self, active: np.ndarray, cuts: np.ndarray,
                     chunk_part: np.ndarray, read: np.ndarray,
                     worklists: LocalWorklists, work: np.ndarray) -> None:
        """Every chunk of one push iteration in one solve (DESIGN.md
        Section 5): the exact effect of running the chunks in order,
        each an atomic-min against the labels earlier chunks left.

        One gather covers all chunks.  ``x[r]`` is the value row ``r``
        pushes, its label when its chunk starts (:meth:`_solve_pushed`
        with unified labels).  Labels only decrease, so an edge can
        change its target only if it beats the target's label at push
        start, and only up to the first chunk pushing the target's
        final label: one scatter-min of (value, chunk) keys over the
        improving edges finds that chunk.  For every (target, chunk)
        pair only the minimum pushed value matters, as
        ``batch_atomic_min`` compares a chunk's values against the
        label before the chunk.  A segmented running minimum over each
        target's pairs in chunk order marks the chunks that lower it;
        labels commit in one scatter-min, and each chunk's changed set
        is its own worklist batch on the chunk's owning thread, in
        chunk order.
        """
        g, kb, labels = self.graph, self.kb, self.labels
        nchunks = chunk_part.size
        targets, deg = kb.concat_adjacency(g, active)
        # int64 ids: numpy gathers through them faster than through
        # the graph's int32 ones.
        targets = targets.astype(np.int64)
        vert_counts = np.diff(cuts)
        edge_counts = kb.blockwise_sums(deg, cuts[:-1], cuts[1:])
        np.add.at(work, chunk_part,
                  (vert_counts + edge_counts).astype(np.float64))
        self.counters.record_push_scan(int(targets.size), int(active.size))
        before = labels[targets]
        x = read[active]
        if read is labels:
            self._solve_pushed(x, active, cuts, targets, deg,
                               edge_counts, before)
        values = np.repeat(x, deg)
        e = np.flatnonzero(values < before)
        if not e.size:
            return
        t, v = targets[e], values[e]
        c = np.repeat(np.arange(nchunks), np.diff(
            np.searchsorted(e, np.cumsum(edge_counts)), prepend=0))
        # A target's least key holds its final label in the high bits
        # and the first chunk pushing it in the low ones.  Labels and
        # chunks are below n, so keys stay below 2 n^2.
        bits = int(nchunks).bit_length()
        least = labels << bits
        least |= nchunks
        np.minimum.at(least, t, (v << bits) | c)
        keep = np.flatnonzero(c <= least[t] & ((1 << bits) - 1))
        t, c, v = t[keep], c[keep], v[keep]
        # Group the edges by (target, chunk), ordered by target and
        # then chunk, and reduce each group to its minimum.
        key = t * nchunks + c
        order = np.argsort(key)
        key, v = key[order], v[order]
        grp = np.empty(key.size, dtype=bool)
        grp[0] = True
        grp[1:] = key[1:] != key[:-1]
        gs = np.flatnonzero(grp)
        m = np.minimum.reduceat(v, gs)
        gt, gc = np.divmod(key[gs], nchunks)
        # Segmented exclusive running minimum per target: each
        # target's groups are shifted into a disjoint value band, so
        # one global accumulate cannot leak across targets.  Labels
        # live in [0, n): n is a safe "+infinity" and n + 1 a band.
        tnew = np.empty(gs.size, dtype=bool)
        tnew[0] = True
        tnew[1:] = gt[1:] != gt[:-1]
        band = (np.cumsum(tnew) - 1) * np.int64(self.n + 1)
        run = np.minimum.accumulate(m - band) + band
        excl = np.empty_like(run)
        excl[1:] = run[:-1]
        excl[tnew] = self.n
        changed = m < np.minimum(labels[gt], excl)
        bt, bc, bm = gt[changed], gc[changed], m[changed]
        np.minimum.at(labels, bt, bm)
        self.counters.record_cas_successes(int(bt.size))
        order = np.argsort(bc * self.n + bt)
        owners = chunk_part // self.partitioning.partitions_per_thread()
        enq = worklists.push_batches(
            owners, bt[order], np.searchsorted(bc[order],
                                               np.arange(nchunks + 1)))
        self.counters.record_frontier_updates(enq)

    def _solve_pushed(self, x: np.ndarray, active: np.ndarray,
                      cuts: np.ndarray, targets: np.ndarray,
                      deg: np.ndarray, edge_counts: np.ndarray,
                      before: np.ndarray) -> None:
        """Lower ``x``, the rows' labels at push start, to their labels
        when their chunks start.

        That is ``x[r] = min(x[r], x[u] for edges u -> r with
        chunk(u) < chunk(r))``.  Every dependency points backwards in
        chunk order, so the system is triangular, like the in-place
        pull's, and forward substitution over blocks of rows solves
        it.  Blocks of about ``_SOLVE_BLOCK_EDGES`` edges are visited
        in order; all earlier blocks are final when a block is
        reached, so its rows push once along their forward edges
        (into active rows of later chunks), and the rows those pushes
        lower inside the block push again, in rounds, through their
        slices of the gather.  A value lowers a row only if it beats
        the row's label at push start (``before`` of the edge).
        """
        # One past each vertex's position in ``active``, 0 if inactive.
        at = np.zeros(self.n, dtype=np.int64)
        at[active] = np.arange(1, active.size + 1)
        # Where each row's chunk ends in ``active``: a forward edge
        # leads into an active row past it.
        row_end = np.repeat(cuts[1:], np.diff(cuts))
        ends = np.cumsum(deg)
        starts = ends - deg
        bounds = distinct(np.concatenate((
            [0], np.searchsorted(ends, np.arange(_SOLVE_BLOCK_EDGES,
                                                 ends[-1],
                                                 _SOLVE_BLOCK_EDGES)),
            [active.size])))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            es, ee = int(starts[lo]), int(ends[hi - 1])
            w = np.repeat(x[lo:hi], deg[lo:hi])
            beats = w < before[es:ee]
            if not beats.any():
                continue
            # Edge slots are block-local from here on.
            pos = at[targets[es:ee]]
            fwd = pos > np.repeat(row_end[lo:hi], deg[lo:hi])
            slot = np.flatnonzero(beats & fwd)
            w = w[slot]
            while slot.size:
                held = x[lo:hi].copy()
                np.minimum.at(x, pos[slot] - 1, w)
                # Rows lowered inside the block push their new values.
                rows = lo + np.flatnonzero(x[lo:hi] < held)
                d = deg[rows]
                slot = (np.repeat(starts[rows] - es - np.cumsum(d) + d, d)
                        + np.arange(int(d.sum())))
                w = np.repeat(x[rows], d)
                keep = np.flatnonzero(fwd[slot] & (w < before[es + slot]))
                slot, w = slot[keep], w[keep]

    # -- bookkeeping -------------------------------------------------------

    def record(self, direction: Direction, density: float,
               active_v: int, active_e: int, changed: int,
               before: OpCounters) -> None:
        delta = self.counters - before
        delta.iterations = 1
        makespan = 0.0
        if self._last_work is not None:
            makespan = _PendingMakespan(self.scheduler, self._last_work)
            self._last_work = None
        self.trace.add(IterationRecord(
            index=self.trace.num_iterations,
            direction=direction,
            density=density,
            active_vertices=active_v,
            active_edges=active_e,
            changed_vertices=changed,
            converged_fraction=0.0,   # filled post-hoc
            counters=delta,
            makespan=makespan,
            frontier_mode=self._last_frontier_mode,
            frontier_conversions=self._last_frontier_conversions,
        ))
        self._last_frontier_mode = ""
        self._last_frontier_conversions = 0
        if self.opts.track_convergence:
            self.snapshots.append(self.labels.astype(np.int64, copy=True))

    def finalize(self) -> CCResult:
        if self.opts.track_convergence and self.snapshots:
            final = self.labels
            for rec, snap in zip(self.trace.iterations, self.snapshots):
                rec.converged_fraction = float(
                    np.count_nonzero(snap == final) / max(self.n, 1))
        return CCResult(labels=self.labels.copy(), trace=self.trace)


def _zero_cut(seen: np.ndarray, ends: np.ndarray,
              deg: np.ndarray) -> np.ndarray:
    """Zero-Convergence scan length of each row whose neighbour labels
    are concatenated in ``seen`` (row i ends at ``ends[i]``): the
    1-based position of its first zero, or its degree if it has none."""
    starts = ends - deg
    zeros = np.flatnonzero(seen == 0)
    if not zeros.size:
        return deg
    k = np.searchsorted(zeros, starts)
    first = zeros[np.minimum(k, zeros.size - 1)]
    return np.where((k < zeros.size) & (first < ends),
                    first - starts + 1, deg)


def label_propagation_cc(graph: CSRGraph,
                         opts: LPOptions | None = None,
                         *, dataset: str = "") -> CCResult:
    """Run the configured LP algorithm to convergence.

    The returned :class:`CCResult` carries the full per-iteration
    trace; all evaluation artifacts are derived from it.

    Storage dispatch: a graph that is already block-streamed (an
    out-of-core :class:`repro.storage.BlockedGraph`) runs natively
    through its block cache; a resident graph with
    ``opts.storage == "out_of_core"`` is first spooled to a temporary
    blocked file so the whole run — including this simulated case —
    pays honest fetch accounting.  Either way the run is bit-identical
    to the resident engine and ``extras["io"]`` reports the block
    fetches, bytes and modeled disk milliseconds.
    """
    opts = opts or LPOptions()
    if opts.storage == "out_of_core" and not hasattr(graph, "io_snapshot"):
        import shutil
        import tempfile
        # Local import: repro.storage is a leaf dependency the resident
        # path never needs at call time.
        from ..storage import (DEFAULT_EDGES_PER_BLOCK, BlockedGraph,
                               write_blocked)
        tmpdir = tempfile.mkdtemp(prefix="repro-out-of-core-")
        try:
            path = f"{tmpdir}/graph.rbcsr"
            # Size blocks off the budget so at least ~8 fit resident;
            # a single block larger than the whole budget would defeat
            # the cache bound.
            edges_per_block = DEFAULT_EDGES_PER_BLOCK
            if opts.resident_bytes is not None:
                itemsize = graph.indices.dtype.itemsize
                edges_per_block = max(
                    1, min(edges_per_block,
                           opts.resident_bytes // (8 * itemsize)))
            write_blocked(graph, path, edges_per_block=edges_per_block)
            blocked = BlockedGraph.open(
                path, resident_bytes=opts.resident_bytes)
            try:
                return _streamed_run(blocked, opts, dataset)
            finally:
                blocked.close()
        finally:
            shutil.rmtree(tmpdir, ignore_errors=True)
    if hasattr(graph, "io_snapshot"):
        return _streamed_run(graph, opts, dataset)
    return _label_propagation_run(graph, opts, dataset)


def _streamed_run(graph, opts: LPOptions, dataset: str) -> CCResult:
    """Run on a blocked graph, attaching the IO delta to the result."""
    snapshot = graph.io_snapshot()
    result = _label_propagation_run(graph, opts, dataset)
    result.extras["io"] = graph.io_record(since=snapshot)
    return result


def _label_propagation_run(graph: CSRGraph, opts: LPOptions,
                           dataset: str) -> CCResult:
    eng = _Engine(graph, opts, dataset)
    eng.trace.setup_counters = eng.counters.copy()
    n = eng.n
    if n == 0:
        return eng.finalize()
    g = graph

    # --- iteration 0 -----------------------------------------------------
    detailed: AdaptiveFrontier | None
    counts: CountOnlyFrontier | None
    if opts.initial_push:
        before = eng.counters.copy()
        hub_deg = g.degree(eng.hub)
        density = ((1 + hub_deg) / g.num_edges) if g.num_edges else 0.0
        detailed = eng.initial_push()
        eng.record(Direction.INITIAL_PUSH, density, 1, hub_deg,
                   detailed.num_active, before)
        # Iteration 1 is always a full pull (Table VI): it is what
        # seeds label comparison for every vertex outside the hub's
        # component — without it a sparse post-push frontier could
        # drain before other components ever propagate.
        before = eng.counters.copy()
        density = detailed.density(g)
        active_v, active_e = detailed.num_active, detailed.num_active_edges
        collect = not opts.count_only_pulls
        new_detailed, new_counts = eng.pull(collect_frontier=collect)
        eng.record(Direction.PULL, density, active_v, active_e,
                   new_counts.num_active, before)
        if collect:
            detailed, counts = new_detailed, None
        else:
            detailed, counts = None, new_counts
    else:
        # DO-LP bootstrap: everything active.
        detailed = AdaptiveFrontier.full(g)
        counts = None

    # --- main loop ---------------------------------------------------------
    # Convergence is tested before the cap, so a run that converges in
    # exactly max_iterations iterations returns (the bootstrap above
    # may already have overshot a cap of 1).
    while True:
        if detailed is not None:
            density = detailed.density(g)
            active_v = detailed.num_active
            active_e = detailed.num_active_edges
        else:
            density = counts.density(g)
            active_v = counts.num_active
            active_e = counts.num_active_edges
        if active_v == 0 and eng.trace.num_iterations <= opts.max_iterations:
            break
        if eng.trace.num_iterations >= opts.max_iterations:
            raise RuntimeError(
                f"{opts.algorithm_name} exceeded max_iterations="
                f"{opts.max_iterations}; graph or options are pathological")
        before = eng.counters.copy()
        if density < opts.threshold:
            if detailed is None:
                # Pull-Frontier: materialize the frontier first.
                new_detailed, new_counts = eng.pull(collect_frontier=True)
                eng.record(Direction.PULL_FRONTIER, density, active_v,
                           active_e, new_detailed.num_active, before)
                detailed, counts = new_detailed, None
            else:
                new_frontier = eng.push(detailed)
                eng.record(Direction.PUSH, density, active_v, active_e,
                           new_frontier.num_active, before)
                detailed, counts = new_frontier, None
        else:
            collect = not opts.count_only_pulls
            new_detailed, new_counts = eng.pull(collect_frontier=collect)
            eng.record(Direction.PULL, density, active_v, active_e,
                       new_counts.num_active, before)
            if collect:
                detailed, counts = new_detailed, None
            else:
                detailed, counts = None, new_counts

    return eng.finalize()
