"""Distributed label-propagation CC over the simulated BSP fabric.

Implements the paper's Section VII direction: LP's SpMV structure maps
directly onto distributed memory, unlike disjoint-set CC [26].  Two
configurations:

* plain distributed LP — every boundary label change is broadcast to
  the neighbouring ranks each superstep (the classic Pregel pattern);
* distributed Thrifty — Zero Planting (global max-degree reduction
  across ranks), Zero Convergence (converged vertices neither compute
  nor communicate), and a send filter that suppresses re-sending a
  label a ghost already holds.

Vertices are partitioned across ranks by contiguous ranges
(``"block"`` or ``"degree_balanced"``; see
:mod:`repro.distributed.partition`).  Each rank keeps *ghost* copies
of remote neighbours' labels; a superstep is:

1. local compute: pull over owned vertices using owned + ghost labels
   (in place — Unified Labels within the rank).  The pull reuses the
   shared-memory engine's partitioned structure: each rank's range is
   cut into edge-balanced blocks, all-zero (converged) blocks are
   skipped without touching their rows, and within a live block the
   backend's Zero-Convergence kernel ``pull_block_zero_cut`` returns
   each row's scan length up to its first zero ghost, which is what
   the counters charge;
2. exchange: for each owned vertex whose label changed and that has
   remote neighbours, send (vertex, label) to each rank that needs it
   (the fabric min-combines and batches when ``combining=True``);
3. apply: min-merge received labels into the ghost table.

Convergence: a superstep with no label change on any rank and no
in-flight messages.

Results are ordinary :class:`~repro.core.result.CCResult` values; the
communication record travels in ``result.extras`` (``"comm"`` — the
fabric's :class:`CommStats` — plus ``"edge_cut"``, ``"num_ranks"``,
``"partition"`` and ``"algorithm"``), the same extras/metrics
convention the serving layer uses, so the result cache keys
distributed runs like any other method.
"""

from __future__ import annotations

import numpy as np

from ..core.backends import get_backend
from ..core.result import CCResult
from ..graph.csr import CSRGraph
from ..instrument.counters import OpCounters
from ..instrument.trace import Direction, IterationRecord, RunTrace
from ..options import DistributedOptions
from .comm import Fabric
from .partition import edge_cut, intra_rank_blocks, rank_bounds, \
    rank_of_vertex

__all__ = ["DistributedOptions", "distributed_cc"]

#: Edge-balanced pull blocks per rank (the rank-local analogue of the
#: engine's partitions-per-thread; converged blocks are skipped whole).
BLOCKS_PER_RANK = 8


class _Rank:
    """One rank's owned range, ghosts, and remote-edge metadata."""

    def __init__(self, rank: int, graph: CSRGraph, lo: int, hi: int,
                 rank_of: np.ndarray) -> None:
        self.rank = rank
        self.lo = lo
        self.hi = hi
        # Owned slice of the CSR.
        self.num_owned = hi - lo
        # For each owned vertex: which remote ranks need its label
        # (i.e. own one of its neighbours).  Precomputed as a CSR-like
        # (vertex -> ranks) structure.
        src = np.repeat(np.arange(lo, hi, dtype=np.int64),
                        np.diff(graph.indptr[lo:hi + 1]))
        dst = graph.indices[graph.indptr[lo]:graph.indptr[hi]]
        remote = rank_of[dst] != rank
        pairs = np.unique(np.stack(
            [src[remote], rank_of[dst[remote]]], axis=1), axis=0) \
            if remote.any() else np.empty((0, 2), dtype=np.int64)
        self.mirror_vertices = pairs[:, 0]
        self.mirror_ranks = pairs[:, 1]
        # Ghost vertices this rank reads (remote neighbours).
        self.ghosts = np.unique(dst[remote]) if remote.any() \
            else np.empty(0, dtype=np.int64)
        # Last label value sent per (vertex, rank) pair, for dedup.
        self.last_sent = np.full(pairs.shape[0], np.iinfo(np.int64).max,
                                 dtype=np.int64)
        # Rank-local pull blocks (edge-balanced within the range).
        self.block_bounds = intra_rank_blocks(graph, lo, hi,
                                              BLOCKS_PER_RANK)


def _build_ranks(graph: CSRGraph, opts: DistributedOptions
                 ) -> tuple[list[_Rank], np.ndarray, np.ndarray]:
    bounds = rank_bounds(graph, opts.num_ranks, opts.partition)
    rank_of = rank_of_vertex(bounds, graph.num_vertices)
    ranks = [_Rank(r, graph, int(bounds[r]), int(bounds[r + 1]), rank_of)
             for r in range(opts.num_ranks)]
    return ranks, bounds, rank_of


def _initial_labels(graph: CSRGraph, bounds: np.ndarray,
                    zero_planting: bool) -> np.ndarray:
    if not zero_planting:
        return np.arange(graph.num_vertices, dtype=np.int64)
    # Global max-degree reduction: each rank reports its local hub;
    # the winner becomes the zero vertex (one tiny allreduce, not
    # counted as per-edge communication).
    local_hubs = [int(bounds[r]) + int(np.argmax(
        graph.degrees[bounds[r]:bounds[r + 1]]))
        for r in range(bounds.size - 1)
        if bounds[r + 1] > bounds[r]]
    hub = max(local_hubs, key=lambda v: (graph.degree(v), -v))
    init = np.arange(1, graph.num_vertices + 1, dtype=np.int64)
    init[hub] = 0
    return init


def _rank_pull(graph: CSRGraph, rk: _Rank, view: np.ndarray,
               counters: OpCounters, zero_convergence: bool,
               kb=None) -> int:
    """One rank's local compute: partitioned, convergence-skipping pull.

    Returns the number of owned labels that changed.  Mirrors the
    engine's converged-block-aware strategy at rank scope: all-zero
    blocks are skipped in O(1), live blocks run the zero-cut kernel —
    dispatched through ``kb``, the run's kernel backend.
    """
    kb = kb or get_backend()
    bb = rk.block_bounds
    changed_total = 0
    for b in range(bb.size - 1):
        lo, hi = int(bb[b]), int(bb[b + 1])
        nv = hi - lo
        if nv == 0:
            continue
        if zero_convergence:
            own = view[lo:hi]
            skip = own == 0
            n_skip = int(np.count_nonzero(skip))
            if n_skip == nv:
                # Converged block: per-vertex own-label checks only,
                # no kernel call, no edges touched.
                counters.record_pull_skip(nv)
                continue
            new, changed, scanned = kb.pull_block_zero_cut(
                graph, view, lo, hi, skip)
            counters.record_pull_scan(int(scanned.sum()), nv - n_skip)
            if n_skip:
                counters.record_pull_skip(n_skip)
        else:
            new, changed = kb.pull_block(graph, view, lo, hi)
            counters.record_pull_scan(
                int(graph.indptr[hi] - graph.indptr[lo]), nv)
        rows = lo + np.flatnonzero(changed)
        if rows.size:
            view[rows] = new[changed]
            counters.record_label_commits(int(rows.size), random=False)
            changed_total += int(rows.size)
    return changed_total


def _distributed_lp(graph: CSRGraph, opts: DistributedOptions,
                    trace: RunTrace, fabric: Fabric,
                    ranks: list[_Rank], bounds: np.ndarray) -> np.ndarray:
    """Run the LP supersteps; returns the assembled global labels."""
    n = graph.num_vertices
    # Each rank's view: owned labels are authoritative; ghost labels
    # live in `view` too but only change via messages.
    views = [np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
             for _ in range(opts.num_ranks)]
    init = _initial_labels(graph, bounds, opts.zero_planting)
    for r, rk in enumerate(ranks):
        views[r][rk.lo:rk.hi] = init[rk.lo:rk.hi]
        if rk.ghosts.size:
            views[r][rk.ghosts] = init[rk.ghosts]

    kb = get_backend(opts.backend)
    for step in range(opts.max_supersteps):
        counters = OpCounters()
        total_changed = 0
        for rk in ranks:
            view = views[rk.rank]
            if rk.num_owned == 0:
                continue
            total_changed += _rank_pull(graph, rk, view, counters,
                                        opts.zero_convergence, kb)
            # Communication: mirrors whose label changed.
            if rk.mirror_vertices.size:
                mirror_labels = view[rk.mirror_vertices]
                if opts.dedup_sends:
                    send_mask = mirror_labels < rk.last_sent
                else:
                    # Naive pattern: broadcast every boundary label
                    # every superstep.
                    send_mask = np.ones(rk.mirror_vertices.size,
                                        dtype=bool)
                if send_mask.any():
                    for dst in np.unique(rk.mirror_ranks[send_mask]):
                        sel = send_mask & (rk.mirror_ranks == dst)
                        fabric.send(rk.rank, int(dst),
                                    rk.mirror_vertices[sel],
                                    mirror_labels[sel])
                    rk.last_sent[send_mask] = mirror_labels[send_mask]

        inboxes = fabric.exchange()
        for rk in ranks:
            vs, ls = inboxes[rk.rank]
            if vs.size == 0:
                continue
            view = views[rk.rank]
            before = view[vs].copy()
            np.minimum.at(view, vs, ls)
            improved = np.unique(vs[view[vs] < before])
            total_changed += int(improved.size)

        counters.iterations = 1
        trace.add(IterationRecord(
            index=step, direction=Direction.PULL, density=0.0,
            active_vertices=total_changed, active_edges=0,
            changed_vertices=total_changed, converged_fraction=0.0,
            counters=counters))
        if total_changed == 0 and fabric.pending_messages() == 0:
            break
    else:
        raise RuntimeError("distributed LP failed to converge within "
                           f"{opts.max_supersteps} supersteps")

    labels = np.empty(n, dtype=np.int64)
    for rk in ranks:
        labels[rk.lo:rk.hi] = views[rk.rank][rk.lo:rk.hi]
    return labels


def distributed_cc(graph: CSRGraph,
                   opts: DistributedOptions | None = None,
                   *, dataset: str = "") -> CCResult:
    """Run sharded CC (LP or FastSV) on the simulated fabric.

    The *global* label array in this simulation plays the role of the
    union of every rank's owned labels and ghost tables: rank-local
    reads of remote labels only observe values that were delivered
    through the fabric (enforced by updating ghosts exclusively from
    inbox messages).

    Returns a plain :class:`CCResult`; communication statistics ride
    in ``result.extras`` (see module docstring).
    """
    opts = opts or DistributedOptions()
    algorithm_name = ("distributed-lp" if opts.algorithm == "lp"
                      else "distributed-fastsv")
    trace = RunTrace(algorithm=algorithm_name, dataset=dataset)
    fabric = Fabric(opts.num_ranks, combining=opts.combining)
    n = graph.num_vertices
    if n == 0:
        return CCResult(
            labels=np.empty(0, dtype=np.int64), trace=trace,
            extras={"comm": fabric.stats, "edge_cut": 0,
                    "num_ranks": opts.num_ranks,
                    "partition": opts.partition,
                    "algorithm": opts.algorithm})

    ranks, bounds, rank_of = _build_ranks(graph, opts)
    if opts.algorithm == "lp":
        labels = _distributed_lp(graph, opts, trace, fabric, ranks,
                                 bounds)
    else:
        from .fastsv import distributed_fastsv_labels
        labels = distributed_fastsv_labels(graph, opts, trace, fabric,
                                           ranks, rank_of)
    return CCResult(
        labels=labels, trace=trace,
        extras={"comm": fabric.stats,
                "edge_cut": edge_cut(graph, rank_of),
                "num_ranks": opts.num_ranks,
                "partition": opts.partition,
                "algorithm": opts.algorithm})
