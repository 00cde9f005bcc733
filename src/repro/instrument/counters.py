"""Operation counters — the ground truth behind every reported number.

Each CC implementation increments these counters as it runs; simulated
time (costmodel), hardware proxies (papi) and the work-reduction
figures (F5) are all pure functions of them.  Semantics:

* ``edges_processed`` — edge traversals: one per neighbour label
  examined in a pull scan (counting the early-exit cut Thrifty
  achieves) or per atomic-min attempt in a push.  This is the
  quantity behind the paper's "Thrifty processes 1.4% of the edges".
* ``label_reads`` / ``label_writes`` — accesses to the labels array.
* ``random_accesses`` / ``sequential_accesses`` — memory-pattern
  classification: gathers through ``indices`` are random, scans over
  ``indptr``/labels are sequential.  Drives the cache model.
* ``dependent_accesses`` — serially-dependent random accesses (union-
  find pointer chasing): each access needs the previous one's result,
  so the memory system cannot overlap them.  Priced higher than
  independent gathers by the cost model.
* ``cas_attempts`` / ``cas_successes`` — atomic-min traffic.
* ``branches`` / ``unpredictable_branches`` — total conditional
  branches vs data-dependent ones (label comparisons whose outcome is
  near-random); drives the branch-misprediction proxy.
* ``iterations`` — algorithm rounds (Thrifty counts Initial Push as an
  iteration, per Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["OpCounters"]


@dataclass
class OpCounters:
    """Additive operation counts for one run or one iteration."""

    edges_processed: int = 0
    vertex_reads: int = 0
    label_reads: int = 0
    label_writes: int = 0
    random_accesses: int = 0
    sequential_accesses: int = 0
    dependent_accesses: int = 0
    cas_attempts: int = 0
    cas_successes: int = 0
    frontier_updates: int = 0
    branches: int = 0
    unpredictable_branches: int = 0
    iterations: int = 0

    def copy(self) -> "OpCounters":
        return OpCounters(**self.as_dict())

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __add__(self, other: "OpCounters") -> "OpCounters":
        return OpCounters(**{
            k: v + getattr(other, k) for k, v in self.as_dict().items()})

    def __sub__(self, other: "OpCounters") -> "OpCounters":
        """Delta between two snapshots (self later than other)."""
        out = OpCounters(**{
            k: v - getattr(other, k) for k, v in self.as_dict().items()})
        if any(v < 0 for v in out.as_dict().values()):
            raise ValueError("counter delta went negative; "
                             "snapshots passed in wrong order?")
        return out

    def __iadd__(self, other: "OpCounters") -> "OpCounters":
        for k, v in other.as_dict().items():
            setattr(self, k, getattr(self, k) + v)
        return self

    # -- convenience recorders used by the kernels ------------------------

    def record_pull_scan(self, edges: int, vertices: int) -> None:
        """A pull scan over ``vertices`` rows touching ``edges`` slots.

        Each edge costs one random gather of a neighbour label and one
        data-dependent compare; each vertex costs a sequential indptr
        read and an own-label read.
        """
        self.edges_processed += edges
        self.vertex_reads += vertices
        self.label_reads += edges + vertices
        self.random_accesses += edges
        self.sequential_accesses += 2 * vertices
        self.branches += edges + vertices
        self.unpredictable_branches += edges

    def record_pull_skip(self, vertices: int, edges: int = 0) -> None:
        """Bulk accounting for converged blocks a pull skips in O(1).

        A fully-zero block contributes exactly what a per-block visit
        would have recorded — the per-vertex own-label checks, plus
        (with Zero Convergence off) its full edge scan.  Counters are
        additive, so one bulk call for all skipped blocks is
        bit-identical to the per-block calls it replaces.
        """
        self.record_pull_scan(edges, vertices)

    def record_push_scan(self, edges: int, vertices: int) -> None:
        """A push over ``vertices`` frontier rows, ``edges`` atomic-min
        attempts (random scatter reads + compare each)."""
        self.edges_processed += edges
        self.vertex_reads += vertices
        self.label_reads += edges + vertices
        self.random_accesses += edges
        self.sequential_accesses += 2 * vertices
        self.cas_attempts += edges
        self.branches += edges
        self.unpredictable_branches += edges

    def record_label_commits(self, count: int, *, random: bool) -> None:
        """``count`` label writes, classified by access pattern."""
        self.label_writes += count
        if random:
            self.random_accesses += count
        else:
            self.sequential_accesses += count

    def record_cas_successes(self, count: int) -> None:
        self.cas_successes += count
        self.label_writes += count
        self.random_accesses += count

    def record_finds(self, count: int, avg_path_length: float) -> None:
        """``count`` union-find root lookups with the given mean hop
        count.  Each hop is a serially-dependent random parent read
        plus a compare."""
        hops = int(round(count * avg_path_length))
        self.dependent_accesses += hops
        self.label_reads += hops
        self.branches += hops

    def record_frontier_updates(self, count: int) -> None:
        self.frontier_updates += count
        self.sequential_accesses += count

    def record_sync_pass(self, vertices: int) -> None:
        """DO-LP's end-of-iteration labels-array synchronization
        (Algorithm 1 lines 21-22): a sequential copy of both arrays."""
        self.label_reads += vertices
        self.label_writes += vertices
        self.sequential_accesses += 2 * vertices

    @property
    def memory_accesses(self) -> int:
        return (self.random_accesses + self.sequential_accesses
                + self.dependent_accesses)
