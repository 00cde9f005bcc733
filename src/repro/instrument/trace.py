"""Per-iteration execution traces.

Every CC run produces a :class:`RunTrace`: one :class:`IterationRecord`
per round with the traversal direction, frontier density, convergence
state and the counter *delta* for that round.  The evaluation harness
derives Figures 3/7/8 (convergence curves), Table VI (first-iteration
times) and Table VII (per-iteration directions) directly from traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .counters import OpCounters

__all__ = ["Direction", "IterationRecord", "RunTrace"]


class Direction(str, Enum):
    """Traversal kind of one iteration."""

    PULL = "pull"
    PUSH = "push"
    PULL_FRONTIER = "pull-frontier"   # Thrifty's frontier-materializing pull
    INITIAL_PUSH = "initial-push"     # Thrifty iteration 0
    SYNC = "sync"                     # label-array synchronization pass


class _LazyMakespan:
    """Data descriptor behind :attr:`IterationRecord.makespan`.

    The engine stores a callable that replays the scheduler over the
    round's work; the replay runs on the first read and its float
    replaces the callable, so runs that never read makespans never
    simulate the schedule.  ``repr`` and ``==`` read the attribute,
    hence see the computed float and never the pending state.
    """

    def __get__(self, rec, owner=None):
        if rec is None:
            return 0.0                  # the dataclass field default
        value = rec.__dict__["makespan"]
        if callable(value):
            value = rec.__dict__["makespan"] = float(value())
        return value

    def __set__(self, rec, value) -> None:
        rec.__dict__["makespan"] = value


@dataclass
class IterationRecord:
    """One algorithm round."""

    index: int
    direction: Direction
    density: float                  # frontier density entering the round
    active_vertices: int            # |F.V| entering the round
    active_edges: int               # |F.E| entering the round
    changed_vertices: int           # labels modified this round
    converged_fraction: float       # vertices at final label after round
    counters: OpCounters = field(default_factory=OpCounters)
    # Simulated parallel finish time of the round's parallel-for:
    # the work-stealing scheduler's makespan over the per-partition
    # work (vertices scanned + edges processed) the round performed.
    # Unitless work units, not milliseconds; 0.0 for algorithms that
    # do not run on the partitioned schedule.  May be set to a
    # zero-argument callable instead of a float: it runs on first
    # read (see :class:`_LazyMakespan`).
    makespan: float = _LazyMakespan()
    # Representation of the frontier this round produced:
    # "worklist"/"bitmap" (AdaptiveFrontier) or "count-only"
    # (CountOnlyFrontier); "" when the round kept no frontier record.
    frontier_mode: str = ""
    # AdaptiveFrontier representation switches while building it.
    frontier_conversions: int = 0

    @property
    def edges_processed(self) -> int:
        return self.counters.edges_processed


@dataclass
class RunTrace:
    """Whole-run record: iterations plus run-level totals.

    ``setup_counters`` holds pre-iteration work (label initialization,
    Zero Planting's max-degree reduction, parent-array setup) so run
    totals include it without inflating the iteration count.
    """

    algorithm: str
    dataset: str = ""
    iterations: list[IterationRecord] = field(default_factory=list)
    setup_counters: OpCounters = field(default_factory=OpCounters)

    def add(self, record: IterationRecord) -> None:
        self.iterations.append(record)

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    def total_counters(self) -> OpCounters:
        total = self.setup_counters.copy()
        for rec in self.iterations:
            total += rec.counters
        total.iterations = self.num_iterations
        return total

    def total_edges_processed(self) -> int:
        return sum(r.edges_processed for r in self.iterations)

    def convergence_curve(self) -> list[float]:
        """converged_fraction after each round (Figures 3/7/8 series)."""
        return [r.converged_fraction for r in self.iterations]

    def makespans(self) -> list[float]:
        """Per-iteration simulated parallel time (work units)."""
        return [r.makespan for r in self.iterations]

    def total_makespan(self) -> float:
        """Simulated parallel time of the whole run (work units)."""
        return float(sum(r.makespan for r in self.iterations))

    def directions(self) -> list[Direction]:
        return [r.direction for r in self.iterations]

    def pull_records(self) -> list[IterationRecord]:
        return [r for r in self.iterations
                if r.direction in (Direction.PULL, Direction.PULL_FRONTIER)]
