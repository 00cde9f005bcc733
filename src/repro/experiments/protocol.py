"""Trial protocol: repeated, verified measurement runs.

Follows the GAP Benchmark Suite discipline the paper's comparators use
(GAPBS runs each kernel over multiple trials and verifies every
output): each trial runs the algorithm, validates the components
against the scipy oracle, and records the simulated time; the
aggregate reports mean/min/max and the full per-trial list.

Seeded algorithms (JT, Afforest, ConnectIt samplers) get a distinct
seed per trial, so the statistics cover their randomization; the
deterministic algorithms simply confirm reproducibility (zero
variance).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, fields, replace

from ..api import connected_components
from ..graph.csr import CSRGraph
from ..instrument.costmodel import simulate_run_time
from ..options import resolve_options
from ..parallel.machine import MACHINES, MachineSpec
from ..validate import validate_against_reference

__all__ = ["TrialStats", "run_trials"]


@dataclass
class TrialStats:
    """Aggregate of a verified multi-trial measurement."""

    method: str
    machine: str
    trials: list[float] = field(default_factory=list)
    iterations: list[int] = field(default_factory=list)
    verified: bool = False

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def mean_ms(self) -> float:
        return statistics.mean(self.trials) if self.trials else 0.0

    @property
    def min_ms(self) -> float:
        return min(self.trials) if self.trials else 0.0

    @property
    def max_ms(self) -> float:
        return max(self.trials) if self.trials else 0.0

    @property
    def stdev_ms(self) -> float:
        return statistics.stdev(self.trials) if len(self.trials) > 1 \
            else 0.0


def run_trials(graph: CSRGraph, method: str,
               *, num_trials: int = 5,
               machine: MachineSpec | str = "SkylakeX",
               verify: bool = True,
               seed_base: int = 0,
               options: object = None) -> TrialStats:
    """Run ``num_trials`` verified trials of one algorithm.

    Raises if any trial produces wrong components (when ``verify``).
    When ``options`` is omitted, algorithms with a ``seed`` field get
    ``seed_base + trial`` so the statistics cover their randomization;
    explicit ``options`` are used verbatim on every trial (a
    reproducibility measurement).
    """
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    spec = MACHINES[machine] if isinstance(machine, str) else machine
    vary_seed = options is None
    base_options = resolve_options(method, options)
    seeded = any(f.name == "seed" for f in fields(base_options))
    stats = TrialStats(method=method, machine=spec.name)
    for trial in range(num_trials):
        trial_options = base_options
        if seeded and vary_seed:
            trial_options = replace(base_options,
                                    seed=seed_base + trial)
        result = connected_components(graph, method, machine=spec,
                                      options=trial_options)
        if verify:
            validate_against_reference(graph, result)
        timing = simulate_run_time(result.trace, spec,
                                   graph.num_vertices)
        stats.trials.append(timing.total_ms)
        stats.iterations.append(result.num_iterations)
    stats.verified = verify
    return stats
