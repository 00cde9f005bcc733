"""Simulated parallel runtime: machines, partitions, scheduling, frontiers.

This package is the substitution (DESIGN.md Section 2) for the paper's
pthreads/futex/libnuma runtime: deterministic, instrumentable, and
faithful to the visit orders and thread-local structures the paper's
algorithms rely on.
"""

from .frontier import AdaptiveFrontier, CountOnlyFrontier
from .machine import EPYC, MACHINES, SKYLAKEX, MachineSpec
from .partition import (
    PARTITIONS_PER_THREAD,
    Partitioning,
    edge_balanced_partitions,
    vertex_balanced_partitions,
)
from .scheduler import ScheduleStep, WorkStealingScheduler
from .worklist import LocalWorklists

__all__ = [
    "MachineSpec",
    "SKYLAKEX",
    "EPYC",
    "MACHINES",
    "Partitioning",
    "edge_balanced_partitions",
    "vertex_balanced_partitions",
    "PARTITIONS_PER_THREAD",
    "WorkStealingScheduler",
    "ScheduleStep",
    "CountOnlyFrontier",
    "AdaptiveFrontier",
    "LocalWorklists",
]
