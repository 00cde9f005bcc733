"""Sharded CC tier on a simulated BSP fabric (paper Section VII).

Distributed Thrifty-style LP and distributed FastSV run over the same
bandwidth-accounted message fabric; runs are reachable through the
typed front door (``connected_components(graph, "distributed",
options=DistributedOptions(...))``), the service planner and the CLI.
"""

from ..options import DistributedOptions
from .comm import CommStats, Fabric
from .costmodel import (
    ETHERNET_25G,
    HDR_INFINIBAND,
    NetworkSpec,
    simulate_distributed_time,
)
from .lp import distributed_cc
from .partition import PARTITION_STRATEGIES, edge_cut, rank_bounds

__all__ = [
    "Fabric",
    "CommStats",
    "DistributedOptions",
    "distributed_cc",
    "NetworkSpec",
    "ETHERNET_25G",
    "HDR_INFINIBAND",
    "simulate_distributed_time",
    "PARTITION_STRATEGIES",
    "rank_bounds",
    "edge_cut",
]

