"""Public front door: ``connected_components(graph, method=...)``.

Every algorithm from the paper's evaluation is addressable by name:

=============  ====================================================
``thrifty``    Thrifty Label Propagation (Algorithm 2, this paper)
``dolp``       Direction-Optimizing Label Propagation (Algorithm 1)
``unified``    DO-LP + Unified Labels Array (ablation variant)
``sv``         Shiloach-Vishkin
``fastsv``     FastSV (LP-flavoured SV variant, Related Work)
``lp-shortcut``  LP with pointer-jump shortcutting [65]
``jt``         Jayanti-Tarjan
``afforest``   Afforest
``bfs``        BFS-CC
``kla``        K-Level Asynchronous LP (Section VII, extension)
``connectit``  ConnectIt sampling x finish (Related Work, extension)
``distributed``  sharded tier on the simulated fabric (Section VII)
``auto``       structure-aware routing (Table IV crossover; service)
=============  ====================================================

Algorithm tunables travel as one typed options dataclass per method
(see :mod:`repro.options`); ``method="auto"`` consults the serving
layer's planner (:mod:`repro.service`), which probes the graph's
structure once and routes to Thrifty or Afforest according to the
measured Table IV crossover.  Every dispatch target accepts
``machine=`` uniformly: label-propagation methods schedule on it,
the baselines accept and ignore it (their execution is
machine-independent; the cost model applies it at timing).
"""

from __future__ import annotations

from typing import Any, Callable

from .baselines import afforest_cc, bfs_cc, fastsv_cc, \
    jayanti_tarjan_cc, shiloach_vishkin_cc
from .baselines.lp_shortcut import lp_shortcut_cc
from .connectit import connectit_cc
from .core import CCResult, dolp_cc, thrifty_cc, unified_dolp_cc
from .core.kla import KLAOptions, kla_cc
from .graph.csr import CSRGraph
from .options import DistributedOptions, resolve_options, to_call_kwargs
from .parallel.machine import SKYLAKEX, MachineSpec

__all__ = ["ALGORITHMS", "connected_components", "num_components"]


def _kla_adapter(graph: CSRGraph, *, machine: MachineSpec = SKYLAKEX,
                 dataset: str = "", **kw) -> CCResult:
    """KLA through the keyword-style front door (``machine`` unused)."""
    return kla_cc(graph, KLAOptions(**kw), dataset=dataset)


def _distributed_adapter(graph: CSRGraph, *,
                         machine: MachineSpec = SKYLAKEX,
                         dataset: str = "", **kw) -> CCResult:
    """The sharded tier through the front door (``machine`` unused)."""
    from .distributed import distributed_cc
    return distributed_cc(graph, DistributedOptions(**kw), dataset=dataset)


#: Dispatch table.  Every entry has the uniform signature
#: ``fn(graph, *, machine=..., dataset=..., **option_fields)``.
ALGORITHMS: dict[str, Callable[..., CCResult]] = {
    "thrifty": thrifty_cc,
    "dolp": dolp_cc,
    "unified": unified_dolp_cc,
    "sv": shiloach_vishkin_cc,
    "fastsv": fastsv_cc,
    "lp-shortcut": lp_shortcut_cc,
    "jt": jayanti_tarjan_cc,
    "afforest": afforest_cc,
    "bfs": bfs_cc,
    "connectit": connectit_cc,
    "kla": _kla_adapter,
    "distributed": _distributed_adapter,
}

#: The planner-routed pseudo-method accepted by the front door.
AUTO_METHOD = "auto"


def connected_components(graph: CSRGraph,
                         method: str = "thrifty",
                         *,
                         machine: MachineSpec = SKYLAKEX,
                         dataset: str = "",
                         options: Any = None) -> CCResult:
    """Compute connected components with the named algorithm.

    Parameters
    ----------
    graph:
        Canonical CSR graph (see :func:`repro.graph.build_graph`).
    method:
        One of :data:`ALGORITHMS`, or ``"auto"`` to let the serving
        layer's structure-aware planner pick the Table IV winner
        family for this graph.
    machine:
        Simulated machine (affects LP scheduling and all cost models).
    options:
        Typed options dataclass for the method (:mod:`repro.options`);
        ``None`` runs the algorithm's canonical configuration.
        ``"auto"`` routes with per-algorithm defaults and therefore
        accepts no options.

    Returns
    -------
    CCResult
        Labels plus the full per-iteration trace.
    """
    if method == AUTO_METHOD:
        if options is not None:
            raise ValueError(
                "method='auto' picks the algorithm itself and takes "
                "no options; pass an explicit method to tune it")
        from .service import plan_for_graph
        method = plan_for_graph(graph, machine=machine).method
    try:
        fn = ALGORITHMS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; pick one of "
            f"{sorted([*ALGORITHMS, AUTO_METHOD])}") from None
    opts = resolve_options(method, options)
    return fn(graph, machine=machine, dataset=dataset,
              **to_call_kwargs(opts))


def num_components(graph: CSRGraph,
                   method: str = "thrifty",
                   *,
                   machine: MachineSpec = SKYLAKEX,
                   dataset: str = "",
                   options: Any = None) -> int:
    """Number of connected components (convenience wrapper).

    Same signature as :func:`connected_components`; every argument is
    forwarded, so machine choice, dataset tagging and typed options
    behave identically to the full call.
    """
    return connected_components(
        graph, method, machine=machine, dataset=dataset,
        options=options).num_components
