"""Typed options for the public front door.

Each algorithm name in :data:`repro.api.ALGORITHMS` has one frozen
dataclass describing every tunable it accepts; the front door takes an
instance via ``connected_components(graph, method, options=...)``.
Because the classes are frozen and hold only scalars, an options value
is hashable and comparable — the service layer uses the resolved
instance directly as part of its result-cache key, so two requests
that spell the same configuration differently (``options=None``,
defaulted fields, an explicitly constructed dataclass) canonicalize to
the same cache entry.

==============  ====================================================
``thrifty``     :class:`ThriftyOptions`
``dolp``        :class:`DOLPOptions`
``unified``     :class:`UnifiedOptions`
``sv``          :class:`UnionFindOptions`
``fastsv``      :class:`FastSVOptions`
``lp-shortcut`` :class:`LPShortcutOptions`
``jt``          :class:`JTOptions`
``afforest``    :class:`AfforestOptions`
``bfs``         :class:`BFSOptions`
``kla``         :class:`KLAOptions` (reused from :mod:`repro.core.kla`)
``connectit``   :class:`ConnectItOptions`
``distributed`` :class:`DistributedOptions`
==============  ====================================================

LP-family fields default to ``None`` meaning "keep the algorithm's
canonical value" (:data:`repro.core.thrifty.THRIFTY_OPTIONS` etc.), so
a default-constructed options object reproduces the historical
behaviour bit-for-bit.  The options carry tunings only: the
all-vertex union-find reference is reachable through the algorithms'
own keyword arguments, not through this module.

Every engine-bearing options class carries a ``backend`` field naming
the kernel backend the run dispatches its hot kernels through
(``None`` = the canonical ``"numpy"`` backend; see
:mod:`repro.core.backends`).  It is validated at construction by the
one shared validator — an unknown name raises ``ValueError`` listing
``available_backends()`` — and, because the resolved options instance
is the cache-key component, cached results and learned costs never
mix backends.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from .baselines.afforest import validate_afforest
from .core.backends import canonical_backend
from .core.kla import KLAOptions
from .storage.modes import canonical_storage

__all__ = [
    "ThriftyOptions",
    "DOLPOptions",
    "UnifiedOptions",
    "UnionFindOptions",
    "FastSVOptions",
    "LPShortcutOptions",
    "JTOptions",
    "AfforestOptions",
    "BFSOptions",
    "KLAOptions",
    "ConnectItOptions",
    "DistributedOptions",
    "ServiceOptions",
    "OPTION_TYPES",
    "options_for",
    "resolve_options",
    "to_call_kwargs",
]

@dataclass(frozen=True)
class _LPEngineOptions:
    """Shared tunables of the label-propagation engine front doors.

    ``None`` means "use the algorithm's canonical value" — see
    :class:`repro.core.engine.LPOptions` for the semantics and
    validation of each field.  The four optimization switches are NOT
    exposed here; ablations go through :mod:`repro.core.engine`
    directly (they are different *algorithms*, not tunings).

    ``storage`` selects where the edge array lives during the run:
    ``None``/``"resident"`` (in RAM, the default — both spellings
    canonicalize to ``None`` so they share one cache key, mirroring
    ``backend``) or ``"out_of_core"`` (streamed from a blocked on-disk
    file through a cache bounded by ``resident_bytes``; see
    :mod:`repro.storage`).  Results are bit-identical either way.
    """

    threshold: float | None = None
    num_threads: int | None = None
    block_size: int | None = None
    partitions_per_thread: int | None = None
    max_iterations: int | None = None
    track_convergence: bool | None = None
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


@dataclass(frozen=True)
class ThriftyOptions(_LPEngineOptions):
    """Tunables for Thrifty (Algorithm 2)."""


@dataclass(frozen=True)
class DOLPOptions(_LPEngineOptions):
    """Tunables for DO-LP (Algorithm 1)."""


@dataclass(frozen=True)
class UnifiedOptions(_LPEngineOptions):
    """Tunables for the DO-LP + Unified Labels ablation variant."""


@dataclass(frozen=True)
class UnionFindOptions:
    """Tunables shared by the tree-hooking baselines (``sv``).

    ``backend`` selects the kernel backend for the link/hook scatters
    (bit-identical results).
    """

    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend",
                           canonical_backend(self.backend))


@dataclass(frozen=True)
class JTOptions(UnionFindOptions):
    """Tunables for Jayanti-Tarjan (adds the randomization seed)."""

    seed: int = 0


@dataclass(frozen=True)
class AfforestOptions(UnionFindOptions):
    """Tunables for Afforest (sampling phase parameters)."""

    neighbor_rounds: int = 2
    sample_size: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        validate_afforest(self.neighbor_rounds, self.sample_size)


@dataclass(frozen=True)
class FastSVOptions:
    """FastSV has no tunables; the class exists for uniformity."""


@dataclass(frozen=True)
class BFSOptions:
    """BFS-CC has no tunables; the class exists for uniformity."""


@dataclass(frozen=True)
class LPShortcutOptions:
    """Tunables for LP with pointer-jump shortcutting."""

    shortcut_depth: int = 2


@dataclass(frozen=True)
class DistributedOptions:
    """Configuration of the sharded (distributed-memory) CC tier.

    ``algorithm`` picks the method run on the simulated fabric:
    ``"lp"`` (distributed Thrifty-style label propagation) or
    ``"fastsv"`` (the distributed union-find competitor).
    ``partition`` selects the vertex-to-rank split (``"block"`` equal
    vertices, ``"degree_balanced"`` equal edges).  ``combining``
    enables sender-side min-combining + batched envelopes in the
    fabric; ``False`` replays the naive per-pair wire accounting with
    bit-identical final labels.  The three LP switches mirror the
    paper's optimizations (ignored by ``fastsv``).
    """

    num_ranks: int = 8
    algorithm: str = "lp"
    partition: str = "block"
    combining: bool = True
    zero_planting: bool = True
    zero_convergence: bool = True
    # True: send a mirror's label only when it changed since the last
    # send (change-tracking, what Thrifty-style distributed LP does).
    # False: the naive SpMV/allgather pattern — every superstep, every
    # boundary vertex broadcasts its label to each neighbouring rank.
    dedup_sends: bool = True
    max_supersteps: int = 100_000
    # Kernel backend for the rank-local pulls (None = canonical numpy).
    backend: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend",
                           canonical_backend(self.backend))
        if self.num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if self.algorithm not in ("lp", "fastsv"):
            raise ValueError(
                f"unknown distributed algorithm {self.algorithm!r}; "
                "pick 'lp' or 'fastsv'")
        if self.partition not in ("block", "degree_balanced"):
            raise ValueError(
                f"unknown partition strategy {self.partition!r}; "
                "pick 'block' or 'degree_balanced'")
        if self.max_supersteps < 1:
            raise ValueError("max_supersteps must be >= 1")


@dataclass(frozen=True)
class ServiceOptions:
    """Scheduler configuration of the async serving executor.

    Not an algorithm options class (it never enters a result-cache
    key): it shapes *how* :class:`repro.service.CCService` schedules
    work on its simulated clock, not what any run computes.

    ``concurrency`` is the number of simulated workers that may
    compute at once.  ``max_queue_ms`` caps the planner-predicted
    simulated-ms backlog admitted into the queue; ``max_queue_depth``
    caps the queued request count (``None`` disables either check —
    the default service never rejects).  ``tenant_quota_ms`` caps one
    tenant's outstanding (queued + running) predicted ms, so a heavy
    tenant is rejected before it can starve the rest.  ``num_lanes``
    is the number of strict-priority lanes; a request's ``priority``
    is clamped into ``[0, num_lanes)``, lane 0 drains first.

    ``delta_serving`` enables the incremental tier: a cache miss on a
    mutated graph may be served by delta-updating a predecessor's
    cached labels instead of recomputing (bit-identical labels, see
    :mod:`repro.incremental`).  ``max_delta_chain`` bounds how many
    lineage steps the executor walks looking for a cached seed — a
    longer chain replays more batched edges, and past the bound a
    recompute is predicted cheaper anyway.

    ``feedback`` enables the measured-cost feedback loop: every
    executed run feeds its measured simulated-ms back into the
    registry's :class:`~repro.service.feedback.RouterFeedback`
    posterior, and routing / admission / delta gating apply the
    learned per-fingerprint corrections on top of the static cost
    model.  With no observations the corrections are exactly 1.0, so
    enabling feedback never changes cold-start routing.
    ``explore_rate`` is the epsilon of the seeded epsilon-greedy
    exploration policy: when the correction-adjusted
    :attr:`~repro.service.planner.RoutePlan.margin` of an auto-routed
    request falls below ``explore_margin``, the runner-up family is
    deliberately run with probability ``explore_rate`` (deterministic
    given ``explore_seed``), so a near-margin wrong prior gets the
    measured observation that falsifies it.  The default rate of 0.0
    never explores.
    """

    concurrency: int = 1
    max_queue_ms: float | None = None
    max_queue_depth: int | None = None
    tenant_quota_ms: float | None = None
    num_lanes: int = 2
    delta_serving: bool = True
    max_delta_chain: int = 8
    feedback: bool = True
    explore_margin: float = 1.25
    explore_rate: float = 0.0
    explore_seed: int = 0

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.num_lanes < 1:
            raise ValueError("num_lanes must be >= 1")
        if self.max_delta_chain < 1:
            raise ValueError("max_delta_chain must be >= 1")
        if self.max_queue_ms is not None and self.max_queue_ms < 0:
            raise ValueError("max_queue_ms must be >= 0")
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0")
        if self.tenant_quota_ms is not None and self.tenant_quota_ms <= 0:
            raise ValueError("tenant_quota_ms must be > 0")
        if self.explore_margin < 1.0:
            raise ValueError("explore_margin must be >= 1.0")
        if not 0.0 <= self.explore_rate <= 1.0:
            raise ValueError("explore_rate must be in [0, 1]")


@dataclass(frozen=True)
class ConnectItOptions:
    """One (sampling, finish) point of the ConnectIt design space.

    ``k`` parameterizes k-out sampling and ``rounds`` the BFS/LDD
    sampling strategies; ``None`` keeps the strategy's own default.
    """

    sampling: str = "kout"
    finish: str = "skip-giant"
    seed: int = 0
    k: int | None = None
    rounds: int | None = None


#: method name -> its options dataclass.  ``KLAOptions`` is the
#: canonical KLA configuration object reused as-is.
OPTION_TYPES: dict[str, type] = {
    "thrifty": ThriftyOptions,
    "dolp": DOLPOptions,
    "unified": UnifiedOptions,
    "sv": UnionFindOptions,
    "fastsv": FastSVOptions,
    "lp-shortcut": LPShortcutOptions,
    "jt": JTOptions,
    "afforest": AfforestOptions,
    "bfs": BFSOptions,
    "kla": KLAOptions,
    "connectit": ConnectItOptions,
    "distributed": DistributedOptions,
}


def options_for(method: str, **fields_) -> Any:
    """Construct the right options dataclass for ``method``.

    Raises ``ValueError`` for an unknown method or an unknown option
    field, naming the valid choices in both cases.
    """
    try:
        cls = OPTION_TYPES[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; pick one of "
            f"{sorted([*OPTION_TYPES, 'auto'])}") from None
    valid = {f.name for f in fields(cls)}
    unknown = sorted(set(fields_) - valid)
    if unknown:
        raise ValueError(
            f"unknown option(s) {unknown} for method {method!r}; "
            f"valid options: {sorted(valid) or '(none)'}")
    return cls(**fields_)


def to_call_kwargs(options: Any) -> dict[str, Any]:
    """Flatten an options dataclass into algorithm keyword arguments.

    ``None`` fields mean "algorithm default" and are omitted, so the
    callee's own defaults stay the single source of truth.
    """
    return {f.name: v for f in fields(options)
            if (v := getattr(options, f.name)) is not None}


def resolve_options(method: str, options: Any) -> Any:
    """Canonicalize the front door's ``options=`` input.

    ``None`` resolves to the method's defaults.  The returned instance
    is always of ``OPTION_TYPES[method]`` exactly, making it safe to
    use as a canonical cache-key component.
    """
    cls = OPTION_TYPES.get(method)
    if cls is None:
        raise ValueError(
            f"unknown method {method!r}; pick one of "
            f"{sorted([*OPTION_TYPES, 'auto'])}")
    if options is None:
        return cls()
    if type(options) is not cls:
        raise TypeError(
            f"method {method!r} takes {cls.__name__}, "
            f"got {type(options).__name__}")
    return options
