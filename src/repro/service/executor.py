"""The request executor: CCService and its async scheduler.

This is the serving loop the ROADMAP's production framing asks for,
rebuilt around an event-loop scheduler on a *simulated clock*:

* Requests arrive with timestamps (``CCRequest.arrival_ms``) and are
  scheduled onto a pool of ``ServiceOptions.concurrency`` simulated
  workers; every request is registered, ``auto``-routed through the
  structure-aware planner (one plan per fingerprint, memoized), and
  checked against the LRU result cache before anything runs.
* **Coalescing** — identical in-flight requests (same canonical cache
  key *and* budget) share one compute: the first becomes the job's
  primary, later arrivals attach as waiters and all of them observe
  the same :class:`CCResult` object at the job's completion.
* **Admission control + backpressure** — when all workers are busy, a
  new job's planner-predicted simulated-ms is charged against
  ``max_queue_ms`` / ``max_queue_depth``; over-capacity requests are
  *rejected* (``status="rejected"``) instead of growing the queue
  without bound.  Per-tenant ``tenant_quota_ms`` caps one tenant's
  outstanding predicted work so a heavy tenant cannot starve the rest.
* **Priority lanes + fair tenants** — queued jobs sit in strict
  priority lanes (``CCRequest.priority``, clamped to
  ``ServiceOptions.num_lanes``); within a lane the scheduler picks the
  tenant with the least served predicted-ms (deficit-style weighted
  fairness), FIFO per tenant.
* **Measured-cost feedback** — every executed run's measured
  simulated-ms is fed back into the registry's
  :class:`~repro.service.feedback.RouterFeedback` posterior (keyed by
  fingerprint, method and machine, always against the *uncorrected*
  static prediction), and auto routing re-decides each arrival on the
  correction-adjusted family costs (:func:`~repro.service.planner.
  replan` over the memoized static plan).  Corrections also price
  admission control and delta gating.  Near-margin decisions are
  occasionally sent to the runner-up family by a deterministic seeded
  epsilon-greedy policy (``ServiceOptions.explore_rate`` /
  ``explore_margin``), so a wrong prior gets the observation that
  falsifies it.  With feedback empty (or disabled) routing is
  bit-identical to the static planner.
* **Budgets** — per-request simulated-time budgets with the
  Thrifty→Afforest fallback, with *honest accounting*: the budget
  outcome of every executed run is recorded alongside its cache
  entry, so a later cache hit replays the recorded
  ``budget_exceeded``/``fallback`` flags (and the fallback's cached
  result) instead of silently reporting the blown primary as healthy.

The synchronous API is a thin wrapper: ``submit`` schedules one
arrival at the current clock and drains the loop, which reduces to
exactly the old route→cache→run→fallback sequence — results, flags
and metrics on that path are unchanged (bit-identical labels).

Time here is *simulated* milliseconds from the repo's CostModel —
the serving layer inherits the cost semantics every benchmark in this
repo uses, so "the run blew its budget" means the same thing in a
service trace as in Table IV.
"""

from __future__ import annotations

import heapq
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

import numpy as np

from ..api import ALGORITHMS, AUTO_METHOD
from ..core.result import CCResult, validate_extras
from ..distributed import simulate_distributed_time
from ..graph.csr import CSRGraph
from ..incremental import (DELTA_METHODS, PLANTED_METHODS,
                           DeltaIneligible, delta_update, hub_stable)
from ..instrument.costmodel import CostModel, simulate_run_time
from ..instrument.counters import OpCounters
from ..instrument.trace import RunTrace
from ..options import (DistributedOptions, ServiceOptions,
                       resolve_options, to_call_kwargs)
from ..parallel.machine import SKYLAKEX, MachineSpec
from .cache import ResultCache, result_cache_key
from .feedback import (RouterFeedback, backend_feedback_key,
                       delta_feedback_key)
from .metrics import ServiceMetrics
from .planner import (DISTRIBUTED_METHOD, UF_METHOD, RoutePlan,
                      method_family, plan, predict_delta_ms,
                      predicted_method_ms, replan, runner_up)
from .registry import GraphEntry, GraphRegistry

__all__ = ["CCRequest", "CCResponse", "CCService",
           "REJECT_QUEUE_FULL", "REJECT_QUEUE_DEPTH",
           "REJECT_TENANT_QUOTA"]

#: Admission-control rejection reasons (``CCResponse.reject_reason``).
REJECT_QUEUE_FULL = "queue-full"
REJECT_QUEUE_DEPTH = "queue-depth"
REJECT_TENANT_QUOTA = "tenant-quota"

_ARRIVE = 0
_FINISH = 1


@dataclass(eq=False, slots=True)
class CCRequest:
    """One unit of service work.

    Provide either ``graph`` (registered on submit) or ``key`` (the
    name or fingerprint of an already-registered graph).  ``method``
    defaults to ``"auto"`` — the planner picks; ``budget_ms`` caps the
    request's simulated time, triggering the union-find fallback when
    the primary run exceeds it.

    Scheduling fields (all optional; the defaults reproduce the
    synchronous behaviour): ``tenant`` attributes the request for
    quotas and per-tenant metrics; ``priority`` selects the strict
    lane (0 drains first, clamped to the service's ``num_lanes``);
    ``arrival_ms`` places the request on the simulated clock (``None``
    = the service's current clock, i.e. "now").

    ``eq=False``: requests are identities (the embedded
    ndarray-bearing graph makes value equality ill-defined and
    useless here).
    """

    graph: CSRGraph | None = None
    key: str | None = None
    method: str = AUTO_METHOD
    options: object = None
    budget_ms: float | None = None
    name: str = ""          # alias to register the graph under
    tenant: str = "default"
    priority: int = 0
    arrival_ms: float | None = None


@dataclass(eq=False, slots=True)
class CCResponse:
    """What the service returns for one request.

    ``simulated_ms`` is the *charged compute* that produced the result
    (0 for cache hits; primary + fallback for blown budgets; shared
    verbatim by coalesced waiters — the work ran once).  The request's
    end-to-end simulated latency is ``finish_ms - arrival_ms``
    (= ``queue_delay_ms`` + charged compute for the job's primary).
    Check ``status`` before touching ``result``: an admission-control
    rejection carries ``status="rejected"``, a ``reject_reason``, and
    no result.
    """

    request: CCRequest
    fingerprint: str
    method: str                   # resolved concrete algorithm that ran
    result: CCResult | None
    simulated_ms: float           # total charged time (incl. fallback)
    cache_hit: bool
    fallback: bool = False        # budget blown -> Afforest finished it
    budget_exceeded: bool = False
    plan: RoutePlan | None = None  # set when method was "auto"
    status: str = "ok"            # "ok" | "rejected"
    reject_reason: str = ""
    coalesced: bool = False       # rode along on another compute
    # Served by delta-updating a predecessor's cached labels instead
    # of recomputing (bit-identical result, touched-set work only).
    delta_hit: bool = False
    queue_delay_ms: float = 0.0
    arrival_ms: float = 0.0
    start_ms: float = 0.0
    finish_ms: float = 0.0
    tenant: str = "default"

    @property
    def num_components(self) -> int:
        if self.result is None:
            raise ValueError(
                f"request was {self.status} ({self.reject_reason}); "
                "no result to read")
        return self.result.num_components


@dataclass(eq=False, slots=True)
class _Member:
    """One request riding on a job (index 0 = primary, rest waiters)."""

    request: CCRequest
    slot: int
    responses: list
    arrival_ms: float
    route: RoutePlan | None
    auto_routed: bool


@dataclass(eq=False, slots=True)
class _DeltaPlan:
    """A resolved delta-serving opportunity for one cache miss.

    ``seed`` is a cached result of the same (method, machine, options)
    on the ancestor ``seed_fingerprint``; ``src``/``dst`` concatenate
    the lineage batches from that ancestor down to the requested
    graph (``chain`` mutation steps); ``hub`` is the seed's planting
    hub for planted methods (``None`` otherwise).
    """

    seed: CCResult
    seed_fingerprint: str
    src: np.ndarray
    dst: np.ndarray
    chain: int
    hub: int | None
    predicted_ms: float
    # The *uncorrected* static delta prediction — what feedback
    # observations are measured against (``predicted_ms`` may carry a
    # learned correction, which must not compound onto itself).
    base_predicted_ms: float = 0.0


@dataclass(eq=False, slots=True)
class _Job:
    """One scheduled compute: a primary request plus coalesced waiters."""

    entry: GraphEntry
    method: str                   # method that runs as the primary
    options: object
    cache_key: tuple
    coalesce_key: tuple
    budget_ms: float | None
    tenant: str
    lane: int
    predicted_ms: float
    members: list[_Member]
    # A cache hit whose recorded run blew this job's budget, with the
    # fallback result not cached: the job runs the fallback only,
    # with the outcome flags preset (the primary is known-blown).
    preset_fallback: bool = False
    primary_method: str = ""      # routed method, for metrics attribution
    # Serve this job by delta-updating the plan's cached seed labels
    # instead of a from-scratch run (cleared if the update bails).
    delta: _DeltaPlan | None = None
    # Filled by _execute / scheduling:
    start_ms: float = 0.0
    total_ms: float = 0.0
    final_method: str = ""
    final_result: CCResult | None = None
    fallback: bool = False
    exceeded: bool = False
    work: OpCounters = field(default_factory=OpCounters)
    # (cache_key, result, run_ms) inserts deferred to the FINISH
    # event: on the simulated clock the result does not exist until
    # the job completes, so caching at execute time would serve
    # anachronistic hits to requests arriving mid-flight (they must
    # coalesce instead).
    cache_puts: list = field(default_factory=list)


class CCService:
    """Connected-components serving front end.

    One service instance owns a graph registry, a result cache, a
    metrics aggregator, and an event-loop scheduler on a simulated
    clock, all scoped to one target machine model.  ``submit`` /
    ``submit_batch`` are synchronous wrappers over the scheduler;
    ``run_trace`` drives a timestamped multi-tenant workload through
    it (coalescing, admission control, priority lanes).
    """

    def __init__(self, *, machine: MachineSpec = SKYLAKEX,
                 cache_capacity: int = 128,
                 registry: GraphRegistry | None = None,
                 single_node_edge_budget: int | None = None,
                 resident_byte_budget: int | None = None,
                 service_options: ServiceOptions | None = None) -> None:
        self.machine = machine
        self.registry = registry if registry is not None else GraphRegistry()
        self.cache = ResultCache(cache_capacity)
        self.metrics = ServiceMetrics()
        # Graphs whose probed edge count exceeds this route to the
        # sharded tier under method="auto" (None: never).
        self.single_node_edge_budget = single_node_edge_budget
        # Graphs that fit a node but whose edge array exceeds this
        # byte budget run out-of-core under method="auto" (None:
        # everything is resident); it also bounds the block cache of
        # out-of-core runs and of register_path opens.
        if resident_byte_budget is not None and resident_byte_budget < 1:
            raise ValueError("resident_byte_budget must be >= 1")
        self.resident_byte_budget = resident_byte_budget
        self.options = (service_options if service_options is not None
                        else ServiceOptions())
        # Deterministic exploration stream: same seed + same trace =>
        # the same runner-up choices, replayable in tests.
        self._explore_rng = random.Random(self.options.explore_seed)
        # -- scheduler state (simulated clock) ------------------------
        self.clock_ms = 0.0
        self._events: list[tuple[float, int, int, object]] = []
        self._seq = 0
        self._running = 0
        self._lanes: list[dict[str, deque[_Job]]] = [
            {} for _ in range(self.options.num_lanes)]
        self._queued_depth = 0
        self._queued_pred_ms = 0.0
        self._inflight: dict[tuple, _Job] = {}
        self._outstanding_ms: dict[str, float] = {}
        self._tenant_served_ms: dict[str, float] = {}
        # Budget-outcome metadata parallel to the result cache: cache
        # key -> simulated ms of the run that produced the entry, so a
        # hit can replay the honest budget/fallback flags.  Bounded
        # LRU (cache evictions are not observable from here).
        self._run_meta: OrderedDict[tuple, float] = OrderedDict()
        # One routing decision per fingerprint: probes are immutable,
        # so repeat auto requests reuse the plan instead of re-pricing
        # the cost model per request.
        self._plan_memo: dict[str, RoutePlan] = {}

    # -- graph management ---------------------------------------------

    def register(self, graph: CSRGraph, *, name: str = "") -> GraphEntry:
        """Pre-register a graph (optional; submit registers implicitly)."""
        entry = self.registry.register(graph, name=name)
        self._sweep_stale()
        return entry

    def register_path(self, path, *, name: str = "",
                      resident_bytes: int | None = None,
                      mode: str = "mmap") -> GraphEntry:
        """Register a blocked on-disk graph without materializing it.

        ``resident_bytes`` bounds the opened graph's block cache and
        defaults to the service's ``resident_byte_budget``.
        """
        entry = self.registry.register_path(
            path, name=name,
            resident_bytes=(resident_bytes if resident_bytes is not None
                            else self.resident_byte_budget),
            mode=mode)
        self._sweep_stale()
        return entry

    def mutate(self, key: str, *, insert=None, remove=None,
               name: str | None = None) -> GraphEntry:
        """Apply an edge mutation to a registered graph.

        The sanctioned mutation path: delegates to
        :meth:`GraphRegistry.mutate` (successor entry under a new
        fingerprint, name re-pointed, insertion lineage recorded) and
        sweeps any quarantined fingerprints out of the result cache.
        Subsequent key-based requests see the successor; with
        ``ServiceOptions.delta_serving`` they are served by
        delta-updating the predecessor's cached labels when that is
        predicted cheaper than recomputing.
        """
        entry = self.registry.mutate(key, insert=insert, remove=remove,
                                     name=name)
        self._sweep_stale()
        return entry

    def _sweep_stale(self) -> None:
        """Purge cached state keyed by quarantined fingerprints.

        The registry quarantines a fingerprint when it detects that a
        registered graph's arrays were mutated in place (the unsanctioned
        path): every cached result, memoized plan and run record for
        that fingerprint describes content that no longer exists.
        """
        for fp in self.registry.drain_stale():
            dropped = self.cache.invalidate_fingerprint(fp)
            self.metrics.record_invalidations(dropped)
            self._plan_memo.pop(fp, None)
            for key in [k for k in self._run_meta if k[0] == fp]:
                del self._run_meta[key]

    # -- request execution --------------------------------------------

    def submit(self, request: CCRequest) -> CCResponse:
        """Execute one request through registry, planner, and cache.

        Synchronous wrapper over the scheduler: the request arrives at
        the current simulated clock and the loop drains before
        returning, which reduces to the classic route → cache → run →
        fallback sequence (a lone request never queues or coalesces).
        """
        return self.run_trace([request])[0]

    def submit_batch(self, requests: list[CCRequest]) -> list[CCResponse]:
        """Execute a batch in order; later requests see earlier caching."""
        return [self.submit(r) for r in requests]

    def run_trace(self, requests: list[CCRequest]) -> list[CCResponse]:
        """Drive a timestamped request trace through the scheduler.

        Arrivals happen at each request's ``arrival_ms`` (clamped to
        the current clock; ``None`` means "now"); the loop runs until
        every request has completed or been rejected, and responses
        are returned in input order.  Requests should be valid — a
        resolution error (unknown method, missing graph) propagates
        and aborts the remainder of the trace.
        """
        responses: list = [None] * len(requests)
        base = self.clock_ms
        for slot, req in enumerate(requests):
            arrival = base if req.arrival_ms is None \
                else max(req.arrival_ms, base)
            self._push(arrival, _ARRIVE, (req, slot, responses))
        try:
            self._drain()
        except BaseException:
            self._reset_scheduler()
            raise
        return responses

    def connected_components(self, graph: CSRGraph, *,
                             method: str = AUTO_METHOD,
                             options: object = None,
                             budget_ms: float | None = None,
                             name: str = "") -> CCResponse:
        """One-call convenience wrapper around :meth:`submit`."""
        return self.submit(CCRequest(graph=graph, method=method,
                                     options=options,
                                     budget_ms=budget_ms, name=name))

    # -- event loop ---------------------------------------------------

    def _push(self, time_ms: float, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._events, (time_ms, self._seq, kind, payload))

    def _drain(self) -> None:
        while self._events:
            time_ms, _, kind, payload = heapq.heappop(self._events)
            self.clock_ms = max(self.clock_ms, time_ms)
            if kind == _ARRIVE:
                req, slot, responses = payload
                self._on_arrive(req, slot, responses, self.clock_ms)
            else:
                self._on_finish(payload, self.clock_ms)

    def _reset_scheduler(self) -> None:
        """Discard pending scheduler state after a trace error."""
        self._events.clear()
        self._lanes = [{} for _ in range(self.options.num_lanes)]
        self._queued_depth = 0
        self._queued_pred_ms = 0.0
        self._inflight.clear()
        self._outstanding_ms.clear()
        self._running = 0

    # -- arrival ------------------------------------------------------

    def _on_arrive(self, request: CCRequest, slot: int, responses: list,
                   now: float) -> None:
        entry = self._resolve_entry(request)
        route: RoutePlan | None = None
        method = request.method
        if method == AUTO_METHOD:
            if isinstance(request.options, DistributedOptions):
                # The request already describes a multi-node job: a
                # DistributedOptions value with num_ranks > 1 IS the
                # routing decision — run it on the sharded tier.
                if request.options.num_ranks > 1:
                    method = DISTRIBUTED_METHOD
                else:
                    raise ValueError(
                        "method='auto' with DistributedOptions needs "
                        "num_ranks > 1; pass method='distributed' to "
                        "force a single-rank sharded run")
            elif request.options is not None:
                raise ValueError(
                    "method='auto' picks the algorithm itself and "
                    "takes no options")
            else:
                route = self._route(entry)
                method = route.method
        elif method not in ALGORITHMS:
            known = sorted([*ALGORITHMS, AUTO_METHOD])
            raise ValueError(f"unknown method {method!r}; known: {known}")
        options = resolve_options(method, request.options)
        if (route is not None and route.storage == "out_of_core"
                and hasattr(options, "storage")):
            # The planner's fit decision becomes engine configuration:
            # the run streams edge blocks under the service's
            # resident-memory budget instead of materializing them.
            options = replace(options, storage=route.storage,
                              resident_bytes=self.resident_byte_budget)
        # Attribution name for metrics and the feedback posterior: the
        # bare method on the default backend, "<method>@<backend>"
        # otherwise, so per-backend costs never mix.
        attributed = backend_feedback_key(
            method, getattr(options, "backend", None))
        cache_key = result_cache_key(entry.fingerprint, method,
                                     self.machine.name, options)
        member = _Member(request=request, slot=slot, responses=responses,
                         arrival_ms=now, route=route,
                         auto_routed=route is not None)

        cached = self.cache.get(cache_key)
        if cached is not None and self._replay_hit(
                member, entry, method, cache_key, cached, now,
                queue_delay_ms=None, attributed=attributed):
            return
        opts = self.options
        job = _Job(entry=entry, method=method, options=options,
                   cache_key=cache_key,
                   coalesce_key=(cache_key, request.budget_ms),
                   budget_ms=request.budget_ms, tenant=request.tenant,
                   lane=min(max(request.priority, 0), opts.num_lanes - 1),
                   predicted_ms=0.0, members=[member],
                   primary_method=attributed)
        if cached is not None:
            # Recorded run blew this budget and the fallback result
            # is gone from the cache.
            job = self._fallback_job(job)
        method = job.method

        inflight = self._inflight.get(job.coalesce_key)
        if inflight is not None:
            inflight.members.append(member)
            return

        if not job.preset_fallback:
            job.delta = self._plan_delta(entry, method, options, route)

        admission = (opts.max_queue_ms is not None
                     or opts.max_queue_depth is not None
                     or opts.tenant_quota_ms is not None)
        if job.delta is not None:
            # A delta job's honest admission weight is the touched-set
            # estimate, not the full-run prediction it avoids.
            predicted = job.delta.predicted_ms
        elif route is not None:
            predicted = route.predicted_ms
        elif admission:
            predicted = predicted_method_ms(
                entry.probes, method, self.machine,
                feedback=self._feedback(), fingerprint=entry.fingerprint,
                feedback_method=attributed)
        else:
            # Fairness-only weight; explicit-method requests are not
            # probed unless admission control needs the prediction.
            predicted = 1.0
        tenant = request.tenant
        if (opts.tenant_quota_ms is not None
                and self._outstanding_ms.get(tenant, 0.0) + predicted
                > opts.tenant_quota_ms):
            self._reject(member, entry, method, REJECT_TENANT_QUOTA)
            return
        idle = self._running < opts.concurrency and self._queued_depth == 0
        if not idle:
            if (opts.max_queue_depth is not None
                    and self._queued_depth >= opts.max_queue_depth):
                self._reject(member, entry, method, REJECT_QUEUE_DEPTH)
                return
            if (opts.max_queue_ms is not None
                    and self._queued_pred_ms + predicted
                    > opts.max_queue_ms):
                self._reject(member, entry, method, REJECT_QUEUE_FULL)
                return

        job.predicted_ms = predicted
        self._inflight[job.coalesce_key] = job
        self._outstanding_ms[tenant] = \
            self._outstanding_ms.get(tenant, 0.0) + predicted
        self._lanes[job.lane].setdefault(tenant, deque()).append(job)
        self._queued_depth += 1
        self._queued_pred_ms += predicted
        self._dispatch(now)

    def _fallback_job(self, job: _Job) -> _Job:
        """``job`` turned into its preset union-find fallback job.

        Used when a cache hit's recorded run blew the job's budget and
        the fallback's cached result is gone: the job runs the
        fallback only, with the outcome flags preset (the primary is
        known-blown).  Its members share one budget, so they share the
        one fallback run; any blown budget coalesces onto it.
        """
        options = resolve_options(UF_METHOD, None)
        cache_key = result_cache_key(job.entry.fingerprint, UF_METHOD,
                                     self.machine.name, options)
        return replace(job, method=UF_METHOD, options=options,
                       cache_key=cache_key,
                       coalesce_key=(cache_key, "replay"), budget_ms=None,
                       preset_fallback=True, delta=None)

    # -- dispatch / execution -----------------------------------------

    def _pick_next(self) -> _Job | None:
        """Next queued job: strict lanes, least-served tenant, FIFO."""
        for lane in self._lanes:
            if not lane:
                continue
            tenant = min(lane, key=lambda t:
                         (self._tenant_served_ms.get(t, 0.0), t))
            queue = lane[tenant]
            job = queue.popleft()
            if not queue:
                del lane[tenant]
            return job
        return None

    def _dispatch(self, now: float) -> None:
        while self._running < self.options.concurrency:
            job = self._pick_next()
            if job is None:
                return
            self._queued_depth -= 1
            self._queued_pred_ms = max(
                0.0, self._queued_pred_ms - job.predicted_ms)
            self._tenant_served_ms[job.tenant] = \
                self._tenant_served_ms.get(job.tenant, 0.0) \
                + job.predicted_ms
            if self._start_job(job, now):
                continue  # served from cache at dequeue; worker free

    def _start_job(self, job: _Job, now: float) -> bool:
        """Start one dequeued job; True if it resolved without a worker.

        A queued job's key may have been computed by an earlier job
        while this one waited — re-check the cache at dequeue time so
        duplicates that missed the coalescing window (e.g. a
        different ``budget_ms``) still cost zero algorithm work.  The
        re-check is an internal probe, not a client lookup: it goes
        through ``peek`` so it cannot inflate the cache hit rate (the
        members' arrival-time lookups already counted their misses).
        When the cached run blew the job's budget and the fallback's
        result is not cached, the whole job becomes one fallback job,
        joining an in-flight one when there is one.
        """
        cached = self.cache.peek(job.cache_key)
        if cached is not None and not job.preset_fallback:
            self.cache.touch(job.cache_key)
            self._inflight.pop(job.coalesce_key, None)
            # Members share one budget, so the replay outcome is the
            # same for all of them: every member is served, or none is.
            first, *waiters = job.members
            if self._replay_hit(first, job.entry, job.method,
                                job.cache_key, cached, now,
                                queue_delay_ms=now - first.arrival_ms):
                self._release_outstanding(job)
                for member in waiters:
                    self._replay_hit(
                        member, job.entry, job.method, job.cache_key,
                        cached, now,
                        queue_delay_ms=now - member.arrival_ms)
                return True
            job = self._fallback_job(job)
            inflight = self._inflight.get(job.coalesce_key)
            if inflight is not None:
                inflight.members.extend(job.members)
                self._release_outstanding(job)
                return True
            self._inflight[job.coalesce_key] = job
        job.start_ms = now
        self._running += 1
        self._execute(job)
        self._push(now + job.total_ms, _FINISH, job)
        return False

    def _execute(self, job: _Job) -> None:
        """Run the job's algorithm(s) and price its simulated duration."""
        result = None
        if job.delta is not None:
            try:
                result, sim_ms = self._run_delta(job)
            except DeltaIneligible:
                # The cached seed turned out not to decode (defensive:
                # planning already checked eligibility); fall back to
                # the from-scratch run.
                job.delta = None
        if result is None:
            result, sim_ms = self._run(job.entry, job.method, job.options)
            self._observe_run(job.entry, job.method, sim_ms,
                              options=job.options)
        else:
            self._observe_run(job.entry, job.method, sim_ms,
                              options=job.options, delta=job.delta)
        job.work = result.trace.total_counters()
        job.cache_puts.append((job.cache_key, result, sim_ms))
        job.total_ms = sim_ms
        job.final_method, job.final_result = job.method, result
        job.exceeded = job.fallback = job.preset_fallback
        if job.budget_ms is not None and sim_ms > job.budget_ms:
            job.exceeded = True
            if job.method != UF_METHOD:
                # The budget is already blown; finish with the
                # strongest union-find baseline and charge for both
                # runs — the honest cost of a mispredicted route.
                fb_options = resolve_options(UF_METHOD, None)
                fb_result, fb_ms = self._run(job.entry, UF_METHOD,
                                             fb_options)
                self._observe_run(job.entry, UF_METHOD, fb_ms,
                                  options=fb_options)
                job.work += fb_result.trace.total_counters()
                fb_key = result_cache_key(
                    job.entry.fingerprint, UF_METHOD,
                    self.machine.name, fb_options)
                job.cache_puts.append((fb_key, fb_result, fb_ms))
                job.final_method, job.final_result = UF_METHOD, fb_result
                job.total_ms = sim_ms + fb_ms
                job.fallback = True

    # -- completion ---------------------------------------------------

    def _on_finish(self, job: _Job, now: float) -> None:
        self._running -= 1
        self._inflight.pop(job.coalesce_key, None)
        self._release_outstanding(job)
        # The result exists as of *now* on the simulated clock.
        for key, result, run_ms in job.cache_puts:
            self.cache.put(key, result)
            self._remember_run(key, run_ms)
        for index, member in enumerate(job.members):
            primary = index == 0
            # A waiter that arrived after the compute started waited
            # zero: it rode along on an already-running job.
            queue_delay = max(0.0, job.start_ms - member.arrival_ms)
            latency = now - member.arrival_ms
            request = member.request
            response = CCResponse(
                request=request, fingerprint=job.entry.fingerprint,
                method=job.final_method, result=job.final_result,
                simulated_ms=job.total_ms, cache_hit=False,
                fallback=job.fallback, budget_exceeded=job.exceeded,
                plan=member.route, coalesced=not primary,
                delta_hit=job.delta is not None,
                queue_delay_ms=queue_delay,
                arrival_ms=member.arrival_ms, start_ms=job.start_ms,
                finish_ms=now, tenant=request.tenant)
            if primary:
                self.metrics.record_request(
                    job.primary_method, latency, cache_hit=False,
                    auto_routed=member.auto_routed,
                    fallback=job.fallback,
                    fallback_method=(job.final_method if job.fallback
                                     else None),
                    delta_hit=job.delta is not None,
                    tenant=request.tenant, queue_delay_ms=queue_delay,
                    work=job.work)
            else:
                self.metrics.record_request(
                    job.primary_method, latency, cache_hit=False,
                    auto_routed=member.auto_routed, coalesced=True,
                    tenant=request.tenant, queue_delay_ms=queue_delay)
            member.responses[member.slot] = response
        self._dispatch(now)

    # -- cache-hit / rejection paths ----------------------------------

    def _replay_hit(self, member: _Member, entry: GraphEntry,
                    method: str, cache_key: tuple, cached: CCResult,
                    now: float,
                    queue_delay_ms: float | None,
                    attributed: str | None = None) -> bool:
        """Serve one request from the cache, replaying the recorded
        budget outcome of the run that produced the entry.

        Returns False in exactly one case: the recorded run blew this
        request's budget, the contract promises the union-find
        fallback, and the fallback's cached result has been evicted —
        the caller must then schedule a fallback run.
        """
        request = member.request
        final_method, final_result = method, cached
        exceeded = False
        fallback = False
        replayed = False
        run_ms = self._run_meta.get(cache_key)
        if (request.budget_ms is not None and run_ms is not None
                and run_ms > request.budget_ms):
            exceeded = True
            replayed = True
            if method != UF_METHOD:
                fb_options = resolve_options(UF_METHOD, None)
                fb_key = result_cache_key(entry.fingerprint, UF_METHOD,
                                          self.machine.name, fb_options)
                # Internal probe for the replay contract, not a client
                # lookup — stat-neutral, recency refreshed on serve.
                fb_cached = self.cache.peek(fb_key)
                if fb_cached is None:
                    return False
                self.cache.touch(fb_key)
                final_method, final_result = UF_METHOD, fb_cached
                fallback = True
        latency = 0.0 if queue_delay_ms is None else queue_delay_ms
        response = CCResponse(
            request=request, fingerprint=entry.fingerprint,
            method=final_method, result=final_result,
            simulated_ms=0.0, cache_hit=True, fallback=fallback,
            budget_exceeded=exceeded, plan=member.route,
            queue_delay_ms=latency, arrival_ms=member.arrival_ms,
            start_ms=now, finish_ms=now, tenant=request.tenant)
        self.metrics.record_request(
            attributed or method, latency, cache_hit=True,
            auto_routed=member.auto_routed, flag_replay=replayed,
            tenant=request.tenant, queue_delay_ms=queue_delay_ms)
        member.responses[member.slot] = response
        return True

    def _reject(self, member: _Member, entry: GraphEntry, method: str,
                reason: str) -> None:
        request = member.request
        member.responses[member.slot] = CCResponse(
            request=request, fingerprint=entry.fingerprint,
            method=method, result=None, simulated_ms=0.0,
            cache_hit=False, plan=member.route, status="rejected",
            reject_reason=reason, arrival_ms=member.arrival_ms,
            start_ms=member.arrival_ms, finish_ms=member.arrival_ms,
            tenant=request.tenant)
        self.metrics.record_rejection(reason, tenant=request.tenant)

    # -- internals ----------------------------------------------------

    def _plan_for(self, entry: GraphEntry) -> RoutePlan:
        """Static route once per fingerprint; probes are immutable."""
        route = self._plan_memo.get(entry.fingerprint)
        if route is None:
            route = plan(
                entry.probes, self.machine,
                single_node_edge_budget=self.single_node_edge_budget,
                resident_byte_budget=self.resident_byte_budget)
            self._plan_memo[entry.fingerprint] = route
        return route

    def _feedback(self) -> RouterFeedback | None:
        """The registry's feedback store, or None when disabled."""
        return self.registry.feedback if self.options.feedback else None

    def _route(self, entry: GraphEntry) -> RoutePlan:
        """Route one auto request: memoized static plan, re-decided
        under the current measured-cost corrections, with seeded
        epsilon-greedy exploration of near-margin decisions.

        The expensive cost-model evaluation is memoized per
        fingerprint (:meth:`_plan_for`); corrections change with every
        observation, so the cheap :func:`replan` re-decision runs per
        arrival.  With feedback disabled or empty this returns the
        memoized plan object itself.
        """
        base = self._plan_for(entry)
        route = replan(base, self._feedback(), entry.fingerprint)
        if route.method != base.method:
            self.metrics.record_route_flip()
        opts = self.options
        if (opts.explore_rate > 0.0
                and route.family in ("lp", "uf")
                and route.margin < opts.explore_margin
                and self._explore_rng.random() < opts.explore_rate):
            route = runner_up(route)
            self.metrics.record_exploration()
        return route

    def _plan_delta(self, entry: GraphEntry, method: str,
                    options: object,
                    route: RoutePlan | None) -> _DeltaPlan | None:
        """Find a delta-serving opportunity for a cache miss.

        Walks the entry's mutation lineage (at most
        ``ServiceOptions.max_delta_chain`` steps) looking for an
        ancestor with a cached result under the identical (method,
        machine, options) key.  Returns ``None`` — full compute —
        when delta serving is off, the method is not delta-eligible,
        the lineage breaks (a removal, an unregistered ancestor, the
        chain bound), a planted method's hub moved, or the touched-set
        cost estimate does not beat the predicted full run.
        """
        opts = self.options
        if not opts.delta_serving or method not in DELTA_METHODS:
            return None
        if entry.parent_fingerprint is None:
            return None
        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        cur = entry
        seed = None
        seed_entry = None
        seed_key = None
        for _ in range(opts.max_delta_chain):
            if cur.parent_fingerprint is None or cur.delta_src is None:
                return None
            try:
                parent = self.registry.get(cur.parent_fingerprint)
            except KeyError:
                return None
            srcs.append(cur.delta_src)
            dsts.append(cur.delta_dst)
            seed_key = result_cache_key(parent.fingerprint, method,
                                        self.machine.name, options)
            seed = self.cache.peek(seed_key)
            if seed is not None:
                seed_entry = parent
                break
            cur = parent
        if seed is None:
            return None
        hub = None
        if method in PLANTED_METHODS:
            # The seed's labels are planted at the seed graph's hub; a
            # fresh run on the successor would plant at its own.  Only
            # identical hubs reproduce bit-identical labels.
            hub = seed_entry.graph.max_degree_vertex()
            if not hub_stable(entry.graph, hub):
                return None
        src = srcs[0] if len(srcs) == 1 else np.concatenate(srcs[::-1])
        dst = dsts[0] if len(dsts) == 1 else np.concatenate(dsts[::-1])
        base_predicted = predict_delta_ms(entry.graph.num_vertices,
                                          int(src.size), self.machine)
        # The delta-vs-recompute gate races *corrected* predictions on
        # both sides: a delta path whose touched-set model has proven
        # optimistic here stops beating a full run it cannot beat.
        # Corrections are read under the backend-qualified key the
        # executed run will observe under.
        attributed = backend_feedback_key(
            method, getattr(options, "backend", None))
        predicted = predict_delta_ms(
            entry.graph.num_vertices, int(src.size), self.machine,
            method=attributed, feedback=self._feedback(),
            fingerprint=entry.fingerprint)
        full_ms = route.predicted_ms if route is not None \
            else predicted_method_ms(
                entry.probes, method, self.machine,
                feedback=self._feedback(), fingerprint=entry.fingerprint,
                feedback_method=attributed)
        if predicted >= full_ms:
            return None
        self.cache.touch(seed_key)
        return _DeltaPlan(seed=seed,
                          seed_fingerprint=seed_entry.fingerprint,
                          src=src, dst=dst, chain=len(srcs), hub=hub,
                          predicted_ms=predicted,
                          base_predicted_ms=base_predicted)

    def _run_delta(self, job: _Job) -> tuple[CCResult, float]:
        """Delta-update the seed's cached labels; price the touched set.

        The produced labels are bit-identical to a from-scratch run of
        ``job.method`` on ``job.entry.graph`` (the
        :mod:`repro.incremental` contract), so the result is cached
        under the same key a full run would fill.
        """
        plan_ = job.delta
        entry = job.entry
        counters = OpCounters()
        outcome = delta_update(plan_.seed.labels, plan_.src, plan_.dst,
                               method=job.method, hub=plan_.hub,
                               counters=counters)
        trace = RunTrace(algorithm=f"{job.method}+delta",
                         dataset=entry.name or entry.fingerprint,
                         setup_counters=counters)
        result = CCResult(labels=outcome.labels, trace=trace,
                          extras={"delta": outcome.delta.as_dict(),
                                  "delta_base": plan_.seed_fingerprint,
                                  "delta_chain": plan_.chain})
        validate_extras(result.extras)
        model = CostModel(self.machine, entry.graph.num_vertices)
        return result, model.iteration_ms(counters)

    def _release_outstanding(self, job: _Job) -> None:
        remaining = self._outstanding_ms.get(job.tenant, 0.0) \
            - job.predicted_ms
        if remaining <= 0.0:
            self._outstanding_ms.pop(job.tenant, None)
        else:
            self._outstanding_ms[job.tenant] = remaining

    def _remember_run(self, cache_key: tuple, run_ms: float) -> None:
        """Record a run's cost alongside its cache entry (bounded LRU)."""
        self._run_meta[cache_key] = run_ms
        self._run_meta.move_to_end(cache_key)
        while len(self._run_meta) > 4 * self.cache.capacity:
            self._run_meta.popitem(last=False)

    def _base_predicted(self, entry: GraphEntry,
                        method: str) -> float | None:
        """Static (uncorrected) prediction for a full run, or None.

        ``None`` — skip the observation — for the sharded tier (its
        fabric cost has no single-node predictor to correct) and for
        entries that were never probed: explicit-method traffic on an
        unprobed graph must not start paying BFS probe sweeps just to
        feed the posterior.
        """
        if method == DISTRIBUTED_METHOD or entry._probes is None:
            return None
        base = self._plan_for(entry)
        return (base.predicted_uf_ms if method_family(method) == "uf"
                else base.predicted_lp_ms)

    def _observe_run(self, entry: GraphEntry, method: str,
                     measured_ms: float, *,
                     options: object = None,
                     delta: _DeltaPlan | None = None) -> None:
        """Fold one executed run's measured cost into the loop.

        Feeds the registry's :class:`RouterFeedback` posterior (when
        enabled) and the misprediction metrics — both against the
        *uncorrected* static prediction, so the posterior estimates
        the static model's error rather than compounding its own
        correction, and the error histograms describe the cost model
        itself.  Delta runs observe under their own
        :func:`delta_feedback_key` posterior.  Runs on a non-default
        kernel backend observe under their
        :func:`backend_feedback_key` — the static prediction is
        backend-agnostic (counters are bit-identical across backends),
        so the per-backend posterior is exactly the learned wall-clock
        ratio of that backend on this content.
        """
        base_method = backend_feedback_key(
            method, getattr(options, "backend", None))
        if delta is not None:
            key_method = delta_feedback_key(base_method)
            predicted = delta.base_predicted_ms
        else:
            key_method = base_method
            predicted = self._base_predicted(entry, method)
        if predicted is None or predicted <= 0.0:
            return
        self.metrics.record_prediction(key_method, predicted, measured_ms)
        feedback = self._feedback()
        if feedback is not None:
            feedback.observe(entry.fingerprint, key_method, predicted,
                             measured_ms, machine=self.machine.name)

    def _resolve_entry(self, request: CCRequest) -> GraphEntry:
        if request.graph is not None:
            # Registration fingerprints the graph, which may detect an
            # in-place mutation and quarantine the old fingerprint —
            # go through `register` so the sweep runs.
            return self.register(request.graph, name=request.name)
        if request.key is not None:
            return self.registry.get(request.key)
        raise ValueError("request needs a graph or a registry key")

    def _run(self, entry: GraphEntry, method: str,
             options: object) -> tuple[CCResult, float]:
        """Actually execute one algorithm and price its trace."""
        fn = ALGORITHMS[method]
        result = fn(entry.graph, machine=self.machine,
                    dataset=entry.name or entry.fingerprint,
                    **to_call_kwargs(options))
        validate_extras(result.extras)
        if method == DISTRIBUTED_METHOD:
            # Sharded runs are priced with the alpha-beta network
            # model on top of per-node compute; one `machine` node
            # per rank.
            return result, simulate_distributed_time(
                result, entry.graph.num_vertices, node=self.machine)
        timed = simulate_run_time(result.trace, self.machine,
                                  entry.graph.num_vertices)
        total_ms = timed.total_ms
        io = result.extras.get("io")
        if io is not None:
            # Streamed runs pay for their block fetches: the disk's
            # alpha-beta time joins the compute time, same as the
            # distributed tier's fabric charge.
            total_ms += io["modeled_ms"]
        return result, total_ms
