"""Async serving executor: coalescing, admission control, lanes,
tenant fairness, and the simulated-clock scheduling invariants."""

import numpy as np
import pytest

from repro.graph import rmat_graph
from repro.service import (
    REJECT_QUEUE_DEPTH,
    REJECT_QUEUE_FULL,
    REJECT_TENANT_QUOTA,
    CCRequest,
    CCService,
    ServiceOptions,
    plan_for_graph,
)

#: Small distinct graphs so every job is a fresh compute.
G = {name: rmat_graph(8, 8, seed=seed)
     for name, seed in (("a", 1), ("b", 2), ("c", 3), ("d", 4))}


def _service(**kwargs):
    svc = CCService(service_options=ServiceOptions(**kwargs))
    for name, graph in G.items():
        svc.register(graph, name=name)
    return svc


class TestServiceOptions:
    @pytest.mark.parametrize("bad", [
        {"concurrency": 0}, {"num_lanes": 0}, {"max_queue_ms": -1.0},
        {"max_queue_depth": -1}, {"tenant_quota_ms": 0.0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ServiceOptions(**bad)

    def test_defaults_are_unbounded(self):
        opts = ServiceOptions()
        assert opts.concurrency == 1
        assert opts.max_queue_ms is None
        assert opts.max_queue_depth is None
        assert opts.tenant_quota_ms is None


class TestCoalescing:
    def test_identical_inflight_requests_share_one_compute(self):
        svc = _service(concurrency=1)
        reqs = [CCRequest(key="a", method="thrifty", arrival_ms=0.0)
                for _ in range(3)]
        r0, r1, r2 = svc.run_trace(reqs)
        assert not r0.coalesced
        assert r1.coalesced and r2.coalesced
        # one compute: the waiters observe the SAME result object
        assert r1.result is r0.result and r2.result is r0.result
        # and are charged the same simulated compute verbatim
        assert r1.simulated_ms == r0.simulated_ms == r2.simulated_ms
        assert svc.metrics.cache_misses == 1
        assert svc.metrics.coalesced == 2
        assert svc.metrics.cache_hits == 0
        assert svc.metrics.effective_hit_rate == pytest.approx(2 / 3)

    def test_waiters_do_no_algorithm_work(self):
        svc = _service(concurrency=1)
        svc.run_trace([CCRequest(key="a", arrival_ms=0.0)
                       for _ in range(4)])
        solo = _service()
        solo.submit(CCRequest(key="a"))
        assert svc.metrics.algorithm_work.as_dict() == \
            solo.metrics.algorithm_work.as_dict()

    def test_different_budgets_do_not_coalesce(self):
        # Mismatched budgets must not share a blown/clean outcome;
        # the duplicate is instead served by the dequeue-time cache
        # re-check once the first compute lands.
        svc = _service(concurrency=1)
        r1, r2 = svc.run_trace([
            CCRequest(key="a", method="thrifty", arrival_ms=0.0),
            CCRequest(key="a", method="thrifty", arrival_ms=0.0,
                      budget_ms=1e9),
        ])
        assert not r1.coalesced and not r2.coalesced
        assert r2.cache_hit
        assert r2.queue_delay_ms > 0.0
        assert r2.result is r1.result
        assert svc.metrics.cache_misses == 1 and svc.metrics.cache_hits == 1


    def test_dequeued_budget_job_shares_one_fallback_run(self,
                                                         monkeypatch):
        # The budgeted pair coalesces into one job that dequeues after
        # the unbudgeted run is cached; the replay finds no Afforest
        # result, so the whole job becomes one fallback run.
        from repro.api import ALGORITHMS
        from repro.graph import load
        runs = []
        afforest = ALGORITHMS["afforest"]

        def counting(*args, **kwargs):
            runs.append(1)
            return afforest(*args, **kwargs)

        monkeypatch.setitem(ALGORITHMS, "afforest", counting)
        svc = CCService()
        svc.register(load("Pkc", 0.05), name="pkc")
        _, r1, r2 = svc.run_trace([
            CCRequest(key="pkc", method="thrifty", arrival_ms=0.0),
            CCRequest(key="pkc", method="thrifty", arrival_ms=0.0,
                      budget_ms=1e-6),
            CCRequest(key="pkc", method="thrifty", arrival_ms=0.0,
                      budget_ms=1e-6),
        ])
        assert len(runs) == 1
        assert svc.metrics.fallbacks == 1
        assert svc.metrics.coalesced == 1
        assert r1.result is r2.result
        for r in (r1, r2):
            assert r.fallback and r.budget_exceeded
            assert r.method == "afforest"
        assert svc._outstanding_ms == {}
        assert svc._running == 0


class TestScheduling:
    def test_concurrency_overlaps_independent_jobs(self):
        seq = _service(concurrency=1)
        par = _service(concurrency=2)
        reqs = lambda: [CCRequest(key="a", arrival_ms=0.0),  # noqa: E731
                        CCRequest(key="b", arrival_ms=0.0)]
        s1, s2 = seq.run_trace(reqs())
        p1, p2 = par.run_trace(reqs())
        # serial: the second job waits for the first worker
        assert s2.queue_delay_ms == pytest.approx(s1.simulated_ms)
        assert seq.clock_ms == pytest.approx(
            s1.simulated_ms + s2.simulated_ms)
        # parallel: both start at t=0, makespan is the max
        assert p1.queue_delay_ms == 0.0 and p2.queue_delay_ms == 0.0
        assert par.clock_ms == pytest.approx(
            max(p1.simulated_ms, p2.simulated_ms))
        assert seq.metrics.queue_delay.summary()["count"] == 2

    def test_latency_is_queue_delay_plus_compute(self):
        svc = _service(concurrency=1)
        resp = svc.run_trace([CCRequest(key="a", arrival_ms=0.0),
                              CCRequest(key="b", arrival_ms=0.0)])[1]
        assert resp.finish_ms - resp.arrival_ms == pytest.approx(
            resp.queue_delay_ms + resp.simulated_ms)
        assert resp.start_ms == pytest.approx(
            resp.arrival_ms + resp.queue_delay_ms)

    def test_responses_in_input_order(self):
        svc = _service(concurrency=1)
        out = svc.run_trace([CCRequest(key="b", arrival_ms=5.0),
                             CCRequest(key="a", arrival_ms=0.0)])
        assert out[0].fingerprint == svc.registry.get("b").fingerprint
        assert out[1].fingerprint == svc.registry.get("a").fingerprint
        assert out[1].start_ms <= out[0].start_ms

    def test_priority_lane_drains_first(self):
        svc = _service(concurrency=1, num_lanes=2)
        blocker = CCRequest(key="a", arrival_ms=0.0)
        low = CCRequest(key="b", arrival_ms=1e-6, priority=1)
        high = CCRequest(key="c", arrival_ms=2e-6, priority=0)
        _, r_low, r_high = svc.run_trace([blocker, low, high])
        # lane 0 drains before lane 1 despite arriving later
        assert r_high.start_ms < r_low.start_ms

    def test_priority_clamped_to_lanes(self):
        svc = _service(concurrency=1, num_lanes=2)
        out = svc.run_trace([CCRequest(key="a", priority=99),
                             CCRequest(key="b", priority=-5)])
        assert all(r.status == "ok" for r in out)

    def test_tenant_fairness_interleaves(self):
        # heavy queues three jobs; light's single job is served ahead
        # of heavy's backlog (least-served-tenant pick within a lane)
        svc = _service(concurrency=1)
        heavy = [CCRequest(key=k, tenant="heavy", arrival_ms=0.0)
                 for k in ("a", "b", "c")]
        light = [CCRequest(key="d", tenant="light", arrival_ms=1e-6)]
        ra, rb, _, rd = svc.run_trace(heavy + light)
        assert rd.start_ms < rb.start_ms
        assert svc.metrics.per_tenant == {"heavy": 3, "light": 1}

    def test_sync_submit_has_no_queue_delay(self):
        svc = _service()
        resp = svc.submit(CCRequest(key="a"))
        assert resp.status == "ok"
        assert resp.queue_delay_ms == 0.0
        assert resp.start_ms == resp.arrival_ms
        assert resp.finish_ms == pytest.approx(
            resp.arrival_ms + resp.simulated_ms)


class TestAdmissionControl:
    def test_queue_depth_rejects_beyond_cap(self):
        svc = _service(concurrency=1, max_queue_depth=0)
        r1, r2, r3 = svc.run_trace([
            CCRequest(key="a", arrival_ms=0.0),
            CCRequest(key="b", arrival_ms=0.0),
            CCRequest(key="c", arrival_ms=0.0)])
        assert r1.status == "ok"
        assert r2.status == r3.status == "rejected"
        assert r2.reject_reason == REJECT_QUEUE_DEPTH
        assert r2.result is None
        assert svc.metrics.rejected == 2
        assert svc.metrics.rejected_by_reason == {REJECT_QUEUE_DEPTH: 2}

    def test_queue_ms_rejects_predicted_backlog(self):
        svc = _service(concurrency=1, max_queue_ms=1e-12)
        r1, r2 = svc.run_trace([CCRequest(key="a", arrival_ms=0.0),
                                CCRequest(key="b", arrival_ms=0.0)])
        assert r1.status == "ok"
        assert r2.status == "rejected"
        assert r2.reject_reason == REJECT_QUEUE_FULL

    def test_queue_frees_as_jobs_finish(self):
        svc = _service(concurrency=1, max_queue_depth=1)
        # b queues; c arrives after a finished, so the queue has room
        r1, r2, r3 = svc.run_trace([
            CCRequest(key="a", arrival_ms=0.0),
            CCRequest(key="b", arrival_ms=0.0),
            CCRequest(key="c", arrival_ms=1e6)])
        assert [r.status for r in (r1, r2, r3)] == ["ok"] * 3

    def test_tenant_quota_caps_outstanding_work(self):
        pred = {k: plan_for_graph(G[k]).predicted_ms for k in G}
        quota = pred["a"] + 0.5 * pred["b"]
        svc = _service(concurrency=1, tenant_quota_ms=quota)
        r1, r2, r3 = svc.run_trace([
            CCRequest(key="a", tenant="t0", arrival_ms=0.0),
            CCRequest(key="b", tenant="t0", arrival_ms=0.0),
            CCRequest(key="b", tenant="t1", arrival_ms=0.0)])
        assert r1.status == "ok"
        assert r2.status == "rejected"
        assert r2.reject_reason == REJECT_TENANT_QUOTA
        # another tenant is unaffected by t0's quota
        assert r3.status == "ok"
        # quota releases with the job: a resubmit is admitted
        assert svc.submit(CCRequest(key="c", tenant="t0")).status == "ok"

    def test_rejected_response_raises_on_num_components(self):
        svc = _service(concurrency=1, max_queue_depth=0)
        rej = svc.run_trace([CCRequest(key="a", arrival_ms=0.0),
                             CCRequest(key="b", arrival_ms=0.0)])[1]
        with pytest.raises(ValueError, match="rejected"):
            rej.num_components

    def test_coalesced_waiters_bypass_admission(self):
        # duplicates of an in-flight job add no work, so they attach
        # even when the queue is formally full
        svc = _service(concurrency=1, max_queue_depth=0)
        out = svc.run_trace([CCRequest(key="a", arrival_ms=0.0)
                             for _ in range(5)])
        assert all(r.status == "ok" for r in out)
        assert sum(r.coalesced for r in out) == 4


class TestTraceEquivalence:
    def test_trace_matches_sync_results(self):
        svc = _service(concurrency=4)
        trace = [CCRequest(key=k, arrival_ms=i * 1e-3)
                 for i, k in enumerate(("a", "b", "c", "a", "b", "d"))]
        out = svc.run_trace(trace)
        ref = _service()
        for resp in out:
            name = next(k for k in G
                        if svc.registry.get(k).fingerprint
                        == resp.fingerprint)
            direct = ref.submit(CCRequest(key=name))
            assert np.array_equal(
                np.unique(direct.result.labels, return_inverse=True)[1],
                np.unique(resp.result.labels, return_inverse=True)[1])

    def test_trace_error_resets_scheduler(self):
        svc = _service(concurrency=2)
        with pytest.raises(ValueError, match="unknown method"):
            svc.run_trace([CCRequest(key="a", arrival_ms=0.0),
                           CCRequest(key="b", method="magic",
                                     arrival_ms=0.0)])
        # the service stays usable after the aborted trace
        out = svc.run_trace([CCRequest(key="c"), CCRequest(key="d")])
        assert all(r.status == "ok" for r in out)
