"""Out-of-core tier: streamed Thrifty runs, planner fit, service wiring."""

import numpy as np
import pytest

from repro.core import thrifty_cc, validate_extras
from repro.graph import load, rmat_graph
from repro.options import ThriftyOptions
from repro.parallel.machine import MACHINES
from repro.service import (
    CCRequest,
    CCService,
    LP_METHOD,
    RouterFeedback,
    edge_array_bytes,
    plan,
    replan,
    runner_up,
)
from repro.service.registry import probe_graph
from repro.storage import BlockedGraph, write_blocked
from tests.pull_oracle import per_block_pulls

SPEC = MACHINES["SkylakeX"]


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(10, 8, seed=11)


@pytest.fixture(scope="module")
def resident_result(graph):
    return thrifty_cc(graph)


def tight_budget(graph):
    """Under a quarter of the edge-array bytes — forces real eviction."""
    return max(4096, graph.indices.nbytes // 5)


class TestStreamedEngine:
    def test_blocked_graph_bit_identical(self, graph, resident_result,
                                         tmp_path):
        path = tmp_path / "g.rbcsr"
        write_blocked(graph, path, edges_per_block=512)
        bg = BlockedGraph.open(path, resident_bytes=tight_budget(graph))
        try:
            streamed = thrifty_cc(bg)
        finally:
            bg.close()
        assert np.array_equal(streamed.labels, resident_result.labels)
        assert streamed.num_iterations == resident_result.num_iterations
        assert streamed.counters() == resident_result.counters()

    def test_io_extras_schema(self, graph, tmp_path):
        path = tmp_path / "g.rbcsr"
        write_blocked(graph, path, edges_per_block=512)
        bg = BlockedGraph.open(path, resident_bytes=tight_budget(graph))
        try:
            result = thrifty_cc(bg)
        finally:
            bg.close()
        io = validate_extras(result.extras)["io"]
        assert io["blocks_read"] > 0
        assert io["bytes_read"] > 0
        assert io["modeled_ms"] > 0.0
        assert io["disk"] == "nvme-ssd"

    def test_peak_resident_within_budget(self, graph, tmp_path):
        budget = tight_budget(graph)
        path = tmp_path / "g.rbcsr"
        write_blocked(graph, path, edges_per_block=256)
        bg = BlockedGraph.open(path, resident_bytes=budget)
        try:
            result = thrifty_cc(bg)
        finally:
            bg.close()
        io = result.extras["io"]
        assert io["peak_resident_bytes"] <= budget
        assert io["blocks_reread"] > 0     # the budget actually bit

    def test_spool_path(self, graph, resident_result):
        budget = tight_budget(graph)
        result = thrifty_cc(graph, storage="out_of_core",
                            resident_bytes=budget)
        assert np.array_equal(result.labels, resident_result.labels)
        io = result.extras["io"]
        assert io["peak_resident_bytes"] <= budget
        assert io["budget_bytes"] == budget

    def test_resident_run_has_no_io_extras(self, resident_result):
        assert "io" not in resident_result.extras

    def test_converged_block_skipping(self, graph, tmp_path):
        """Fused pulls skip converged blocks: >=2x fewer fetches than
        the reference strategy that gathers every block every pull."""
        budget = tight_budget(graph)
        fetches = {}
        for fused in (True, False):
            path = tmp_path / f"g{fused}.rbcsr"
            write_blocked(graph, path, edges_per_block=256)
            bg = BlockedGraph.open(path, resident_bytes=budget)
            try:
                if fused:
                    result = thrifty_cc(bg)
                else:
                    with per_block_pulls():
                        result = thrifty_cc(bg)
            finally:
                bg.close()
            fetches[fused] = (result.extras["io"]["blocks_read"]
                              + result.extras["io"]["blocks_reread"])
        assert fetches[False] >= 2 * fetches[True]

    def test_fetch_accounting_pinned(self, graph, tmp_path):
        """Regression pin for one streamed Thrifty run: each pull
        window gathers its edges once, and the fetches, rereads, bytes
        and modeled disk time are those of the earlier two-gather
        window (whose second gather only ever hit the cache)."""
        path = tmp_path / "g.rbcsr"
        write_blocked(graph, path, edges_per_block=512)
        bg = BlockedGraph.open(path, resident_bytes=tight_budget(graph))
        try:
            io = thrifty_cc(bg).extras["io"]
        finally:
            bg.close()
        assert io["blocks_read"] == 188
        assert io["blocks_reread"] == 166
        assert io["bytes_read"] == 372264
        assert io["modeled_ms"] == 49.400073142857146
        assert io["block_hits"] < 331     # the two-gather window's hits


class TestPlannerFit:
    def test_edge_array_bytes(self, graph):
        probes = probe_graph(graph)
        assert edge_array_bytes(probes) == graph.num_edges * 4

    def test_over_budget_routes_out_of_core(self, graph):
        probes = probe_graph(graph)
        route = plan(probes, SPEC,
                     resident_byte_budget=edge_array_bytes(probes) // 4)
        assert route.storage == "out_of_core"
        assert route.method == LP_METHOD
        assert route.family == "lp"

    def test_under_budget_stays_resident(self, graph):
        probes = probe_graph(graph)
        route = plan(probes, SPEC,
                     resident_byte_budget=edge_array_bytes(probes) * 10)
        assert route.storage == "resident"

    def test_no_budget_stays_resident(self, graph):
        probes = probe_graph(graph)
        assert plan(probes, SPEC).storage == "resident"

    def test_distributed_cliff_wins_over_fit(self, graph):
        probes = probe_graph(graph)
        route = plan(probes, SPEC, single_node_edge_budget=1,
                     resident_byte_budget=1)
        assert route.family == "distributed"
        assert route.storage == "resident"

    def test_replan_preserves_out_of_core(self, graph):
        probes = probe_graph(graph)
        base = plan(probes, SPEC, resident_byte_budget=1)
        feedback = RouterFeedback()
        # Teach the posterior that UF is much faster -- a fit decision
        # must not flip anyway (UF would thrash the block cache).
        for _ in range(8):
            feedback.observe("g", "afforest", 100.0, 1.0,
                             machine=SPEC.name)
            feedback.observe("g", base.method, 100.0, 10_000.0,
                             machine=SPEC.name)
        route = replan(base, feedback, "g")
        assert route.storage == "out_of_core"
        assert route.family == "lp"

    def test_runner_up_keeps_out_of_core_route(self, graph):
        probes = probe_graph(graph)
        base = plan(probes, SPEC, resident_byte_budget=1)
        assert runner_up(base) is base


class TestServicePath:
    def test_auto_routes_streamed_run(self, graph):
        svc = CCService(resident_byte_budget=tight_budget(graph))
        resp = svc.submit(CCRequest(graph=graph, method="auto"))
        assert resp.plan is not None
        assert resp.plan.storage == "out_of_core"
        io = resp.result.extras["io"]
        assert io["peak_resident_bytes"] <= tight_budget(graph)
        # The disk charge joins the simulated time like the fabric
        # charge does on the distributed tier.
        assert resp.simulated_ms >= io["modeled_ms"]

    def test_streamed_result_matches_resident_service(self, graph):
        budget = tight_budget(graph)
        streamed = CCService(resident_byte_budget=budget).submit(
            CCRequest(graph=graph, method="auto"))
        resident = CCService().submit(
            CCRequest(graph=graph, method="thrifty",
                      options=ThriftyOptions()))
        assert np.array_equal(streamed.result.labels,
                              resident.result.labels)

    def test_large_budget_stays_resident(self, graph):
        svc = CCService(resident_byte_budget=graph.indices.nbytes * 100)
        resp = svc.submit(CCRequest(graph=graph, method="auto"))
        assert resp.plan.storage == "resident"
        assert "io" not in resp.result.extras

    def test_explicit_storage_option(self, graph):
        svc = CCService()
        resp = svc.submit(CCRequest(
            graph=graph, method="thrifty",
            options=ThriftyOptions(storage="out_of_core",
                                   resident_bytes=tight_budget(graph))))
        assert "io" in resp.result.extras

    def test_register_path_and_run(self, graph, tmp_path):
        budget = tight_budget(graph)
        path = tmp_path / "g.rbcsr"
        write_blocked(graph, path, edges_per_block=512)
        svc = CCService(resident_byte_budget=budget)
        entry = svc.register_path(path, name="disk-graph")
        resp = svc.submit(CCRequest(key="disk-graph", method="auto"))
        assert resp.fingerprint == entry.fingerprint
        assert "io" in resp.result.extras
        assert np.array_equal(resp.result.labels,
                              thrifty_cc(graph).labels)

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError):
            CCService(resident_byte_budget=0)

    def test_load_auto_table_storage_column(self, graph):
        from repro.experiments.routing import auto_routing_table
        rows = auto_routing_table(scale=0.2, datasets=("Pkc",),
                                  resident_byte_budget=1)
        assert rows[0]["storage"] == "out_of_core"
        rows = auto_routing_table(scale=0.2, datasets=("Pkc",))
        assert rows[0]["storage"] == "resident"
