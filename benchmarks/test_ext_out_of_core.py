"""Extension experiment E9 — out-of-core blocked-graph tier.

The claim (ISSUE 10): Thrifty runs over an on-disk blocked-CSR file
through a block cache a quarter the size of the edge array and still
produces the bit-identical result, with converged-block skipping
cutting block fetches by at least 2x over the reference streaming
strategy that gathers every block every pull.  The planner treats the
same budget as a fit cliff: above it, ``auto`` routes to the streamed
LP path.

Shape asserted: bit-identical labels vs the resident run, peak
resident block bytes within the budget (from the cache's own
accounting), fetch ratio >= 2, and the planner storage flip at the
budget boundary.
"""

import numpy as np
from conftest import SCALE, run_once, write_baseline

from repro.core import thrifty_cc
from repro.experiments import format_table
from repro.graph.generators import rmat_graph
from repro.parallel.machine import MACHINES
from repro.service import edge_array_bytes, plan
from repro.service.registry import probe_graph
from repro.storage import BlockedGraph, write_blocked
from tests.pull_oracle import per_block_pulls

RMAT_SCALE = 13 if SCALE >= 0.75 else 11
EDGES_PER_BLOCK = 1024
BUDGET_FRACTION = 0.2


def _streamed(graph, path, budget):
    bg = BlockedGraph.open(path, resident_bytes=budget)
    try:
        result = thrifty_cc(bg)
    finally:
        bg.close()
    return result


def _generate(tmpdir):
    graph = rmat_graph(RMAT_SCALE, 16, seed=42)
    budget = int(BUDGET_FRACTION * graph.indices.nbytes)
    path = tmpdir / "rmat.rbcsr"
    write_blocked(graph, path, edges_per_block=EDGES_PER_BLOCK)

    resident = thrifty_cc(graph)
    fused = _streamed(graph, path, budget)
    with per_block_pulls():
        unfused = _streamed(graph, path, budget)

    assert np.array_equal(fused.labels, resident.labels), \
        "streamed run must be bit-identical to the resident run"
    assert np.array_equal(unfused.labels, resident.labels)

    def fetches(r):
        return (r.extras["io"]["blocks_read"]
                + r.extras["io"]["blocks_reread"])

    probes = probe_graph(graph)
    spec = MACHINES["SkylakeX"]
    above = plan(probes, spec, resident_byte_budget=budget)
    below = plan(probes, spec,
                 resident_byte_budget=2 * edge_array_bytes(probes))

    return {
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
        "edge_array_bytes": graph.indices.nbytes,
        "budget_bytes": budget,
        "fused_fetches": fetches(fused),
        "unfused_fetches": fetches(unfused),
        "fetch_ratio": fetches(unfused) / fetches(fused),
        "peak_resident_bytes": fused.extras["io"]["peak_resident_bytes"],
        "modeled_io_ms": fused.extras["io"]["modeled_ms"],
        "route_above_budget": f"{above.method}/{above.storage}",
        "route_below_budget": f"{below.method}/{below.storage}",
        "above_storage": above.storage,
        "below_storage": below.storage,
    }


def test_ext_out_of_core(benchmark, tmp_path):
    report = run_once(benchmark, lambda: _generate(tmp_path))
    print()
    print(format_table(
        ["metric", "value"],
        [[k, v] for k, v in report.items()],
        title=f"Extension E9: out-of-core tier (RMAT-{RMAT_SCALE}, "
              f"budget {int(100 * BUDGET_FRACTION)}% of edges)"))
    write_baseline("out_of_core", report)

    assert report["budget_bytes"] < 0.25 * report["edge_array_bytes"]
    assert report["peak_resident_bytes"] <= report["budget_bytes"]
    assert report["fetch_ratio"] >= 2.0, \
        "converged-block skipping must cut fetches at least 2x"
    assert report["above_storage"] == "out_of_core"
    assert report["below_storage"] == "resident"
