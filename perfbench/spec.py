"""What the benchmark measures: workloads, metrics, clocks and seeds.

``BENCHMARK.json`` at the repository root holds only the keys the
benchmark harness reads (names, units, bounds).  This module carries
the rest of the record for each workload and metric: why the workload
exists, its loop type, graphs, scales and how the seed shapes its
inputs, and for every metric its clock and whether higher or lower is
better.  ``test_perfbench.py`` checks that the two agree.

Clocks: ``wall`` is the Python process's ``perf_counter``;
``wall/calibrated`` is wall time divided by the pass's median time of
the reference loop in ``calibrate.py`` (unit ``cal``), which cancels
the host's speed drift; ``simulated`` is the repository's cost model
(operation counters x ``MachineSpec``), a deterministic function of
the work done; ``none`` marks counts, ratios and memory.
"""

from __future__ import annotations

#: A seed no change tunes against: a gain claimed on the tuning seeds
#: must also hold here.
HELD_OUT_SEED = 7919

#: Every end-to-end number is reported on every workload.
END_TO_END = {
    "setup_s": ("wall", "s", "lower",
                "graph generation plus registration, median of the "
                "run's cold set-ups"),
    "sim_ms": ("simulated", "ms", "lower",
               "simulated ms of one pass (cost model + modeled I/O for "
               "solves; sum of CCResponse.simulated_ms when serving)"),
    "peak_rss_mb": ("none", "MB", "lower",
                    "peak resident memory of the benchmark process after "
                    "set-up and the first pass"),
    "pass_cal": ("wall/calibrated", "cal", "lower",
                 "wall time of one pass over the workload's operations in "
                 "calibrator units, median over the run's passes"),
    "op_cal.gmean": ("wall/calibrated", "cal", "lower",
                     "geometric mean wall latency of one operation (solve, "
                     "request or write) in calibrator units"),
}

#: Workload-specific end-to-end numbers, printed in the report line of
#: the workloads they apply to.  They are not in BENCHMARK.json because
#: the harness requires every listed metric on every workload.
_ALL = ("lp-skewed", "road-stream", "serve-mutating")
REPORTED = {
    "fail_frac": ("none", "ratio", "lower", _ALL),
    # The uncalibrated figures behind pass_cal and op_cal.gmean, and
    # the length of one calibrator unit.
    "wall_s": ("wall", "s", "lower", _ALL),
    "op_ms.gmean": ("wall", "ms", "lower", _ALL),
    "calibrator_ms": ("wall", "ms", "lower", _ALL),
    "thrifty_s": ("wall", "s", "lower", ("lp-skewed", "road-stream")),
    "dolp_s": ("wall", "s", "lower", ("lp-skewed",)),
    "afforest_s": ("wall", "s", "lower", ("lp-skewed", "road-stream")),
    "thrifty_ooc_s": ("wall", "s", "lower", ("road-stream",)),
    "req_per_s": ("wall", "1/s", "higher", ("serve-mutating",)),
    "hit_us.p50": ("wall", "us", "lower", ("serve-mutating",)),
    "hit_us.p99": ("wall", "us", "lower", ("serve-mutating",)),
    "miss_ms.p50": ("wall", "ms", "lower", ("serve-mutating",)),
    "miss_ms.p90": ("wall", "ms", "lower", ("serve-mutating",)),
    "write_ms.p50": ("wall", "ms", "lower", ("serve-mutating",)),
    "write_ms.p90": ("wall", "ms", "lower", ("serve-mutating",)),
}

#: Per-layer numbers from the traced run, keyed by name: (clock, unit,
#: better, the end-to-end metric it should move).  Reported on every
#: workload; a layer the workload does not exercise reads 0.
PER_LAYER = {
    "graph.build_s": ("wall", "s", "lower", "setup_s"),
    "graph.mutate.insert_ms": ("wall", "ms", "lower", "write_ms.*"),
    "graph.mutate.write_share": ("wall", "ratio", "lower", "write_ms.*"),
    "service.fingerprint.calls": ("none", "count", "lower", "write_ms.*"),
    "service.fingerprint.ms": ("wall", "ms", "lower", "write_ms.*"),
    "service.registry.probe.calls": ("none", "count", "lower",
                                     "miss_ms.*"),
    "service.registry.probe.ms": ("wall", "ms", "lower", "miss_ms.*"),
    "service.planner.calls": ("none", "count", "lower", "hit_us.*"),
    "service.planner.us": ("wall", "us", "lower", "hit_us.*"),
    "service.cache.hit_ratio": ("none", "ratio", "higher", "hit_us.*"),
    "service.cache.lookup_us": ("wall", "us", "lower", "hit_us.*"),
    "service.executor.self_us": ("wall", "us", "lower", "hit_us.p50"),
    "incremental.delta.calls": ("none", "count", "lower", "miss_ms.*"),
    "incremental.delta.ms": ("wall", "ms", "lower", "miss_ms.*"),
    "incremental.delta.useful_ratio": ("none", "ratio", "higher",
                                       "miss_ms.*"),
    "core.engine.iterations": ("none", "count", "lower", "thrifty_s"),
    "core.engine.edges_processed": ("none", "count", "lower", "thrifty_s"),
    "core.engine.useful_ratio": ("none", "ratio", "higher", "thrifty_s"),
    "core.engine.self_ms": ("wall", "ms", "lower", "thrifty_s"),
    "core.backends.calls": ("none", "count", "lower", "thrifty_s"),
    "core.backends.ms": ("wall", "ms", "lower", "thrifty_s"),
    "parallel.scheduler.calls": ("none", "count", "lower", "thrifty_s"),
    "parallel.scheduler.ms": ("wall", "ms", "lower", "thrifty_s"),
    "parallel.scheduler.thrifty_share": ("wall", "ratio", "lower",
                                         "thrifty_s"),
    "instrument.costmodel.ms": ("wall", "ms", "lower", "thrifty_s"),
    "storage.spool_ms": ("wall", "ms", "lower", "thrifty_ooc_s"),
    "storage.fetch_ms": ("wall", "ms", "lower", "thrifty_ooc_s"),
    "storage.cache.hit_ratio": ("none", "ratio", "higher", "thrifty_ooc_s"),
    "storage.io.blocks_read": ("none", "count", "lower", "thrifty_ooc_s"),
    "storage.io.blocks_reread": ("none", "count", "lower",
                                 "thrifty_ooc_s"),
    "storage.io.peak_resident_bytes": ("none", "bytes", "lower",
                                       "thrifty_ooc_s"),
    "storage.io.modeled_ms": ("simulated", "ms", "lower", "thrifty_ooc_s"),
    "baselines.afforest.dependent_accesses": ("none", "count", "lower",
                                              "afforest_s"),
    "trace.overhead_frac": ("wall/calibrated", "ratio", "lower",
                            "pass_cal"),
}

#: Counts that must repeat exactly: across runs with one seed, and
#: between the traced and the untraced run.
EXACT_COUNTS = (
    "sim_ms",
    "core.engine.iterations",
    "core.engine.edges_processed",
    "storage.io.blocks_read",
    "storage.io.blocks_reread",
    "storage.io.peak_resident_bytes",
    "storage.io.modeled_ms",
)

#: Share of vertex ids the lp workloads permute per seed.  Small enough
#: that iteration counts hold, large enough that simulated time moves.
RELABEL_FRACTION = 0.001

WORKLOADS = {
    "lp-skewed": {
        "why": "Table IV race on power-law graphs: engine, scheduler and "
               "kernels do the work; serving and storage stay idle.",
        "loop": "closed, one caller, solves back to back",
        "graphs": {"Twtr": 1.0, "Wbbs": 1.0, "Frndstr": 1.0},
        "methods": ("thrifty", "dolp", "afforest"),
        "calibrator": "blocks",
        "seed": "permutes a random 0.1% of vertex ids above the hub",
    },
    "road-stream": {
        "why": "High-diameter roads: hundreds of tiny-frontier "
               "iterations, resident and streamed out of core at a 20% "
               "budget, plus afforest.",
        "loop": "closed, one caller, solves back to back",
        "graphs": {"GBRd": 1.0, "USRd": 0.25},
        "methods": ("thrifty", "thrifty_ooc", "afforest"),
        "resident_fraction": 0.2,
        "calibrator": "blocks",
        "seed": "permutes a random 0.1% of vertex ids above the hub",
    },
    "serve-mutating": {
        "why": "One client on a fresh CCService: Zipf reads over six "
               "graphs with a 64-edge insert before every 10th request.",
        "loop": "closed, one client, submit or mutate back to back",
        "graphs": {"Pkc": 1.0, "WWiki": 1.0, "LJLnks": 1.0, "LJGrp": 1.0,
                   "Twtr10": 1.0, "GBRd": 1.0},
        "requests": 4000,
        "zipf_s": 1.1,
        "write_every": 10,
        "write_edges": 64,
        # Most of a pass is CSR rebuilds inside writes.
        "calibrator": "sort",
        "seed": "orders the exact Zipf shares of request and write "
                "targets, and draws the inserted edges",
    },
}
