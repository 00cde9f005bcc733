"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``run``       run one algorithm on a dataset surrogate or edge-list file
``datasets``  list the Table II surrogate registry
``generate``  write a synthetic graph to an edge-list / npz file
``pack``      write a blocked on-disk CSR (.rbcsr) for out-of-core runs
``experiment``
              regenerate a paper table/figure by experiment id
``serve``     replay a request workload through the CC service

``run`` and ``trials`` accept ``--method auto`` (the structure-aware
planner picks the algorithm) and repeatable ``--opt KEY=VALUE`` flags
that populate the method's typed options dataclass.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import experiments
from .api import ALGORITHMS, AUTO_METHOD, connected_components
from .experiments.tables import format_table
from .graph import load
from .graph.datasets import ALL_DATASET_NAMES, DATASETS
from .graph.io import save_csr_npz, save_edge_list_text
from .instrument.costmodel import simulate_run_time
from .options import options_for
from .parallel.machine import MACHINES

_METHOD_CHOICES = sorted([*ALGORITHMS, AUTO_METHOD])

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "fig1": lambda a: _print_fig1(a),
    "table1": lambda a: _print_rows(experiments.table1_giant_component()),
    "table4": lambda a: _print_rows(
        experiments.table4_execution_times(datasets=a.datasets
                                           or ALL_DATASET_NAMES)),
    "table5": lambda a: _print_rows(experiments.table5_iterations()),
    "fig3": lambda a: _print_rows(
        experiments.fig3_dolp_convergence(a.datasets[0]
                                          if a.datasets else "Twtr")),
    "fig5": lambda a: _print_rows(experiments.fig5_work_reduction()),
    "fig6": lambda a: _print_rows(experiments.fig6_hw_counters()),
    "fig7": lambda a: _print_curves(
        experiments.fig7_8_convergence_comparison(
            a.datasets[0] if a.datasets else "Twtr")),
    "table6": lambda a: _print_rows(experiments.table6_initial_push()),
    "table7": lambda a: _print_table7(),
    "fig9": lambda a: _print_rows(experiments.fig9_10_ablation()),
    "routing": lambda a: _print_rows(
        experiments.auto_routing_table(
            datasets=a.datasets or ALL_DATASET_NAMES)),
    "regret": lambda a: _print_rows(
        experiments.routing_regret_table(
            datasets=a.datasets or None)),
}


def _parse_opt_value(text: str):
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _options_from_args(args):
    """Build a typed options dataclass from ``--opt KEY=VALUE`` flags."""
    pairs = args.opt or []
    fields_ = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SystemExit(f"--opt expects KEY=VALUE, got {item!r}")
        fields_[key] = _parse_opt_value(value)
    if not fields_:
        return None
    if args.method == AUTO_METHOD:
        raise SystemExit("--method auto picks the algorithm itself and "
                         "takes no --opt flags")
    try:
        return options_for(args.method, **fields_)
    except (ValueError, TypeError) as exc:
        raise SystemExit(str(exc)) from None


def _print_rows(rows: list[dict]) -> None:
    if not rows:
        print("(no rows)")
        return
    headers = list(rows[0].keys())
    print(format_table(headers, [[r[h] for h in headers] for r in rows]))


def _print_fig1(args) -> None:
    for machine in ("SkylakeX", "Epyc"):
        out = experiments.fig1_speedup_summary(machine)
        print(format_table(
            ["machine", *out.keys()],
            [[machine, *(f"{v:.1f}x" for v in out.values())]],
            title=f"Thrifty geo-mean speedup ({machine})"))


def _print_curves(curves: dict[str, list[float]]) -> None:
    for name, series in curves.items():
        pts = " ".join(f"{x:.1f}" for x in series)
        print(f"{name:>8}: {pts}")


def _print_table7() -> None:
    out = experiments.table7_threshold()
    for threshold, rows in out.items():
        print(f"--- threshold = {100 * threshold:g}% ---")
        _print_rows(rows)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Thrifty Label Propagation reproduction toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a CC algorithm")
    run.add_argument("input", help="dataset name (see `repro datasets`) "
                                   "or path to an edge-list/.npz file")
    run.add_argument("--method", default="thrifty",
                     choices=_METHOD_CHOICES)
    run.add_argument("--machine", default="SkylakeX",
                     choices=sorted(MACHINES))
    run.add_argument("--scale", type=float, default=1.0,
                     help="dataset scale factor (surrogates only)")
    run.add_argument("--opt", action="append", metavar="KEY=VALUE",
                     help="typed algorithm option (repeatable), e.g. "
                          "--opt threshold=0.05")
    run.add_argument("--trace", action="store_true",
                     help="print the per-iteration execution trace")

    sub.add_parser("datasets", help="list dataset surrogates")

    gen = sub.add_parser("generate", help="write a synthetic graph")
    gen.add_argument("dataset", help="dataset surrogate name")
    gen.add_argument("output", help="output path (.txt or .npz)")
    gen.add_argument("--scale", type=float, default=1.0)

    pack = sub.add_parser("pack",
                          help="write a blocked on-disk CSR (.rbcsr) "
                               "file for out-of-core runs")
    pack.add_argument("input", help="dataset name or graph file")
    pack.add_argument("output", help="output path (.rbcsr)")
    pack.add_argument("--scale", type=float, default=1.0)
    pack.add_argument("--edges-per-block", type=int, default=None,
                      help="edges per storage block (default 65536)")

    exp = sub.add_parser("experiment",
                         help="regenerate a paper table/figure")
    exp.add_argument("id", choices=sorted(_EXPERIMENTS))
    exp.add_argument("datasets", nargs="*",
                     help="optional dataset names to restrict to")

    srv = sub.add_parser("serve",
                         help="replay a request workload through the "
                              "CC service")
    srv.add_argument("datasets", nargs="+",
                     help="dataset surrogate names to request")
    srv.add_argument("--method", default=AUTO_METHOD,
                     choices=_METHOD_CHOICES)
    srv.add_argument("--machine", default="SkylakeX",
                     choices=sorted(MACHINES))
    srv.add_argument("--scale", type=float, default=1.0)
    srv.add_argument("--repeats", type=int, default=3,
                     help="how many times each dataset is requested")
    srv.add_argument("--cache-size", type=int, default=128)
    srv.add_argument("--budget-ms", type=float, default=None,
                     help="per-request simulated-time budget "
                          "(over-budget LP runs fall back to Afforest)")
    srv.add_argument("--edge-budget", type=int, default=None,
                     help="single-node edge capacity; auto-routed "
                          "graphs with more edges go to the "
                          "distributed tier")
    srv.add_argument("--resident-budget", type=int, default=None,
                     help="resident-memory byte budget; auto-routed "
                          "graphs whose edge array exceeds it run "
                          "out-of-core")
    srv.add_argument("--concurrency", type=int, default=1,
                     help="simulated workers computing at once")
    srv.add_argument("--max-queue-ms", type=float, default=None,
                     help="admission control: cap on the predicted "
                          "simulated-ms backlog in the queue")
    srv.add_argument("--max-queue-depth", type=int, default=None,
                     help="admission control: cap on queued requests")
    srv.add_argument("--tenant-quota-ms", type=float, default=None,
                     help="per-tenant cap on outstanding predicted ms")
    srv.add_argument("--tenants", type=int, default=1,
                     help="spread requests round-robin over N "
                          "synthetic tenants")
    srv.add_argument("--lanes", type=int, default=2,
                     help="number of strict-priority lanes")
    srv.add_argument("--window-ms", type=float, default=None,
                     help="spread arrivals uniformly over this "
                          "simulated window and run the async "
                          "scheduler (default: sequential submits)")
    srv.add_argument("--mutation-rate", type=int, default=None,
                     help="insert a random edge batch into the "
                          "requested dataset every N requests "
                          "(delta-served repeats; sequential mode only)")
    srv.add_argument("--mutation-batch", type=int, default=64,
                     help="edges per insertion batch "
                          "(with --mutation-rate)")
    srv.add_argument("--feedback", default=True,
                     action=argparse.BooleanOptionalAction,
                     help="feed measured run costs back into routing "
                          "(--no-feedback replays the static planner)")
    srv.add_argument("--explore-margin", type=float, default=1.25,
                     help="corrected-margin threshold below which a "
                          "routing decision counts as near-margin and "
                          "may explore the runner-up")
    srv.add_argument("--explore-rate", type=float, default=0.0,
                     help="epsilon of the seeded exploration policy "
                          "(0 never explores)")
    srv.add_argument("--explore-seed", type=int, default=0,
                     help="seed of the deterministic exploration "
                          "stream")

    rep = sub.add_parser("report",
                         help="regenerate all artifacts into markdown")
    rep.add_argument("--out", default="report.md")
    rep.add_argument("--scale", type=float, default=1.0)
    rep.add_argument("--machine", default="SkylakeX",
                     choices=sorted(MACHINES))

    tri = sub.add_parser("trials",
                         help="verified multi-trial measurement")
    tri.add_argument("input", help="dataset name or edge-list path")
    tri.add_argument("--method", default="thrifty",
                     choices=sorted(ALGORITHMS))
    tri.add_argument("--machine", default="SkylakeX",
                     choices=sorted(MACHINES))
    tri.add_argument("--trials", type=int, default=5)
    tri.add_argument("--scale", type=float, default=1.0)
    tri.add_argument("--opt", action="append", metavar="KEY=VALUE",
                     help="typed algorithm option (repeatable)")
    return p


def _cmd_run(args) -> int:
    graph = load(args.input, args.scale)
    name = args.input
    machine = MACHINES[args.machine]
    options = _options_from_args(args)
    result = connected_components(graph, args.method, machine=machine,
                                  dataset=name, options=options)
    timing = simulate_run_time(result.trace, machine, graph.num_vertices)
    c = result.counters()
    print(f"dataset            : {name}  (|V|={graph.num_vertices}, "
          f"|E|={graph.num_undirected_edges})")
    print(f"algorithm          : {result.algorithm}")
    print(f"components         : {result.num_components}")
    print(f"iterations         : {result.num_iterations}")
    print(f"edges processed    : {c.edges_processed} "
          f"({100 * c.edges_processed / max(graph.num_edges, 1):.2f}% of |E|)")
    print(f"simulated time     : {timing.total_ms:.3f} ms on {machine.name}")
    comm = result.extras.get("comm")
    if comm is not None:
        from .distributed import simulate_distributed_time
        dist_ms = simulate_distributed_time(result, graph.num_vertices,
                                            node=machine)
        print(f"ranks              : {result.extras['num_ranks']} "
              f"({result.extras['partition']} partition, "
              f"edge cut {result.extras['edge_cut']})")
        print(f"communication      : {comm.supersteps} supersteps, "
              f"{comm.messages} messages, {comm.updates} updates, "
              f"{comm.modeled_bytes} modeled bytes")
        print(f"distributed time   : {dist_ms:.3f} ms "
              f"({machine.name} nodes, 25GbE)")
    io = result.extras.get("io")
    if io is not None:
        print(f"io                 : {io['blocks_read']} blocks read "
              f"({io['blocks_reread']} reread), {io['bytes_read']} bytes, "
              f"modeled {io['modeled_ms']:.3f} ms on {io['disk']}")
    if args.trace:
        print()
        rows = [[rec.index, rec.direction.value, f"{rec.density:.4f}",
                 rec.active_vertices, rec.changed_vertices,
                 f"{100 * rec.converged_fraction:.1f}",
                 f"{ms:.4f}"]
                for rec, ms in zip(result.trace.iterations,
                                   timing.per_iteration_ms)]
        print(format_table(
            ["iter", "direction", "density", "active", "changed",
             "converged %", "sim ms"], rows))
    return 0


def _cmd_datasets(_args) -> int:
    rows = []
    for spec in DATASETS.values():
        rows.append([spec.name, spec.kind,
                     "yes" if spec.power_law else "no",
                     spec.paper_vertices_m, spec.paper_edges_b,
                     spec.paper_cc])
    print(format_table(
        ["name", "kind", "power-law", "paper |V| (M)", "paper |E| (B)",
         "paper |CC|"], rows))
    return 0


def _cmd_generate(args) -> int:
    graph = load(args.dataset, args.scale)
    if args.output.endswith(".npz"):
        save_csr_npz(graph, args.output)
    else:
        save_edge_list_text(graph.to_edge_list(), args.output,
                            header=f"surrogate for {args.dataset}")
    print(f"wrote {args.output}: |V|={graph.num_vertices}, "
          f"|E|={graph.num_undirected_edges}")
    return 0


def _cmd_pack(args) -> int:
    from .storage import DEFAULT_EDGES_PER_BLOCK, read_header, write_blocked

    graph = load(args.input, args.scale)
    epb = args.edges_per_block or DEFAULT_EDGES_PER_BLOCK
    write_blocked(graph, args.output, edges_per_block=epb)
    header = read_header(args.output)
    print(f"wrote {args.output}: |V|={header.num_vertices}, "
          f"|E|={header.num_edges}, {header.num_blocks} blocks x "
          f"{header.edges_per_block} edges ({header.index_dtype}, "
          f"{header.file_size} bytes)")
    return 0


def _serve_mutating(service, args, request_cls) -> list:
    """Sequential request stream with interleaved edge insertions.

    Datasets are registered once by name and requested by key, so each
    mutation's successor graph (same name, new fingerprint) is what
    subsequent requests resolve — the delta-serving path end to end.
    """
    import numpy as np

    sizes = {}
    for name in args.datasets:
        graph = load(name, args.scale)
        service.register(graph, name=name)
        sizes[name] = graph.num_vertices
    rng = np.random.default_rng(0)
    responses = []
    for _ in range(args.repeats):
        for name in args.datasets:
            if responses and len(responses) % args.mutation_rate == 0:
                n = sizes[name]
                service.mutate(name, insert=(
                    rng.integers(0, n, args.mutation_batch),
                    rng.integers(0, n, args.mutation_batch)))
            tenant = f"tenant-{len(responses) % max(args.tenants, 1)}"
            responses.append(service.submit(
                request_cls(key=name, name=name, method=args.method,
                            budget_ms=args.budget_ms, tenant=tenant)))
    return responses


def _cmd_serve(args) -> int:
    from .options import ServiceOptions
    from .service import CCRequest, CCService

    try:
        service_options = ServiceOptions(
            concurrency=args.concurrency,
            max_queue_ms=args.max_queue_ms,
            max_queue_depth=args.max_queue_depth,
            tenant_quota_ms=args.tenant_quota_ms,
            num_lanes=args.lanes,
            feedback=args.feedback,
            explore_margin=args.explore_margin,
            explore_rate=args.explore_rate,
            explore_seed=args.explore_seed)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    service = CCService(machine=MACHINES[args.machine],
                        cache_capacity=args.cache_size,
                        single_node_edge_budget=args.edge_budget,
                        resident_byte_budget=args.resident_budget,
                        service_options=service_options)
    for name in args.datasets:
        if name not in DATASETS:
            raise SystemExit(f"unknown dataset {name!r}; see "
                             f"`repro datasets`")
    if args.mutation_rate is not None:
        if args.window_ms is not None:
            raise SystemExit("--mutation-rate interleaves mutations "
                             "with sequential submits; it cannot be "
                             "combined with --window-ms")
        if args.mutation_rate < 1:
            raise SystemExit("--mutation-rate must be >= 1")
        responses = _serve_mutating(service, args, CCRequest)
    else:
        requests = []
        for _ in range(args.repeats):
            for name in args.datasets:
                tenant = f"tenant-{len(requests) % max(args.tenants, 1)}"
                requests.append(
                    CCRequest(graph=load(name, args.scale),
                              name=name, method=args.method,
                              budget_ms=args.budget_ms, tenant=tenant))
        if args.window_ms is not None:
            # Timestamped trace through the async scheduler: uniform
            # arrivals over the window, coalescing/admission active.
            step = args.window_ms / max(len(requests) - 1, 1)
            for i, req in enumerate(requests):
                req.arrival_ms = i * step
            responses = service.run_trace(requests)
        else:
            responses = service.submit_batch(requests)
    rows = []
    for resp in responses:
        if resp.status == "rejected":
            rows.append([resp.request.name, resp.method,
                         f"rejected:{resp.reject_reason}", "no", "-",
                         "-"])
            continue
        cache = "hit" if resp.cache_hit else (
            "coalesced" if resp.coalesced else
            "delta" if resp.delta_hit else "miss")
        rows.append([resp.request.name, resp.method, cache,
                     "yes" if resp.fallback else "no",
                     resp.num_components,
                     f"{resp.simulated_ms:.3f}"])
    print(format_table(
        ["dataset", "method", "cache", "fallback", "components",
         "sim ms"], rows))
    snap = service.metrics.snapshot()
    print(f"\nrequests={snap['requests']} hit_rate={snap['hit_rate']:.2f} "
          f"effective_hit_rate={snap['effective_hit_rate']:.2f} "
          f"fallbacks={snap['fallbacks']} "
          f"auto_routed={snap['auto_routed']}")
    print(f"coalesced={snap['coalesced']} delta_hits={snap['delta_hits']} "
          f"invalidations={snap['invalidations']} "
          f"rejected={snap['rejected']} "
          f"flag_replays={snap['flag_replays']}")
    print(f"predictions={snap['predictions']} "
          f"mispredictions={snap['mispredictions']} "
          f"route_flips={snap['route_flips']} "
          f"explorations={snap['explorations']}")
    print("per-method counts:", snap["per_method"])
    if snap["fallback_per_method"]:
        print("fallback runs by method:", snap["fallback_per_method"])
    if args.tenants > 1:
        print("per-tenant counts:", snap["per_tenant"])
    lat = snap["latency"]
    print(f"simulated latency: mean={lat['mean_ms']:.3f}ms "
          f"p50={lat['p50_ms']:.3f}ms p99={lat['p99_ms']:.3f}ms")
    qd = snap["queue_delay"]
    if qd["count"]:
        print(f"queue delay: mean={qd['mean_ms']:.3f}ms "
              f"p50={qd['p50_ms']:.3f}ms p99={qd['p99_ms']:.3f}ms")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "datasets":
        return _cmd_datasets(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "pack":
        return _cmd_pack(args)
    if args.command == "experiment":
        _EXPERIMENTS[args.id](args)
        return 0
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "trials":
        from .experiments.protocol import run_trials
        graph = load(args.input, args.scale)
        stats = run_trials(graph, args.method, num_trials=args.trials,
                           machine=args.machine,
                           options=_options_from_args(args))
        print(f"{args.method} on {args.input}: {stats.num_trials} "
              f"verified trials on {stats.machine}")
        print(f"  simulated ms: mean={stats.mean_ms:.3f} "
              f"min={stats.min_ms:.3f} max={stats.max_ms:.3f} "
              f"stdev={stats.stdev_ms:.4f}")
        print(f"  iterations  : {stats.iterations}")
        return 0
    if args.command == "report":
        from .experiments.report import generate_report
        text = generate_report(scale=args.scale, machine=args.machine)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(text)} chars)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
