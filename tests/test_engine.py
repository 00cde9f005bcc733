"""Tests for the LP engine: DO-LP, unified, Thrifty, and ablations."""

import itertools

import numpy as np
import pytest

from repro.core import (
    LPOptions,
    dolp_cc,
    label_propagation_cc,
    thrifty_cc,
    unified_dolp_cc,
)
from repro.graph import CSRGraph, component_labels_reference
from repro.graph.generators import path_graph, star_graph
from repro.instrument import Direction
from repro.validate import same_partition, validate_against_reference
from tests.pull_oracle import reference_cc
from tests.push_oracle import PerChunkEngine, racy_worklists


class TestCorrectness:
    def test_dolp_on_zoo(self, zoo_graph):
        validate_against_reference(zoo_graph, dolp_cc(zoo_graph))

    def test_thrifty_on_zoo(self, zoo_graph):
        validate_against_reference(zoo_graph, thrifty_cc(zoo_graph))

    def test_unified_on_zoo(self, zoo_graph):
        validate_against_reference(zoo_graph, unified_dolp_cc(zoo_graph))

    def test_all_ablation_combinations_correct(self, small_skewed):
        """Every subset of the four optimizations yields correct CC."""
        ref = component_labels_reference(small_skewed)
        for flags in itertools.product([False, True], repeat=4):
            unified, zero_conv, planting, push = flags
            opts = LPOptions(
                unified_labels=unified,
                zero_convergence=zero_conv,
                zero_planting=planting,
                initial_push=push,
                count_only_pulls=True,
                threshold=0.02,
                num_threads=4,
                algorithm_name=f"ablation-{flags}",
            )
            result = label_propagation_cc(small_skewed, opts)
            assert same_partition(result.labels, ref), flags

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.empty(0, np.int64))
        result = thrifty_cc(g)
        assert result.labels.size == 0
        assert result.num_iterations == 0

    def test_single_vertex(self):
        g = CSRGraph(np.array([0, 0]), np.empty(0, np.int64))
        result = thrifty_cc(g)
        assert result.num_components == 1

    def test_race_injection_still_correct(self, small_skewed):
        with racy_worklists(0.5):
            result = thrifty_cc(small_skewed)
        validate_against_reference(small_skewed, result)

    def test_thread_counts_do_not_change_components(self, small_skewed):
        ref = None
        for threads in (1, 2, 8, 32):
            r = thrifty_cc(small_skewed, num_threads=threads)
            if ref is None:
                ref = r.labels
            assert same_partition(r.labels, ref)


class TestTraceShape:
    def test_thrifty_starts_with_initial_push(self, small_skewed):
        trace = thrifty_cc(small_skewed).trace
        assert trace.iterations[0].direction == Direction.INITIAL_PUSH
        assert trace.iterations[0].active_vertices == 1

    def test_dolp_starts_with_pull(self, small_skewed):
        trace = dolp_cc(small_skewed).trace
        assert trace.iterations[0].direction == Direction.PULL
        assert trace.iterations[0].active_vertices == \
            small_skewed.num_vertices

    def test_thrifty_pull_frontier_before_pushes(self, small_skewed):
        dirs = thrifty_cc(small_skewed).trace.directions()
        if Direction.PUSH in dirs:
            first_push = dirs.index(Direction.PUSH)
            assert Direction.PULL_FRONTIER in dirs[:first_push] or \
                Direction.INITIAL_PUSH in dirs[:first_push]

    def test_convergence_curve_monotone(self, small_skewed):
        for fn in (dolp_cc, thrifty_cc):
            curve = fn(small_skewed).trace.convergence_curve()
            assert all(b >= a - 1e-12
                       for a, b in zip(curve, curve[1:]))
            assert curve[-1] == pytest.approx(1.0)

    def test_setup_counters_populated(self, small_skewed):
        trace = thrifty_cc(small_skewed).trace
        assert trace.setup_counters.label_writes >= \
            small_skewed.num_vertices

    def test_densities_recorded(self, small_skewed):
        trace = dolp_cc(small_skewed).trace
        assert trace.iterations[0].density > 1.0   # full frontier
        assert all(r.density >= 0 for r in trace.iterations)

    def test_iteration_counters_sum_to_total(self, small_skewed):
        result = thrifty_cc(small_skewed)
        total = result.counters()
        per_iter = sum(r.counters.edges_processed
                       for r in result.trace.iterations)
        assert total.edges_processed == per_iter


class TestSemantics:
    def test_zero_convergence_reduces_edges(self, small_skewed):
        with_zc = thrifty_cc(small_skewed)
        without = thrifty_cc(small_skewed, zero_convergence=False)
        assert with_zc.counters().edges_processed < \
            without.counters().edges_processed

    def test_thrifty_processes_far_fewer_edges_than_dolp(
            self, small_skewed):
        t = thrifty_cc(small_skewed).counters().edges_processed
        d = dolp_cc(small_skewed).counters().edges_processed
        assert t < 0.25 * d

    def test_unified_never_more_iterations_than_dolp(self):
        """On id-ascending paths the unified sweep converges faster."""
        g = path_graph(200)
        u = unified_dolp_cc(g).num_iterations
        d = dolp_cc(g).num_iterations
        assert u < d

    def test_dolp_sync_pass_counted(self, small_skewed):
        d = dolp_cc(small_skewed).counters()
        u = unified_dolp_cc(small_skewed).counters()
        # DO-LP pays one labels-array copy per iteration.
        assert d.label_writes > u.label_writes

    def test_star_converges_after_initial_push(self):
        g = star_graph(50)
        result = thrifty_cc(g)
        # Push from the hub reaches every leaf; one confirming pull.
        assert result.num_iterations <= 3
        rec0 = result.trace.iterations[0]
        assert rec0.changed_vertices == 50

    def test_threshold_affects_schedule(self, small_skewed):
        lo = thrifty_cc(small_skewed, threshold=0.001)
        hi = thrifty_cc(small_skewed, threshold=0.5)
        assert same_partition(lo.labels, hi.labels)
        # A high threshold treats more frontiers as sparse -> fewer
        # pull iterations, more pushes.
        lo_pulls = sum(1 for d in lo.trace.directions()
                       if d in (Direction.PULL, Direction.PULL_FRONTIER))
        hi_pulls = sum(1 for d in hi.trace.directions()
                       if d in (Direction.PULL, Direction.PULL_FRONTIER))
        assert hi_pulls <= lo_pulls


class TestOptionsValidation:
    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            LPOptions(threshold=0.0)
        with pytest.raises(ValueError):
            LPOptions(threshold=1.5)

    def test_thread_bounds(self):
        with pytest.raises(ValueError):
            LPOptions(num_threads=0)

    def test_block_size_bounds(self):
        with pytest.raises(ValueError):
            LPOptions(block_size=0)

    def test_max_iterations_guard(self):
        g = path_graph(50)
        with pytest.raises(RuntimeError, match="max_iterations"):
            label_propagation_cc(
                g, LPOptions(max_iterations=2, algorithm_name="t"))

    @pytest.mark.parametrize("method", ["thrifty", "dolp"])
    def test_max_iterations_exactly_reached(self, method):
        """A run converging in exactly ``max_iterations`` iterations
        returns; one iteration less raises."""
        from repro.graph.datasets import DATASETS
        g = DATASETS["Pkc"].build(0.05)
        run = thrifty_cc if method == "thrifty" else dolp_cc
        free = run(g)
        assert free.trace.iterations[-1].changed_vertices == 0
        capped = run(g, max_iterations=free.num_iterations)
        assert np.array_equal(capped.labels, free.labels)
        assert capped.num_iterations == free.num_iterations
        for a, b in zip(capped.trace.iterations, free.trace.iterations):
            assert a.direction == b.direction
            assert a.counters.as_dict() == b.counters.as_dict()
            assert a.makespan == b.makespan
        with pytest.raises(RuntimeError, match="max_iterations"):
            run(g, max_iterations=free.num_iterations - 1)

    def test_max_iterations_bounds(self):
        with pytest.raises(ValueError, match="max_iterations"):
            LPOptions(max_iterations=0)
        with pytest.raises(ValueError, match="max_iterations"):
            LPOptions(max_iterations=-3)
        LPOptions(max_iterations=1)

    def test_partitions_per_thread_bounds(self):
        with pytest.raises(ValueError, match="partitions_per_thread"):
            LPOptions(partitions_per_thread=0)
        LPOptions(partitions_per_thread=1)

    def test_with_machine_retargets(self):
        from repro.parallel import EPYC
        opts = LPOptions().with_machine(EPYC)
        assert opts.machine is EPYC
        assert opts.num_threads == 128


class TestPushOwnership:
    """Push chunks run on the thread owning their partition
    (``Partitioning.owner_of``), not ``chunk[0] % num_threads``."""

    @staticmethod
    def _engine(graph, **overrides):
        from repro.core.engine import _Engine
        base = dict(num_threads=2, partitions_per_thread=1,
                    block_size=4, zero_planting=False,
                    track_convergence=False)
        base.update(overrides)
        return _Engine(graph, LPOptions(**base), "")

    @staticmethod
    def _skewed():
        # Hub 0 swallows most edges, so the second partition starts at
        # a low vertex id: partition ownership and id-modulo disagree.
        from tests.conftest import graph_from_pairs
        pairs = [(0, i) for i in range(1, 7)] + [(7, 8), (8, 9)]
        return graph_from_pairs(pairs, 10)

    def test_chunk_lands_on_partition_owner(self):
        import numpy as np
        from repro.parallel import AdaptiveFrontier
        g = self._skewed()
        eng = self._engine(g)
        part = eng.partitioning
        p = part.partition_of(8)
        owner = part.owner_of(p)
        # The scenario must discriminate the policies, or the test is
        # vacuous: the buggy owner (8 % 2 == 0) differs.
        assert owner == 1 and 8 % 2 == 0
        frontier = AdaptiveFrontier(g.num_vertices)
        frontier.set_many(g, np.array([8]))
        eng.push(frontier)
        # Vertex 8's push lowers 9; the batch must sit on thread 1.
        assert eng.last_worklists.thread_vertices(owner).tolist() == [9]
        assert eng.last_worklists.thread_vertices(0).size == 0
        assert eng.last_drain_order.tolist() == [9]

    def test_drain_order_matches_ownership_replay(self):
        """Pin the full drain order of a push on a skewed graph
        against an independent replay using partition ownership, and
        check the seed's id-modulo policy would give a different
        drain."""
        import numpy as np
        from tests.conftest import graph_from_pairs
        from repro.core.backends import get_backend
        from repro.parallel import AdaptiveFrontier, LocalWorklists
        # Hub 0 fills the first partition by itself; every chain
        # vertex lives in partition 1 whatever its id parity, so the
        # two ownership policies scatter the chain pushes onto
        # different threads and the steals interleave differently.
        pairs = [(0, i) for i in range(1, 13)] + \
            [(13, 14), (14, 15), (15, 16), (16, 17), (18, 19), (19, 20)]
        g = graph_from_pairs(pairs, 21)
        eng = self._engine(g, block_size=1)
        part = eng.partitioning
        active = np.array([13, 14, 18])
        frontier = AdaptiveFrontier(g.num_vertices)
        frontier.set_many(g, active)

        def replay(owner_fn):
            labels = np.arange(g.num_vertices, dtype=np.int64)
            wl = LocalWorklists(g.num_vertices, 2)
            for lo in range(active.size):
                chunk = active[lo:lo + 1]
                targets, deg = get_backend().concat_adjacency(g, chunk)
                if targets.size == 0:
                    continue
                values = np.repeat(labels[chunk], deg)
                changed = get_backend().batch_atomic_min(
                    labels, targets.astype(np.int64), values)
                if changed.size:
                    wl.push_batches([owner_fn(int(chunk[0]))], changed,
                                    [0, changed.size])
            return wl.drain_order()

        expected = replay(lambda v: part.owner_of(part.partition_of(v)))
        buggy = replay(lambda v: v % 2)
        assert not np.array_equal(expected, buggy)   # test has teeth
        eng.push(frontier)
        assert np.array_equal(eng.last_drain_order, expected)


class TestPushChunkStraddle:
    """A push chunk must never straddle a partition boundary.

    The seed split the active list at ``block_size`` strides only, so
    a chunk spanning two partitions was attributed wholly — work,
    thread ownership, and the resulting worklist batch — to the
    partition containing its *first* vertex.  The engine now cuts the
    list at partition bounds first, so each side lands on its own
    owner (and, since straddling chunks also committed their edges in
    one atomic-min batch, the intra-iteration label snapshot each
    chunk reads changes too).
    """

    @pytest.fixture(params=[True, False], ids=["fused", "sequential"])
    def engine(self, request):
        # path_graph(10) edge-balances into [0, 5) and [5, 10): the
        # frontier {4, 5} straddles the boundary inside one block.
        g = path_graph(10)
        opts = LPOptions(num_threads=2, partitions_per_thread=1,
                         block_size=4, zero_planting=False,
                         track_convergence=False)
        from repro.core.engine import _Engine
        eng = (_Engine if request.param else PerChunkEngine)(g, opts, "")
        assert eng.partitioning.bounds.tolist() == [0, 5, 10]
        return g, eng

    def test_straddling_frontier_charges_both_partitions(self, engine):
        from repro.parallel import AdaptiveFrontier
        g, eng = engine
        frontier = AdaptiveFrontier(g.num_vertices)
        frontier.set_many(g, np.array([4, 5]))
        eng.push(frontier)
        # One chunk per side: vertex 4 (1 vertex + 2 edges) on
        # partition 0, vertex 5 likewise on partition 1.  The seed
        # billed a single chunk [4, 5] entirely to partition 0
        # (work [6, 0]).
        assert eng._last_work.tolist() == [3.0, 3.0]

    def test_straddling_frontier_batches_on_both_owners(self, engine):
        from repro.parallel import AdaptiveFrontier
        g, eng = engine
        frontier = AdaptiveFrontier(g.num_vertices)
        frontier.set_many(g, np.array([4, 5]))
        eng.push(frontier)
        wl = eng.last_worklists
        # Chunk [4] lowers 5 and enqueues it on thread 0; chunk [5]
        # then reads 5's *updated* label (4) and lowers 6 onto thread
        # 1.  The seed produced one thread-0 batch [5, 6] and left
        # labels[6] at 5.
        assert [b.tolist() for b in wl.thread_batches(0)] == [[5]]
        assert [b.tolist() for b in wl.thread_batches(1)] == [[6]]
        assert eng.labels[5] == 4 and eng.labels[6] == 4
        assert eng.last_drain_order.tolist() == [5, 6]


class TestPushSolveChains:
    """The push solve against the per-chunk loop where one push
    carries a label down a long chain of chunks (the path and chain
    option cases of ``test_push_fusion_properties.py`` cover whole
    runs)."""

    @pytest.mark.parametrize("threads", [1, 32])
    def test_zero_crosses_path_in_one_push(self, threads):
        """One push of the whole path from a zero at vertex 0 carries
        it down all 200 chunks, as the per-chunk loop does."""
        from repro.core.engine import _Engine
        from repro.parallel import AdaptiveFrontier
        g = path_graph(200)
        opts = LPOptions(block_size=1, num_threads=threads,
                         zero_planting=False, track_convergence=False)
        engines = [cls(g, opts, "") for cls in (_Engine, PerChunkEngine)]
        for eng in engines:
            eng.labels[0] = 0
            eng.push(AdaptiveFrontier.full(g))
        got, ref = engines
        assert not got.labels.any()
        assert sorted(got.last_drain_order.tolist()) == list(range(1, 200))
        assert np.array_equal(got.last_drain_order, ref.last_drain_order)
        assert got.counters.as_dict() == ref.counters.as_dict()
        assert np.array_equal(got._last_work, ref._last_work)


class TestPushOneGather:
    """A push iteration gathers the graph's adjacency once, for all
    its chunks."""

    @pytest.mark.parametrize("unified", [True, False],
                             ids=["unified", "dolp"])
    def test_one_concat_adjacency_per_push(self, small_skewed, unified):
        from repro.core.engine import _Engine
        from repro.parallel import AdaptiveFrontier
        g = small_skewed
        eng = _Engine(g, LPOptions(block_size=2, zero_planting=False,
                                   unified_labels=unified,
                                   track_convergence=False), "")
        real = eng.kb
        calls = []

        class Counting:
            def __getattr__(self, name):
                return getattr(real, name)

            def concat_adjacency(self, graph, rows):
                calls.append(graph)
                return real.concat_adjacency(graph, rows)

        eng.kb = Counting()
        frontier = AdaptiveFrontier.full(g)
        pushes = 0
        while len(frontier):
            calls.clear()
            frontier = eng.push(frontier)
            pushes += 1
            assert len(calls) == 1 and calls[0] is g
        assert pushes > 1


class TestMakespan:
    def test_every_iteration_has_positive_makespan(self, small_skewed):
        result = thrifty_cc(small_skewed)
        spans = result.trace.makespans()
        assert len(spans) == result.num_iterations
        assert all(s > 0 for s in spans)
        assert result.trace.total_makespan() == sum(spans)

    def test_makespan_bounded_by_total_work(self, small_skewed):
        # The makespan of a parallel-for can never exceed its serial
        # work (vertices scanned + edges processed) and never beat a
        # perfect T-way split of it.
        result = thrifty_cc(small_skewed, num_threads=4)
        for rec in result.trace.iterations:
            c = rec.counters
            serial = c.vertex_reads + c.edges_processed
            if serial == 0:
                continue
            assert rec.makespan <= serial
            assert rec.makespan >= serial / 4 - 1e-9

    def test_makespan_default_zero_for_other_algorithms(self, path10):
        from repro import connected_components
        result = connected_components(path10, "connectit")
        assert all(r.makespan == 0.0 for r in result.trace.iterations)


class TestLazyMakespan:
    """Makespans are replayed on first read, from the sparse work the
    engine recorded, and equal the eager per-iteration replay."""

    @staticmethod
    def _count_schedule(monkeypatch):
        from repro.parallel.scheduler import WorkStealingScheduler
        calls = []
        original = WorkStealingScheduler.schedule

        def counted(self, work=None):
            calls.append(1)
            return original(self, work)

        monkeypatch.setattr(WorkStealingScheduler, "schedule", counted)
        return calls

    def test_unread_makespans_never_replay(self, small_skewed,
                                           monkeypatch):
        calls = self._count_schedule(monkeypatch)
        result = thrifty_cc(small_skewed)
        assert len(calls) == 1          # partition_order only
        spans = result.trace.makespans()
        assert len(calls) == 1 + result.num_iterations
        assert result.trace.makespans() == spans    # memoized
        assert len(calls) == 1 + result.num_iterations

    def test_equals_eager_replay_per_iteration(self, small_skewed,
                                               monkeypatch):
        from repro.core.engine import _Engine
        works, engines = [], []
        original = _Engine.record

        def record(self, *args, **kwargs):
            engines.append(self)
            works.append(None if self._last_work is None
                         else self._last_work.copy())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(_Engine, "record", record)
        for opts in (LPOptions(), LPOptions(unified_labels=False,
                                            initial_push=False,
                                            threshold=0.05)):
            works.clear()
            result = label_propagation_cc(small_skewed, opts)
            scheduler = engines[-1].scheduler
            assert len(works) == result.num_iterations
            expected = [0.0 if w is None else scheduler.makespan(w)
                        for w in works]
            assert result.trace.makespans() == expected

    def test_cached_result_reports_same_makespans(self, small_skewed):
        from repro.service import CCService
        svc = CCService()
        first = svc.connected_components(small_skewed, method="thrifty")
        again = svc.connected_components(small_skewed, method="thrifty")
        assert again.cache_hit
        fresh = thrifty_cc(small_skewed).trace.makespans()
        assert again.result.trace.makespans() == fresh
        assert first.result.trace.makespans() == fresh

    def test_push_iteration_holds_only_nonzero_partitions(self):
        from repro.core.engine import _PendingMakespan
        from repro.graph.datasets import DATASETS
        result = thrifty_cc(DATASETS["GBRd"].build(0.05), threshold=0.3)
        pushes = [r for r in result.trace.iterations
                  if r.direction == Direction.PUSH]
        assert pushes
        num_partitions = 32 * LPOptions().partitions_per_thread
        touched = []
        for rec in pushes:
            pending = vars(rec)["makespan"]
            assert isinstance(pending, _PendingMakespan)
            assert pending.ids.dtype == np.int32
            assert (pending.ids.nbytes + pending.values.nbytes
                    == 12 * pending.ids.size)
            assert np.all(pending.values > 0)
            touched.append(pending.ids.size)
            assert rec.makespan > 0
            assert isinstance(vars(rec)["makespan"], float)
        # A road push touches a few partitions, not all of them.
        assert sorted(touched)[len(touched) // 2] < num_partitions // 16

    def test_repr_and_equality_see_the_float(self, path10):
        import dataclasses
        a = thrifty_cc(path10).trace.iterations[0]
        b = thrifty_cc(path10).trace.iterations[0]
        assert "_PendingMakespan" not in repr(a)
        assert f"makespan={b.makespan!r}" in repr(a)
        assert a == b
        assert dataclasses.replace(a).makespan == a.makespan


def _block_bounds_loop(partitioning, block_size, n):
    """Per-block Python loop the engine used to build block bounds."""
    bounds = [0]
    for p in range(partitioning.num_partitions):
        lo_p, hi_p = partitioning.vertex_range(p)
        for lo in range(lo_p, hi_p, block_size):
            bounds.append(min(lo + block_size, hi_p))
    if bounds[-1] != n:
        bounds.append(n)
    return np.array(sorted(set(bounds)), dtype=np.int64)


class TestBlockBounds:
    @pytest.mark.parametrize("block_size", [1, 7, 64])
    def test_matches_per_block_loop(self, zoo_graph, block_size):
        from repro.core.engine import _Engine
        eng = _Engine(zoo_graph, LPOptions(block_size=block_size), "")
        part = eng.partitioning
        expected = _block_bounds_loop(part, block_size,
                                      zoo_graph.num_vertices)
        assert eng.block_bounds.dtype == np.int64
        assert np.array_equal(eng.block_bounds, expected)

    def test_zoo_has_empty_partitions(self):
        from repro.core.engine import _Engine
        from tests.conftest import graph_zoo
        empty = [name for name, g in graph_zoo()
                 if np.any(np.diff(_Engine(g, LPOptions(), "")
                                   .partitioning.bounds) == 0)]
        assert len(empty) >= 5

    def test_empty_graph(self):
        from repro.core.engine import _Engine
        g = CSRGraph(np.array([0]), np.empty(0, np.int64))
        eng = _Engine(g, LPOptions(), "")
        assert eng.block_bounds.tolist() == [0]
        assert np.array_equal(
            eng.block_bounds, _block_bounds_loop(eng.partitioning, 64, 0))


class TestPullFusionIdentity:
    """The production unified pull only changes wall-clock: labels,
    counters and traces stay bit-identical to the per-block reference
    sweep (``tests/pull_oracle.py``)."""

    OPTION_GRID = [
        {},
        {"zero_convergence": False},
        {"initial_push": False},
        {"zero_planting": False},
        {"count_only_pulls": False},
        {"threshold": 1.0},
        {"block_size": 1},
        {"block_size": 7},
        {"num_threads": 4, "partitions_per_thread": 2},
    ]

    def test_bit_identical_runs(self, small_skewed):
        for overrides in self.OPTION_GRID:
            opts = LPOptions(track_convergence=False, **overrides)
            fused = label_propagation_cc(small_skewed, opts)
            ref = reference_cc(small_skewed, opts)
            assert np.array_equal(fused.labels, ref.labels), overrides
            assert fused.num_iterations == ref.num_iterations, overrides
            for a, b in zip(fused.trace.iterations, ref.trace.iterations):
                assert a.direction == b.direction, overrides
                assert a.counters.as_dict() == b.counters.as_dict(), \
                    (overrides, a.index)
                assert a.makespan == b.makespan, (overrides, a.index)

    def test_bit_identical_on_zoo(self, zoo_graph):
        opts = LPOptions(track_convergence=False)
        fused = label_propagation_cc(zoo_graph, opts)
        ref = reference_cc(zoo_graph, opts)
        assert np.array_equal(fused.labels, ref.labels)
        for a, b in zip(fused.trace.iterations, ref.trace.iterations):
            assert a.counters.as_dict() == b.counters.as_dict()
