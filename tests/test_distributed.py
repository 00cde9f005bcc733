"""Tests for the sharded (distributed) CC tier."""

import numpy as np
import pytest

from repro.distributed import (
    ETHERNET_25G,
    HDR_INFINIBAND,
    DistributedOptions,
    Fabric,
    distributed_cc,
    edge_cut,
    rank_bounds,
    simulate_distributed_time,
)
from repro.distributed.comm import (
    ENVELOPE_HEADER_BYTES,
    varint_bytes,
)
from repro.distributed.partition import rank_of_vertex
from repro.graph import component_labels_reference
from repro.graph.generators import path_graph, rmat_graph, star_graph
from repro.validate import same_partition, validate_against_reference


class TestVarint:
    def test_boundaries_exact(self):
        assert varint_bytes(np.array([0])) == 1
        assert varint_bytes(np.array([127])) == 1
        assert varint_bytes(np.array([128])) == 2
        assert varint_bytes(np.array([16383])) == 2
        assert varint_bytes(np.array([16384])) == 3

    def test_sums_over_array(self):
        assert varint_bytes(np.array([1, 200, 20000])) == 1 + 2 + 3

    def test_empty(self):
        assert varint_bytes(np.empty(0, np.int64)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varint_bytes(np.array([-1]))


class TestFabric:
    def test_exchange_delivers_and_counts(self):
        f = Fabric(2)
        f.send(0, 1, np.array([3, 4]), np.array([7, 8]))
        inboxes = f.exchange()
        vs, ls = inboxes[1]
        assert vs.tolist() == [3, 4]
        assert ls.tolist() == [7, 8]
        assert inboxes[0][0].size == 0
        assert f.stats.messages == 2
        assert f.stats.bytes == 16
        assert f.stats.supersteps == 1

    def test_deterministic_sender_order(self):
        f = Fabric(3)
        f.send(2, 0, np.array([9]), np.array([9]))
        f.send(1, 0, np.array([5]), np.array([5]))
        vs, _ = f.exchange()[0]
        assert vs.tolist() == [5, 9]   # rank 1 before rank 2

    def test_self_send_rejected(self):
        f = Fabric(2)
        with pytest.raises(ValueError, match="local"):
            f.send(0, 0, np.array([1]), np.array([1]))

    def test_rank_bounds(self):
        f = Fabric(2)
        with pytest.raises(ValueError):
            f.send(0, 5, np.array([1]), np.array([1]))
        with pytest.raises(ValueError):
            f.send(-1, 1, np.array([1]), np.array([1]))

    def test_empty_send_free(self):
        f = Fabric(2)
        f.send(0, 1, np.empty(0, np.int64), np.empty(0, np.int64))
        f.exchange()
        assert f.stats.messages == 0

    def test_pending(self):
        f = Fabric(2)
        f.send(0, 1, np.array([1]), np.array([1]))
        assert f.pending_messages() == 1
        f.exchange()
        assert f.pending_messages() == 0

    def test_at_least_one_rank(self):
        with pytest.raises(ValueError):
            Fabric(0)


class TestFabricCombining:
    def test_min_combines_per_vertex(self):
        f = Fabric(2, combining=True)
        f.send(0, 1, np.array([5, 5, 3]), np.array([9, 2, 4]))
        vs, ls = f.exchange()[1]
        # One update per vertex, min label, sorted by vertex id.
        assert vs.tolist() == [3, 5]
        assert ls.tolist() == [4, 2]
        assert f.stats.updates == 2
        assert f.stats.combined_updates == 1

    def test_one_envelope_per_src_dst(self):
        f = Fabric(3, combining=True)
        f.send(0, 2, np.array([1, 2]), np.array([1, 2]))
        f.send(0, 2, np.array([3]), np.array([3]))     # same pair
        f.send(1, 2, np.array([4]), np.array([4]))     # second sender
        f.exchange()
        assert f.stats.messages == 2                   # two envelopes
        assert f.stats.header_bytes == 2 * ENVELOPE_HEADER_BYTES

    def test_delta_varint_payload(self):
        f = Fabric(2, combining=True)
        # ids 1000, 1001: delta-coded as 1000 (+2B) then 1 (+1B);
        # labels 1, 2: one varint byte each.
        f.send(0, 1, np.array([1000, 1001]), np.array([1, 2]))
        f.exchange()
        assert f.stats.payload_bytes == 2 + 1 + 1 + 1
        assert f.stats.modeled_bytes == ENVELOPE_HEADER_BYTES + 5

    def test_combined_delivery_equivalent_to_naive(self):
        rng = np.random.default_rng(3)
        vs = rng.integers(0, 50, size=200)
        ls = rng.integers(0, 1000, size=200)
        merged_naive = np.full(50, 10**9, dtype=np.int64)
        merged_comb = merged_naive.copy()
        for combining, merged in ((False, merged_naive),
                                  (True, merged_comb)):
            f = Fabric(2, combining=combining)
            f.send(0, 1, vs, ls)
            rv, rl = f.exchange()[1]
            np.minimum.at(merged, rv, rl)
        assert np.array_equal(merged_naive, merged_comb)

    def test_combining_never_more_wire_traffic(self):
        rng = np.random.default_rng(7)
        vs = rng.integers(0, 64, size=300)
        ls = rng.integers(0, 10**6, size=300)
        stats = []
        for combining in (False, True):
            f = Fabric(2, combining=combining)
            f.send(0, 1, vs, ls)
            f.exchange()
            stats.append(f.stats)
        naive, comb = stats
        assert comb.messages <= naive.messages
        assert comb.modeled_bytes <= naive.modeled_bytes


class TestPartition:
    def test_block_bounds_cover_range(self, small_skewed):
        b = rank_bounds(small_skewed, 4, "block")
        assert b[0] == 0 and b[-1] == small_skewed.num_vertices
        assert np.all(np.diff(b) >= 0)

    def test_degree_balanced_bounds_balance_edges(self, small_skewed):
        b = rank_bounds(small_skewed, 4, "degree_balanced")
        per_rank = np.diff(small_skewed.indptr[b])
        # Every rank's edge load is within 2x of the ideal share
        # (exact balance is impossible with contiguous cuts).
        ideal = small_skewed.num_edges / 4
        assert per_rank.max() <= 2 * ideal + small_skewed.degrees.max()

    def test_unknown_strategy_rejected(self, small_skewed):
        with pytest.raises(ValueError, match="partition strategy"):
            rank_bounds(small_skewed, 2, "metis")

    def test_rank_of_vertex_matches_bounds(self, small_skewed):
        b = rank_bounds(small_skewed, 3, "block")
        r = rank_of_vertex(b, small_skewed.num_vertices)
        for rank in range(3):
            sel = r == rank
            if sel.any():
                idx = np.flatnonzero(sel)
                assert idx.min() >= b[rank]
                assert idx.max() < b[rank + 1]

    def test_edge_cut_zero_on_one_rank(self, small_skewed):
        b = rank_bounds(small_skewed, 1, "block")
        r = rank_of_vertex(b, small_skewed.num_vertices)
        assert edge_cut(small_skewed, r) == 0


ALGOS = ["lp", "fastsv"]
PARTITIONS = ["block", "degree_balanced"]


class TestDistributedCC:
    @pytest.mark.parametrize("ranks", [1, 2, 4, 7])
    def test_correct_across_rank_counts(self, ranks, small_skewed):
        r = distributed_cc(small_skewed,
                           DistributedOptions(num_ranks=ranks))
        validate_against_reference(small_skewed, r)

    def test_matches_shared_memory(self, small_skewed):
        from repro import connected_components
        shared = connected_components(small_skewed, "thrifty")
        dist = distributed_cc(small_skewed)
        assert same_partition(shared.labels, dist.labels)

    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("ranks", [1, 3, 8])
    def test_sweep_all_families(self, zoo_graph, ranks, partition,
                                algorithm):
        """Label agreement on every generator family in the zoo."""
        r = distributed_cc(zoo_graph, DistributedOptions(
            num_ranks=ranks, partition=partition, algorithm=algorithm))
        validate_against_reference(zoo_graph, r)

    def test_single_rank_no_messages(self, small_skewed):
        r = distributed_cc(small_skewed,
                           DistributedOptions(num_ranks=1))
        assert r.extras["comm"].messages == 0

    def test_empty_graph(self):
        from repro.graph import CSRGraph
        g = CSRGraph(np.array([0]), np.empty(0, np.int64))
        r = distributed_cc(g)
        assert r.labels.size == 0
        assert "comm" in r.extras

    def test_extras_record_run_facts(self, small_skewed):
        opts = DistributedOptions(num_ranks=4,
                                  partition="degree_balanced")
        r = distributed_cc(small_skewed, opts)
        assert r.extras["num_ranks"] == 4
        assert r.extras["partition"] == "degree_balanced"
        assert r.extras["algorithm"] == "lp"
        assert r.extras["edge_cut"] >= 0
        assert r.extras["comm"].supersteps == r.num_iterations

    def test_ablation_flags_all_correct(self, small_skewed):
        ref = component_labels_reference(small_skewed)
        for zp in (False, True):
            for zc in (False, True):
                for dd in (False, True):
                    opts = DistributedOptions(
                        num_ranks=3, zero_planting=zp,
                        zero_convergence=zc, dedup_sends=dd)
                    r = distributed_cc(small_skewed, opts)
                    assert same_partition(r.labels, ref), (zp, zc, dd)

    def test_path_supersteps_scale_with_distance(self):
        # Labels cross rank boundaries one superstep at a time.
        g = path_graph(64)
        r = distributed_cc(g, DistributedOptions(num_ranks=8,
                                                 algorithm="lp",
                                                 zero_planting=False))
        assert r.extras["comm"].supersteps >= 8

    def test_dedup_reduces_messages(self):
        g = rmat_graph(9, 8, seed=5)
        base = DistributedOptions(num_ranks=4, combining=False,
                                  dedup_sends=False)
        dedup = DistributedOptions(num_ranks=4, combining=False,
                                   dedup_sends=True)
        m_base = distributed_cc(g, base).extras["comm"].messages
        m_dedup = distributed_cc(g, dedup).extras["comm"].messages
        assert m_dedup < m_base

    @pytest.mark.parametrize("algorithm", ALGOS)
    @pytest.mark.parametrize("partition", PARTITIONS)
    def test_combining_bit_identical_and_cheaper(self, small_skewed,
                                                 partition, algorithm):
        """The headline property: the combiner changes the wire cost,
        never the answer."""
        runs = {}
        for combining in (False, True):
            runs[combining] = distributed_cc(
                small_skewed, DistributedOptions(
                    num_ranks=5, partition=partition,
                    algorithm=algorithm, combining=combining))
        assert np.array_equal(runs[True].labels, runs[False].labels)
        naive = runs[False].extras["comm"]
        comb = runs[True].extras["comm"]
        assert comb.messages <= naive.messages
        assert comb.modeled_bytes <= naive.modeled_bytes

    def test_zero_convergence_reduces_scanned_edges(self, small_skewed):
        on = distributed_cc(small_skewed, DistributedOptions(
            num_ranks=3, zero_convergence=True))
        off = distributed_cc(small_skewed, DistributedOptions(
            num_ranks=3, zero_convergence=False))
        assert (on.counters().edges_processed
                < off.counters().edges_processed)
        assert same_partition(on.labels, off.labels)

    def test_star_fast_convergence(self):
        g = star_graph(100)
        r = distributed_cc(g, DistributedOptions(num_ranks=4))
        assert r.extras["comm"].supersteps <= 4
        validate_against_reference(g, r)

    def test_superstep_guard(self):
        g = path_graph(50)
        with pytest.raises(RuntimeError, match="converge"):
            distributed_cc(g, DistributedOptions(num_ranks=4,
                                                 max_supersteps=2))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            DistributedOptions(num_ranks=0)
        with pytest.raises(ValueError):
            DistributedOptions(algorithm="bfs")
        with pytest.raises(ValueError):
            DistributedOptions(partition="metis")

    def test_fastsv_trace_named(self, small_skewed):
        r = distributed_cc(small_skewed,
                           DistributedOptions(algorithm="fastsv"))
        assert r.algorithm == "distributed-fastsv"


class TestFrontDoorIntegration:
    def test_front_door_method(self, small_skewed):
        from repro import connected_components
        r = connected_components(
            small_skewed, "distributed",
            options=DistributedOptions(num_ranks=3))
        validate_against_reference(small_skewed, r)
        assert "comm" in r.extras

    def test_unknown_attribute_raises(self):
        import repro.distributed as dist
        with pytest.raises(AttributeError):
            dist.NoSuchThing


class TestNetworkCostModel:
    def test_transfer_time_components(self):
        from repro.distributed import NetworkSpec
        net = NetworkSpec("test", latency_us=10.0, bandwidth_gbps=1.0)
        # Latency-only for zero bytes.
        assert net.transfer_ms(0) == pytest.approx(0.01)
        # 1 Gb at 1 Gbps = 1 s.
        assert net.transfer_ms(125_000_000) == pytest.approx(
            1000.01, rel=1e-3)

    def test_spec_validation(self):
        from repro.distributed import NetworkSpec
        with pytest.raises(ValueError):
            NetworkSpec("bad", latency_us=0, bandwidth_gbps=1)

    def test_single_rank_pays_no_network(self, small_skewed):
        r = distributed_cc(small_skewed,
                           DistributedOptions(num_ranks=1))
        t = simulate_distributed_time(r, small_skewed.num_vertices, 1)
        assert t > 0

    def test_faster_network_never_slower(self, small_skewed):
        r = distributed_cc(small_skewed,
                           DistributedOptions(num_ranks=4))
        slow = simulate_distributed_time(r, small_skewed.num_vertices,
                                         4, network=ETHERNET_25G)
        fast = simulate_distributed_time(r, small_skewed.num_vertices,
                                         4, network=HDR_INFINIBAND)
        assert fast <= slow

    def test_num_ranks_defaults_from_extras(self, small_skewed):
        r = distributed_cc(small_skewed,
                           DistributedOptions(num_ranks=4))
        assert simulate_distributed_time(
            r, small_skewed.num_vertices) == pytest.approx(
            simulate_distributed_time(r, small_skewed.num_vertices, 4))

    def test_rank_validation(self, small_skewed):
        r = distributed_cc(small_skewed)
        with pytest.raises(ValueError):
            simulate_distributed_time(r, 10, 0)

    def test_requires_comm_extras(self, small_skewed):
        from repro import connected_components
        r = connected_components(small_skewed, "thrifty")
        with pytest.raises(ValueError, match="comm"):
            simulate_distributed_time(r, small_skewed.num_vertices, 2)
