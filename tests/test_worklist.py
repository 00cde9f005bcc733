"""Tests for the per-thread local worklists + shared byte array."""

import numpy as np
import pytest

from repro.parallel import LocalWorklists
from tests.push_oracle import RacyWorklists


def _push(wl, thread, vertices):
    """Enqueue one batch on ``thread``."""
    vertices = np.asarray(vertices)
    return wl.push_batches([thread], vertices, [0, vertices.size])


class TestLocalWorklists:
    def test_dedup_across_threads(self):
        wl = LocalWorklists(10, 2)
        assert _push(wl, 0, np.array([1, 2, 3])) == 3
        assert _push(wl, 1, np.array([2, 3, 4])) == 1
        assert wl.total_enqueued() == 4

    def test_dedup_within_batch(self):
        wl = LocalWorklists(10, 1)
        assert _push(wl, 0, np.array([5, 5, 5])) == 1

    def test_drain_covers_everything(self):
        wl = LocalWorklists(20, 4)
        _push(wl, 0, np.array([0, 1]))
        _push(wl, 2, np.array([7]))
        _push(wl, 3, np.array([9, 10]))
        assert set(wl.drain_order().tolist()) == {0, 1, 7, 9, 10}

    def test_thread_vertices(self):
        wl = LocalWorklists(10, 2)
        _push(wl, 0, np.array([1]))
        _push(wl, 0, np.array([2]))
        assert set(wl.thread_vertices(0).tolist()) == {1, 2}
        assert wl.thread_vertices(1).size == 0

    def test_empty_batch(self):
        wl = LocalWorklists(5, 1)
        assert _push(wl, 0, np.empty(0, np.int64)) == 0
        assert wl.drain_order().size == 0

    def test_race_injection_duplicates(self):
        # With race_rate=0.99 nearly every duplicate gets re-enqueued,
        # modelling the unsynchronized byte-array race.
        wl = RacyWorklists(100, 2, rate=0.99, seed=1)
        _push(wl, 0, np.arange(50))
        extra = _push(wl, 1, np.arange(50))
        assert extra > 25   # most duplicates slip through

    def test_race_rate_validation(self):
        with pytest.raises(ValueError):
            RacyWorklists(5, 1, rate=1.0)

    def test_thread_count_validation(self):
        with pytest.raises(ValueError):
            LocalWorklists(5, 0)
        # A thread id outside [0, num_threads) is an owner error, not
        # something to wrap onto an existing thread.
        wl = LocalWorklists(5, 2)
        for bad in (2, -1):
            with pytest.raises(ValueError, match="out of range"):
                _push(wl, bad, np.array([1]))
        assert wl.total_enqueued() == 0


class TestPushBatches:
    """``push_batches`` over many batches is one call per batch."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_push_batch_loop(self, seed):
        rng = np.random.default_rng(seed)
        n, threads = 40, 3
        sizes = rng.integers(0, 12, size=9)      # empty batches too
        vertices = rng.integers(0, n, size=int(sizes.sum()))
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        owners = rng.integers(0, threads, size=sizes.size)
        bulk, loop = LocalWorklists(n, threads), LocalWorklists(n, threads)
        pre = rng.choice(n, size=5, replace=False)   # already marked
        _push(bulk, 0, pre)
        _push(loop, 0, pre)
        got = bulk.push_batches(owners, vertices, bounds)
        want = sum(_push(loop, int(t), vertices[lo:hi])
                   for t, lo, hi in zip(owners, bounds[:-1], bounds[1:]))
        assert got == want
        for t in range(threads):
            a, b = bulk.thread_batches(t), loop.thread_batches(t)
            assert [x.tolist() for x in a] == [x.tolist() for x in b]
        assert np.array_equal(bulk.drain_order(), loop.drain_order())

    def test_first_batch_wins_duplicates(self):
        wl = LocalWorklists(10, 2)
        # 3 sits in batches 0 and 1, 5 twice in batch 1 and in batch 2.
        enq = wl.push_batches([1, 0, 1], np.array([3, 7, 5, 3, 5, 5, 9]),
                              [0, 2, 5, 7])
        assert enq == 4
        assert [b.tolist() for b in wl.thread_batches(1)] == [[3, 7], [9]]
        assert [b.tolist() for b in wl.thread_batches(0)] == [[5]]

    @pytest.mark.parametrize("bad", [-1, 5, 7])
    def test_out_of_range_vertex_rejected(self, bad):
        wl = LocalWorklists(5, 2)
        with pytest.raises(ValueError, match=r"\[0, 5\)"):
            _push(wl, 0, np.array([bad, 2]))
        # Nothing was marked: a valid push afterwards still enqueues.
        assert wl.total_enqueued() == 0
        assert _push(wl, 1, np.array([4, 2])) == 2

    def test_out_of_range_thread_in_bulk_rejected(self):
        wl = LocalWorklists(5, 2)
        with pytest.raises(ValueError, match="out of range"):
            wl.push_batches([0, 2], np.array([1, 3]), [0, 1, 2])
        assert wl.total_enqueued() == 0


class TestDrainOrderStealing:
    """The documented Section IV-E drain: own batches front-to-back,
    then steal the most-loaded victim's last batch."""

    def test_single_thread_fifo(self):
        wl = LocalWorklists(20, 1)
        _push(wl, 0, np.array([4, 5]))
        _push(wl, 0, np.array([1]))
        _push(wl, 0, np.array([9, 10]))
        assert wl.drain_order().tolist() == [4, 5, 1, 9, 10]

    def test_steal_takes_victims_last_batch(self):
        # t0 drains its single batch, then steals t1's batches from the
        # BACK while t1 keeps consuming from the front: the drain is
        # [5], [1,2] (t1 own), [4] (stolen), [3] (stolen) — not the
        # thread-order concatenation [5, 1, 2, 3, 4].
        wl = LocalWorklists(20, 2)
        _push(wl, 0, np.array([5]))
        _push(wl, 1, np.array([1, 2]))
        _push(wl, 1, np.array([3]))
        _push(wl, 1, np.array([4]))
        assert wl.drain_order().tolist() == [5, 1, 2, 4, 3]

    def test_steal_prefers_most_loaded_victim(self):
        # t1 has nothing; both t0 and t2 still hold work when t1
        # steals.  t2 carries more remaining load, so t1 must take
        # t2's last batch even though t0 has a lower id.
        wl = LocalWorklists(20, 3)
        _push(wl, 0, np.array([0]))
        _push(wl, 0, np.array([1]))
        _push(wl, 2, np.array([2, 3]))
        _push(wl, 2, np.array([4, 5]))
        assert wl.drain_order().tolist() == [0, 4, 5, 2, 3, 1]

    def test_drain_covers_everything_under_stealing(self):
        rng = np.random.default_rng(3)
        wl = LocalWorklists(500, 4)
        pushed = set()
        for t in range(4):
            for _ in range(rng.integers(0, 5)):
                batch = rng.choice(500, size=rng.integers(1, 20),
                                   replace=False)
                _push(wl, t, batch)
                pushed.update(batch.tolist())
        order = wl.drain_order()
        assert set(order.tolist()) == {
            int(v) for t in range(4)
            for v in wl.thread_vertices(t).tolist()}
        assert order.size == wl.total_enqueued()

    def test_drain_is_repeatable(self):
        wl = LocalWorklists(50, 3)
        _push(wl, 0, np.array([1, 2, 3]))
        _push(wl, 2, np.array([10, 11]))
        _push(wl, 2, np.array([12]))
        first = wl.drain_order()
        assert np.array_equal(first, wl.drain_order())
