"""Tests for the per-thread local worklists + shared byte array."""

import numpy as np
import pytest

from repro.parallel import LocalWorklists
from tests.push_oracle import RacyWorklists


class TestLocalWorklists:
    def test_dedup_across_threads(self):
        wl = LocalWorklists(10, 2)
        assert wl.push_batch(0, np.array([1, 2, 3])) == 3
        assert wl.push_batch(1, np.array([2, 3, 4])) == 1
        assert wl.total_enqueued() == 4

    def test_dedup_within_batch(self):
        wl = LocalWorklists(10, 1)
        assert wl.push_batch(0, np.array([5, 5, 5])) == 1

    def test_drain_covers_everything(self):
        wl = LocalWorklists(20, 4)
        wl.push_batch(0, np.array([0, 1]))
        wl.push_batch(2, np.array([7]))
        wl.push_batch(3, np.array([9, 10]))
        assert set(wl.drain_order().tolist()) == {0, 1, 7, 9, 10}

    def test_thread_vertices(self):
        wl = LocalWorklists(10, 2)
        wl.push_batch(0, np.array([1]))
        wl.push_batch(0, np.array([2]))
        assert set(wl.thread_vertices(0).tolist()) == {1, 2}
        assert wl.thread_vertices(1).size == 0

    def test_empty_batch(self):
        wl = LocalWorklists(5, 1)
        assert wl.push_batch(0, np.empty(0, np.int64)) == 0
        assert wl.drain_order().size == 0

    def test_race_injection_duplicates(self):
        # With race_rate=0.99 nearly every duplicate gets re-enqueued,
        # modelling the unsynchronized byte-array race.
        wl = RacyWorklists(100, 2, rate=0.99, seed=1)
        wl.push_batch(0, np.arange(50))
        extra = wl.push_batch(1, np.arange(50))
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
                wl.push_batch(bad, np.array([1]))
        assert wl.total_enqueued() == 0


class TestDrainOrderStealing:
    """The documented Section IV-E drain: own batches front-to-back,
    then steal the most-loaded victim's last batch."""

    def test_single_thread_fifo(self):
        wl = LocalWorklists(20, 1)
        wl.push_batch(0, np.array([4, 5]))
        wl.push_batch(0, np.array([1]))
        wl.push_batch(0, np.array([9, 10]))
        assert wl.drain_order().tolist() == [4, 5, 1, 9, 10]

    def test_steal_takes_victims_last_batch(self):
        # t0 drains its single batch, then steals t1's batches from the
        # BACK while t1 keeps consuming from the front: the drain is
        # [5], [1,2] (t1 own), [4] (stolen), [3] (stolen) — not the
        # thread-order concatenation [5, 1, 2, 3, 4].
        wl = LocalWorklists(20, 2)
        wl.push_batch(0, np.array([5]))
        wl.push_batch(1, np.array([1, 2]))
        wl.push_batch(1, np.array([3]))
        wl.push_batch(1, np.array([4]))
        assert wl.drain_order().tolist() == [5, 1, 2, 4, 3]

    def test_steal_prefers_most_loaded_victim(self):
        # t1 has nothing; both t0 and t2 still hold work when t1
        # steals.  t2 carries more remaining load, so t1 must take
        # t2's last batch even though t0 has a lower id.
        wl = LocalWorklists(20, 3)
        wl.push_batch(0, np.array([0]))
        wl.push_batch(0, np.array([1]))
        wl.push_batch(2, np.array([2, 3]))
        wl.push_batch(2, np.array([4, 5]))
        assert wl.drain_order().tolist() == [0, 4, 5, 2, 3, 1]

    def test_drain_covers_everything_under_stealing(self):
        rng = np.random.default_rng(3)
        wl = LocalWorklists(500, 4)
        pushed = set()
        for t in range(4):
            for _ in range(rng.integers(0, 5)):
                batch = rng.choice(500, size=rng.integers(1, 20),
                                   replace=False)
                wl.push_batch(t, batch)
                pushed.update(batch.tolist())
        order = wl.drain_order()
        assert set(order.tolist()) == {
            int(v) for t in range(4)
            for v in wl.thread_vertices(t).tolist()}
        assert order.size == wl.total_enqueued()

    def test_drain_is_repeatable(self):
        wl = LocalWorklists(50, 3)
        wl.push_batch(0, np.array([1, 2, 3]))
        wl.push_batch(2, np.array([10, 11]))
        wl.push_batch(2, np.array([12]))
        first = wl.drain_order()
        assert np.array_equal(first, wl.drain_order())
