"""Tests for the kernel backend's batched atomic-min emulation."""

import numpy as np
import pytest

from repro.core.backends import get_backend

KB = get_backend()


class TestBatchAtomicMin:
    def test_matches_sequential_replay(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a1 = rng.integers(0, 50, size=30).astype(np.int64)
            a2 = a1.copy()
            idx = rng.integers(0, 30, size=100)
            val = rng.integers(0, 50, size=100).astype(np.int64)
            changed = KB.batch_atomic_min(a1, idx, val)
            seq_changed = set()
            for i, v in zip(idx, val):
                if v < a2[i]:
                    a2[i] = v
                    seq_changed.add(int(i))
            assert np.array_equal(a1, a2)
            assert set(changed.tolist()) == seq_changed

    def test_duplicate_targets_resolve_to_min(self):
        a = np.array([10], dtype=np.int64)
        changed = KB.batch_atomic_min(a, np.array([0, 0, 0]),
                                      np.array([7, 3, 5]))
        assert a[0] == 3
        assert changed.tolist() == [0]

    def test_empty_batch(self):
        a = np.array([1])
        changed = KB.batch_atomic_min(a, np.empty(0, np.int64),
                                      np.empty(0, np.int64))
        assert changed.size == 0

    def test_shape_mismatch(self):
        a = np.array([1])
        with pytest.raises(ValueError, match="equal shapes"):
            KB.batch_atomic_min(a, np.array([0]), np.array([1, 2]))

    def test_count_variant(self):
        a = np.array([9, 9, 9], dtype=np.int64)
        changed, count = KB.batch_atomic_min_count(
            a, np.array([0, 1, 1]), np.array([1, 2, 3]))
        assert count == 2
        assert set(changed.tolist()) == {0, 1}

    def test_count_includes_winning_duplicates(self):
        # Cell 0 ends at 3; attempts carrying 3 are the changed write
        # plus one duplicate that raced the same winning value.
        a = np.array([9], dtype=np.int64)
        changed, count = KB.batch_atomic_min_count(
            a, np.array([0, 0, 0]), np.array([3, 5, 3]))
        assert changed.tolist() == [0]
        assert count == 2

    def test_count_mixed_cells_and_duplicates(self):
        a = np.array([10, 10], dtype=np.int64)
        changed, count = KB.batch_atomic_min_count(
            a, np.array([0, 0, 1, 1, 1]), np.array([4, 4, 7, 9, 7]))
        assert set(changed.tolist()) == {0, 1}
        assert count == 4   # two winning attempts per cell

    def test_count_ignores_unchanged_cells(self):
        # An attempt equal to an already-minimal cell is a no-op, not
        # a winning duplicate: the cell never changed.
        a = np.array([1, 5], dtype=np.int64)
        changed, count = KB.batch_atomic_min_count(
            a, np.array([0, 1]), np.array([1, 2]))
        assert changed.tolist() == [1]
        assert count == 1

    def test_count_empty(self):
        a = np.array([2], dtype=np.int64)
        changed, count = KB.batch_atomic_min_count(
            a, np.empty(0, np.int64), np.empty(0, np.int64))
        assert changed.size == 0 and count == 0
