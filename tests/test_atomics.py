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
