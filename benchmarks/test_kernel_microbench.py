"""Microbenchmarks of the vectorized kernels (library performance).

Unlike the paper-artifact benchmarks these measure the *actual* Python
wall-clock of the hot kernels — the numbers a downstream user of the
library cares about.  No shape assertions beyond sanity: the value is
the pytest-benchmark tracking across changes.
"""

import numpy as np
import pytest

from repro.core.backends import get_backend
from repro.graph.generators import rmat_graph

KB = get_backend()


@pytest.fixture(scope="module")
def bench_graph():
    return rmat_graph(15, 16, seed=1)


@pytest.fixture(scope="module")
def bench_labels(bench_graph):
    rng = np.random.default_rng(2)
    labels = rng.integers(0, bench_graph.num_vertices,
                          size=bench_graph.num_vertices
                          ).astype(np.int64)
    labels[labels % 17 == 0] = 0     # some zeros for the zero-cut path
    return labels


def test_perf_pull_block(benchmark, bench_graph, bench_labels):
    n = bench_graph.num_vertices
    result = benchmark(KB.pull_block, bench_graph, bench_labels, 0, n)
    assert result[0].size == n


def test_perf_zero_cut(benchmark, bench_graph, bench_labels):
    n = bench_graph.num_vertices
    _, _, scanned = benchmark(KB.pull_block_zero_cut, bench_graph,
                              bench_labels, 0, n)
    assert scanned.size == n
    assert scanned.sum() <= bench_graph.num_edges


def test_perf_concat_adjacency(benchmark, bench_graph):
    rng = np.random.default_rng(3)
    rows = np.sort(rng.choice(bench_graph.num_vertices, size=5000,
                              replace=False)).astype(np.int64)
    targets, counts = benchmark(KB.concat_adjacency, bench_graph, rows)
    assert int(counts.sum()) == targets.size


def test_perf_batch_atomic_min(benchmark, bench_graph):
    rng = np.random.default_rng(4)
    n = bench_graph.num_vertices
    idx = rng.integers(0, n, size=200_000)
    val = rng.integers(0, n, size=200_000).astype(np.int64)

    def run():
        arr = np.full(n, n, dtype=np.int64)
        return get_backend().batch_atomic_min(arr, idx, val)

    changed = benchmark(run)
    assert changed.size > 0


def test_perf_thrifty_end_to_end(benchmark, bench_graph):
    from repro.core import thrifty_cc

    result = benchmark.pedantic(
        lambda: thrifty_cc(bench_graph, track_convergence=False),
        rounds=3, iterations=1)
    assert result.num_components >= 1
