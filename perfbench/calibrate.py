"""A fixed reference loop that measures how fast the machine is now.

On a shared host the same solve can take 1x or 2x as long from one
minute to the next, and every timing in a run moves with that speed.
The calibrator times a small fixed computation of its own between the
operations of a pass.  It uses no code of this repository, so a change
to the program never changes it.  Dividing an operation's wall time by
the median calibrator time measured around it cancels most of the
drift; the quotient is reported in calibrator units (``cal``).

Two kernels mimic the two cost profiles the workloads have:

* ``blocks`` - a label propagation over vertex blocks, each a few NumPy
  gathers and compares driven from a Python loop, like the engine's
  per-iteration bookkeeping (the solve workloads);
* ``sort`` - a stable argsort and bincount of a 256k-entry edge list,
  like the CSR rebuild behind every write (the serving workload).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Calibrator samples taken at each interleaving point.
SAMPLES = 3

KERNELS = ("blocks", "sort")


class Calibrator:
    """One of :data:`KERNELS` on fixed seeded inputs."""

    def __init__(self, kernel: str) -> None:
        if kernel not in KERNELS:
            raise ValueError(f"unknown calibrator kernel {kernel!r}")
        rng = np.random.default_rng(12345)
        vertices = 8192
        self.neighbours = np.sort(
            rng.integers(0, vertices, (vertices, 4)), axis=1)
        self.edges = rng.integers(0, vertices, 1 << 18)
        self._run = self._blocks if kernel == "blocks" else self._sort

    def _blocks(self) -> None:
        n = self.neighbours.shape[0]
        labels = np.arange(n)
        for _ in range(6):
            for lo in range(0, n, 64):
                mins = labels[self.neighbours[lo:lo + 64]].min(axis=1)
                cur = labels[lo:lo + 64]
                changed = mins < cur
                if changed.any():
                    cur[changed] = mins[changed]

    def _sort(self) -> None:
        order = np.argsort(self.edges, kind="stable")
        np.bincount(self.edges[order], minlength=self.neighbours.shape[0])

    def sample(self) -> float:
        """Wall seconds of one run of the kernel."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def measure(self, into: list) -> None:
        """Append :data:`SAMPLES` fresh samples to ``into``."""
        into.extend(self.sample() for _ in range(SAMPLES))


def unit_seconds(samples: list) -> float:
    """Median calibrator time: the length of one ``cal`` unit."""
    return statistics.median(samples)
