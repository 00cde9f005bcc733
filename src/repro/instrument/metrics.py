"""Service-facing metrics primitives.

The serving layer (:mod:`repro.service`) reports per-method
simulated-latency distributions.  Latencies in this repo are modelled
milliseconds spanning ~six orders of magnitude (microsecond cache
hits to multi-second SV runs on road graphs), so the histogram uses
fixed log2-spaced buckets: cheap to update, mergeable, and quantiles
are read straight off the cumulative counts with bucket-granular
resolution — the same trade Prometheus-style histograms make.
"""

from __future__ import annotations

import math

__all__ = ["LatencyHistogram"]

# First bucket covers (0, 1e-3] ms; each subsequent bucket doubles the
# upper bound.  40 doublings reach ~5.5e8 ms — far beyond any simulated
# run — and an overflow bucket catches the rest.
_FIRST_UPPER_MS = 1e-3
_NUM_BUCKETS = 40


class LatencyHistogram:
    """Log2-bucketed histogram of simulated latencies in milliseconds."""

    __slots__ = ("counts", "count", "total_ms", "min_ms", "max_ms")

    def __init__(self) -> None:
        self.counts: list[int] = [0] * (_NUM_BUCKETS + 1)
        self.count = 0
        self.total_ms = 0.0
        self.min_ms = math.inf
        self.max_ms = 0.0

    @staticmethod
    def _bucket(ms: float) -> int:
        if ms <= _FIRST_UPPER_MS:
            return 0
        idx = int(math.ceil(math.log2(ms / _FIRST_UPPER_MS)))
        return min(idx, _NUM_BUCKETS)

    @staticmethod
    def _upper_bound(index: int) -> float:
        if index >= _NUM_BUCKETS:
            return math.inf
        return _FIRST_UPPER_MS * (2.0 ** index)

    def observe(self, ms: float) -> None:
        """Record one latency observation (milliseconds, >= 0)."""
        if ms < 0:
            raise ValueError(f"latency must be >= 0, got {ms}")
        self.counts[self._bucket(ms)] += 1
        self.count += 1
        self.total_ms += ms
        self.min_ms = min(self.min_ms, ms)
        self.max_ms = max(self.max_ms, ms)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total_ms += other.total_ms
        self.min_ms = min(self.min_ms, other.min_ms)
        self.max_ms = max(self.max_ms, other.max_ms)

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile (0 < q <= 1).

        Bucket-granular: exact to within a factor of 2, which is all a
        log-scale latency distribution needs.  The top bucket reports
        the true observed maximum rather than infinity.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                return min(self._upper_bound(i), self.max_ms)
        return self.max_ms

    def summary(self) -> dict[str, float]:
        """Scalar summary for reports: count, mean, p50/p90/p99, extremes."""
        if self.count == 0:
            return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0,
                    "p90_ms": 0.0, "p99_ms": 0.0,
                    "min_ms": 0.0, "max_ms": 0.0}
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.quantile(0.50),
            "p90_ms": self.quantile(0.90),
            "p99_ms": self.quantile(0.99),
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
        }

    def nonzero_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound_ms, count) for every occupied bucket, ascending."""
        return [(self._upper_bound(i), c)
                for i, c in enumerate(self.counts) if c]

    def __repr__(self) -> str:
        return (f"LatencyHistogram(count={self.count}, "
                f"mean={self.mean_ms:.3g}ms, max={self.max_ms:.3g}ms)")
