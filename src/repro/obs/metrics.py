"""Counters, gauges, and histograms for the observability layer.

The registry is deliberately small: metrics are named, created on first
use, and snapshot to plain JSON-able dicts.  Histograms are *log-linear
bucketed*: each positive observation lands in one of 16 linear
sub-buckets per power of two, so memory stays bounded (one int per
non-empty bucket), percentiles come straight from the bucket counts
with a worst-case relative error of 1/32, and — the property the
experiment service is built on — two histograms **merge exactly**:
merging worker snapshots bucket-by-bucket gives byte-identical counts
to observing the same stream in one process.  No live randomness, no
reservoir: two identical runs produce identical snapshots.
"""

from __future__ import annotations

import math

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Linear subdivisions per power of two.  16 sub-buckets bound the
#: relative quantile error at 1/(2*16) ≈ 3%.
SUBBUCKETS = 16


class Counter:
    """A monotonically increasing metric: a count, or seconds summed."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins numeric metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A log-linear bucketed distribution with exact merge.

    Exact count/sum/min/max, plus a sparse ``{bucket_index: count}``
    map for positive observations (non-positive ones count in
    ``zeros``).  Bucket ``i`` covers ``[2^e * (1 + s/16),
    2^e * (1 + (s+1)/16))`` where ``e, s = divmod(i, 16)`` — the same
    deterministic boundaries in every process, which is what makes
    :meth:`merge_summary` exact across workers and restarts.
    """

    __slots__ = ("name", "count", "total", "min", "max", "zeros", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.zeros = 0                      # observations <= 0
        self.buckets: dict[int, int] = {}   # bucket index -> count

    # -- bucket geometry ---------------------------------------------------

    @staticmethod
    def bucket_index(value: float) -> int:
        """The bucket a positive value falls in."""
        mantissa, exponent = math.frexp(value)   # value = m * 2^e, m in [.5,1)
        mantissa, exponent = mantissa * 2.0, exponent - 1
        sub = min(SUBBUCKETS - 1, int((mantissa - 1.0) * SUBBUCKETS))
        return exponent * SUBBUCKETS + sub

    @staticmethod
    def bucket_bounds(index: int) -> tuple[float, float]:
        """``[low, high)`` boundaries of one bucket."""
        exponent, sub = divmod(index, SUBBUCKETS)
        base = math.ldexp(1.0, exponent)
        width = base / SUBBUCKETS
        return base + sub * width, base + (sub + 1) * width

    # -- observation -------------------------------------------------------

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0.0:
            index = self.bucket_index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        else:
            self.zeros += 1

    def percentile(self, q: float) -> float | None:
        """The q-th percentile (0..100) read off the buckets.

        Each bucket answers with its midpoint, clamped into the
        observed [min, max] so single-observation and extreme quantiles
        stay inside the data.
        """
        if self.count == 0:
            return None
        bucketed = self.zeros + sum(self.buckets.values())
        if bucketed == 0:
            return self.total / self.count
        target = q / 100.0 * (bucketed - 1)
        if target < self.zeros:
            # Non-positive observations: min when it is one of them.
            if self.min is not None and self.min <= 0.0:
                return self.min
            return 0.0
        seen = self.zeros
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if target < seen:
                low, high = self.bucket_bounds(index)
                mid = (low + high) / 2.0
                if self.min is not None:
                    mid = max(mid, self.min)
                if self.max is not None:
                    mid = min(mid, self.max)
                return mid
        return self.max

    def summary(self) -> dict:
        """JSON-able snapshot: exact moments + buckets + percentiles."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": (self.total / self.count) if self.count else None,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "zeros": self.zeros,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
        }

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's snapshot into this one.

        Exact moments (count/sum/min/max) merge exactly, and so do the
        buckets — the merged histogram is indistinguishable from
        single-process observation.
        """
        count = int(summary.get("count") or 0)
        if count == 0:
            return
        self.count += count
        self.total += float(summary.get("sum") or 0.0)
        for bound, better in (("min", min), ("max", max)):
            value = summary.get(bound)
            if value is not None:
                own = getattr(self, bound)
                setattr(
                    self, bound,
                    float(value) if own is None else better(own, float(value)),
                )
        for key, n in (summary.get("buckets") or {}).items():
            index = int(key)
            self.buckets[index] = self.buckets.get(index, 0) + int(n)
        self.zeros += int(summary.get("zeros") or 0)


class MetricsRegistry:
    """Named metrics, created on first use."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = Histogram(name)
        return metric

    def counter_values(self) -> dict[str, int]:
        """Current counter values as a plain dict."""
        return {name: c.value for name, c in sorted(self.counters.items())}

    def to_dict(self) -> dict:
        """Full JSON-able snapshot of every metric."""
        return {
            "counters": self.counter_values(),
            "gauges": {
                name: g.value for name, g in sorted(self.gauges.items())
            },
            "histograms": {
                name: h.summary()
                for name, h in sorted(self.histograms.items())
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`to_dict` snapshot into this one.

        Counters add, gauges last-write-win, histograms merge their
        buckets exactly.
        This is how worker-process metrics are folded into the
        run-level registry and how the daemon's registry aggregates
        across worker threads and restarts.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            self.counter(name).inc(int(value))
        for name, value in (snapshot.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, summary in (snapshot.get("histograms") or {}).items():
            self.histogram(name).merge_summary(summary)
