"""Metrics registry: counters, gauges and histogram timers.

The registry is the quantitative half of :mod:`repro.obs` — spans say
*where* a run spent its time, metrics say *how much of what happened*:
cache hits and misses, journal skips, policy retries, injected faults,
serving latencies, blocking throughput. Everything is
stdlib-only and cheap enough to stay on in production runs.

Three instrument kinds:

* **counter** — monotonically increasing float/int (``inc``);
* **gauge** — last-write-wins value (``gauge``);
* **timer** — a :class:`LatencyHistogram` of observed durations:
  count, total, min, max and p50/p90/p99 (``observe`` / ``time``).

``snapshot()`` returns a plain, JSON-ready dict with sorted keys, so two
runs that did the same work produce byte-identical snapshots (timer
*totals* aside — wall clock is never deterministic).
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Iterator

#: The exact top-level keys of a metrics snapshot dict.  The unified
#: :func:`repro.experiments.report.render` dispatcher uses this to tell a
#: metrics snapshot apart from a figure series (both are dicts of dicts).
SNAPSHOT_KEYS = ("counters", "gauges", "timers")


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and timers.

    All mutators are no-ops while ``enabled`` is ``False``, so a disabled
    registry costs one attribute check per call — the overhead budget of
    DESIGN.md §8 depends on that.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._timers: dict[str, LatencyHistogram] = {}

    # -- instruments -------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` (default 1) to the counter ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration in the timer histogram ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._timers.setdefault(name, LatencyHistogram()).observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the timer ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - start)

    # -- accessors ---------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready dict of every instrument, keys sorted (see module doc)."""
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name] for name in sorted(self._counters)
                },
                "gauges": {
                    name: round(self._gauges[name], 6)
                    for name in sorted(self._gauges)
                },
                "timers": {
                    name: self._timers[name].to_dict()
                    for name in sorted(self._timers)
                },
            }


class LatencyHistogram:
    """Log-bucketed latency histogram with p50/p99 quantile estimates.

    Keeps the exact count/total/min/max of its observations and buckets
    them on a geometric grid from ``lowest`` seconds (everything below
    lands in bucket 0) with ``growth`` spacing, so a few hundred ints
    cover nanoseconds to minutes at ≤5% relative error per bucket.
    A quantile is the midpoint of the bucket it falls in, clamped to
    the observed range. Every registry
    timer is one; serving loops also keep one per phase (block /
    extract / predict). ``to_dict`` is JSON-ready and deterministic for
    a fixed observation multiset.
    """

    __slots__ = (
        "lowest", "growth", "_counts", "count", "total", "minimum", "maximum"
    )

    def __init__(self, lowest: float = 1e-6, growth: float = 1.1) -> None:
        if lowest <= 0:
            raise ValueError(f"lowest must be > 0, got {lowest}")
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.lowest = lowest
        self.growth = growth
        self._counts: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = 0.0

    def __len__(self) -> int:
        return self.count

    def _bucket(self, seconds: float) -> int:
        if seconds <= self.lowest:
            return 0
        return 1 + int(math.log(seconds / self.lowest) / math.log(self.growth))

    def _edge(self, bucket: int) -> float:
        return self.lowest * self.growth**bucket

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        self.minimum = min(self.minimum, seconds)
        self.maximum = max(self.maximum, seconds)
        bucket = self._bucket(seconds)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    def quantile(self, fraction: float) -> float:
        """The estimated ``fraction`` quantile in seconds (0 when empty)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        count = self.count
        if count == 0:
            return 0.0
        rank = fraction * (count - 1)
        seen = 0
        for bucket in sorted(self._counts):
            seen += self._counts[bucket]
            if seen > rank:
                # The bucket's midpoint, clamped to the observed range.
                low = self._edge(bucket - 1) if bucket else 0.0
                high = self._edge(bucket)
                estimate = (low + high) / 2.0
                return min(max(estimate, self.minimum), self.maximum)
        return self.maximum

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def to_dict(self) -> dict[str, float]:
        """JSON-ready summary: count/mean/min/max plus p50/p90/p99."""
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": round(self.minimum, 6) if self.count else 0.0,
            "max": round(self.maximum, 6),
            "p50": round(self.quantile(0.50), 6),
            "p90": round(self.quantile(0.90), 6),
            "p99": round(self.quantile(0.99), 6),
        }


def is_metrics_snapshot(artifact: object) -> bool:
    """True when ``artifact`` looks like a :meth:`MetricsRegistry.snapshot`."""
    return (
        isinstance(artifact, dict)
        and set(artifact) == set(SNAPSHOT_KEYS)
        and all(isinstance(artifact[key], dict) for key in SNAPSHOT_KEYS)
    )
