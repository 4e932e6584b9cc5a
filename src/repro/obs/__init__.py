"""Zero-dependency observability: trace spans and metrics.

The paper's verdicts hinge on a handful of expensive matcher sweeps;
this package makes a regeneration *legible* — where the wall-clock goes,
layer by layer (:mod:`~repro.obs.spans`; ``repro trace --last`` rolls
a run up into self seconds per span name), and how much of what
happened (:mod:`~repro.obs.metrics`) — without adding a dependency or
measurable overhead (DESIGN.md §8 budgets ≤2%, enforced by
``benchmarks/bench_overhead.py``).

One :class:`Observability` instance bundles a trace collector and a
metrics registry. A process-wide instance is active by
default, mirroring how :mod:`repro.runtime.faults` works: low-level code
(cache readers, execution policies, matchers, blockers) calls the
module-level helpers —

    from repro import obs

    obs.inc("cache.hit")
    with obs.span("sweep", dataset="Ds4") as sweep_span:
        ...
    obs.observe("kernel.seconds", dt)

— and everything lands in the active instance. Tests and embedders swap
in their own via :func:`activate` (restore the previous one afterwards).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator
from uuid import uuid4

from repro.obs.metrics import (
    SNAPSHOT_KEYS,
    LatencyHistogram,
    MetricsRegistry,
    is_metrics_snapshot,
)
from repro.obs.spans import STATUSES, Span, TraceCollector, read_trace, self_times

__all__ = [
    "STATUSES",
    "SNAPSHOT_KEYS",
    "LatencyHistogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TraceCollector",
    "activate",
    "active",
    "annotate",
    "counter",
    "gauge",
    "inc",
    "is_metrics_snapshot",
    "new_run_id",
    "observe",
    "read_trace",
    "self_times",
    "snapshot",
    "span",
    "timed",
]

#: File name of the append-only trace inside a cache directory.
TRACE_FILE_NAME = "trace.jsonl"


def new_run_id() -> str:
    """A fresh opaque run id for tagging trace-file lines."""
    return uuid4().hex[:12]


class Observability:
    """One coherent observability surface: spans + metrics."""

    def __init__(self, enabled: bool = True) -> None:
        self.trace = TraceCollector(enabled=enabled)
        self.metrics = MetricsRegistry(enabled=enabled)

    # -- enablement --------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.trace.enabled

    def enable(self) -> None:
        self.trace.enabled = True
        self.metrics.enabled = True

    def disable(self) -> None:
        self.trace.enabled = False
        self.metrics.enabled = False

    # -- span / metric shorthands -----------------------------------------

    def span(self, name: str, **attributes: Any):
        return self.trace.span(name, **attributes)

    def annotate(self, **attributes: Any) -> bool:
        return self.trace.annotate(**attributes)

    def inc(self, name: str, value: float = 1.0) -> None:
        self.metrics.inc(name, value)

    def gauge(self, name: str, value: float) -> None:
        self.metrics.gauge(name, value)

    def observe(self, name: str, seconds: float) -> None:
        self.metrics.observe(name, seconds)

    def timed(self, name: str):
        return self.metrics.time(name)

    def snapshot(self) -> dict[str, dict]:
        return self.metrics.snapshot()


_ACTIVE = Observability()


def active() -> Observability:
    """The process-wide instance every module-level helper routes to."""
    return _ACTIVE


def activate(observability: Observability) -> Observability:
    """Install ``observability`` as the active instance; returns the old one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = observability
    return previous


@contextmanager
def use(observability: Observability) -> Iterator[Observability]:
    """Activate an instance for a ``with`` block, then restore the old one."""
    previous = activate(observability)
    try:
        yield observability
    finally:
        activate(previous)


# -- module-level helpers (the API low-level code calls) -------------------


def span(name: str, **attributes: Any):
    """Open a span on the active instance (context manager)."""
    return _ACTIVE.span(name, **attributes)


def annotate(**attributes: Any) -> bool:
    """Stamp attributes onto the innermost open span of the active instance."""
    return _ACTIVE.annotate(**attributes)


def inc(name: str, value: float = 1.0) -> None:
    _ACTIVE.inc(name, value)


def gauge(name: str, value: float) -> None:
    _ACTIVE.gauge(name, value)


def observe(name: str, seconds: float) -> None:
    _ACTIVE.observe(name, seconds)


def timed(name: str):
    """Time a ``with`` block into the active registry's timer ``name``."""
    return _ACTIVE.timed(name)


def snapshot() -> dict[str, dict]:
    return _ACTIVE.snapshot()


def counter(name: str) -> float:
    """Current value of a counter on the active instance (0 if never hit)."""
    return _ACTIVE.metrics.counter(name)
