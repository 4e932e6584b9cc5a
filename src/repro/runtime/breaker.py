"""Circuit breakers: stop burning retries on a repeatedly failing unit.

A long sweep re-runs the same (matcher, dataset) units many times; a
unit that fails deterministically (bad checkpoint, degenerate split,
armed injected fault) would otherwise cost its full retry/backoff budget on
every encounter and poison the sweep's wall clock. A
:class:`CircuitBreaker` watches consecutive failures per unit id and,
once ``failure_threshold`` is reached, *opens*: further executions
short-circuit to a structured failure without running the unit at all.
After ``cooldown_seconds`` the breaker moves to *half-open* and lets one
trial through — success closes it, failure re-opens it.

State transitions are surfaced as :mod:`repro.obs` counters
(``breaker.open`` / ``breaker.half_open`` / ``breaker.close`` /
``breaker.short_circuit``) so a sweep's report shows exactly how much
work the breakers saved. Breaker state lives in the process that runs
the sweep.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro import obs

#: The three breaker states, in the order they cycle.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"


class CircuitBreaker:
    """Per-unit failure gate: closed -> open -> half-open -> closed."""

    def __init__(
        self,
        key: str,
        *,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise ValueError(
                f"cooldown_seconds must be >= 0, got {cooldown_seconds}"
            )
        self.key = key
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self.times_opened = 0
        self.short_circuits = 0

    def allow(self) -> bool:
        """May the unit run now? Open breakers admit one half-open trial."""
        if self.state == OPEN:
            assert self.opened_at is not None
            if self.clock() - self.opened_at >= self.cooldown_seconds:
                self.state = HALF_OPEN
                obs.inc("breaker.half_open")
                return True
            self.short_circuits += 1
            obs.inc("breaker.short_circuit")
            return False
        return True

    def record_success(self) -> None:
        if self.state != CLOSED:
            obs.inc("breaker.close")
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (
            self.state == HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != OPEN:
                self.times_opened += 1
                obs.inc("breaker.open")
            self.state = OPEN
            self.opened_at = self.clock()

    def to_dict(self) -> dict[str, object]:
        return {
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "times_opened": self.times_opened,
            "short_circuits": self.short_circuits,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.key!r}, state={self.state!r}, "
            f"failures={self.consecutive_failures})"
        )


class BreakerRegistry:
    """Lazily-created breakers keyed by unit id, with shared settings."""

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self.clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker_for(self, key: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(key)
            if breaker is None:
                breaker = CircuitBreaker(
                    key,
                    failure_threshold=self.failure_threshold,
                    cooldown_seconds=self.cooldown_seconds,
                    clock=self.clock,
                )
                self._breakers[key] = breaker
            return breaker

    def open_keys(self) -> list[str]:
        """Unit ids whose breakers are currently open (sorted)."""
        with self._lock:
            return sorted(
                key
                for key, breaker in self._breakers.items()
                if breaker.state == OPEN
            )

    def snapshot(self) -> dict[str, dict[str, object]]:
        """JSON-ready per-unit breaker state (reports, snapshots)."""
        with self._lock:
            return {
                key: self._breakers[key].to_dict()
                for key in sorted(self._breakers)
            }

    def __len__(self) -> int:
        return len(self._breakers)
