"""Tests for circuit breakers and their ExecutionPolicy integration."""

from __future__ import annotations

import pytest

from repro.runtime import BreakerRegistry, CircuitBreaker, ExecutionPolicy
from repro.runtime.breaker import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker("u")
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_at_threshold(self):
        breaker = CircuitBreaker("u", failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.times_opened == 1

    def test_open_short_circuits_until_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "u", failure_threshold=1, cooldown_seconds=10.0, clock=clock
        )
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.short_circuits == 1
        clock.now = 9.9
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()  # the half-open trial
        assert breaker.state == HALF_OPEN

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "u", failure_threshold=1, cooldown_seconds=1.0, clock=clock
        )
        breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens_immediately(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "u", failure_threshold=5, cooldown_seconds=1.0, clock=clock
        )
        for _ in range(5):
            breaker.record_failure()
        clock.now = 2.0
        assert breaker.allow()
        breaker.record_failure()  # one failure suffices in half-open
        assert breaker.state == OPEN
        assert breaker.times_opened == 2

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker("u", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker("u", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("u", cooldown_seconds=-1.0)


class TestBreakerRegistry:
    def test_same_key_same_breaker(self):
        registry = BreakerRegistry()
        assert registry.breaker_for("a") is registry.breaker_for("a")
        assert registry.breaker_for("a") is not registry.breaker_for("b")
        assert len(registry) == 2

    def test_open_keys_sorted(self):
        registry = BreakerRegistry(failure_threshold=1)
        registry.breaker_for("z").record_failure()
        registry.breaker_for("a").record_failure()
        registry.breaker_for("m").record_success()
        assert registry.open_keys() == ["a", "z"]

    def test_snapshot_is_json_ready(self):
        registry = BreakerRegistry(failure_threshold=1)
        registry.breaker_for("a").record_failure()
        snap = registry.snapshot()
        assert snap["a"]["state"] == OPEN
        assert snap["a"]["times_opened"] == 1


class TestPolicyIntegration:
    def _policy(self, clock, *, threshold=2, max_attempts=1):
        return ExecutionPolicy(
            max_attempts=max_attempts,
            backoff_base=0.0,
            retry_on=(ValueError,),
            breakers=BreakerRegistry(
                failure_threshold=threshold,
                cooldown_seconds=1000.0,
                clock=clock,
            ),
        )

    def test_short_circuits_after_threshold(self):
        calls: list[int] = []

        def fail() -> None:
            calls.append(1)
            raise ValueError("nope")

        policy = self._policy(FakeClock())
        for _ in range(2):
            outcome = policy.execute(fail, unit_id="u", phase="matcher")
            assert outcome.failure.exception_type == "ValueError"
        outcome = policy.execute(fail, unit_id="u", phase="matcher")
        assert outcome.failure.exception_type == "CircuitOpen"
        assert outcome.failure.attempts == 0
        assert len(calls) == 2  # the short-circuited call never ran

    def test_open_breaker_stops_remaining_retries(self):
        calls: list[int] = []

        def fail() -> None:
            calls.append(1)
            raise ValueError("nope")

        policy = self._policy(FakeClock(), threshold=2, max_attempts=5)
        outcome = policy.execute(fail, unit_id="u", phase="matcher")
        # The breaker opened on the second consecutive failure, so the
        # policy stopped there instead of burning all five attempts.
        assert outcome.failure.attempts == 2
        assert len(calls) == 2

    def test_units_have_independent_breakers(self):
        def fail() -> None:
            raise ValueError("nope")

        policy = self._policy(FakeClock(), threshold=1)
        policy.execute(fail, unit_id="a", phase="matcher")
        outcome = policy.execute(lambda: 42, unit_id="b", phase="matcher")
        assert outcome.ok and outcome.value == 42

    def test_half_open_trial_recovers(self):
        clock = FakeClock()
        policy = self._policy(clock, threshold=1)

        def fail() -> None:
            raise ValueError("nope")

        policy.execute(fail, unit_id="u", phase="matcher")
        assert policy.execute(fail, unit_id="u", phase="matcher").failure.exception_type == "CircuitOpen"
        clock.now = 2000.0
        outcome = policy.execute(lambda: "ok", unit_id="u", phase="matcher")
        assert outcome.ok
        assert policy.breakers.breaker_for("u").state == CLOSED

    def test_policy_without_breakers_unchanged(self):
        policy = ExecutionPolicy(
            max_attempts=1, backoff_base=0.0, retry_on=(ValueError,)
        )
        assert policy.breakers is None
        outcome = policy.execute(lambda: 1, unit_id="u", phase="matcher")
        assert outcome.ok
