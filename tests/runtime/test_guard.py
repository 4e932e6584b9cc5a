"""Tests for resource-aware supervision: deadlines, budgets, leases."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import Observability
from repro.runtime import faults
from repro.runtime.cache import atomic_writer, read_envelope, write_envelope
from repro.runtime.guard import (
    LEASE_NAME,
    AdaptiveDeadlineModel,
    BudgetExceeded,
    DiskFull,
    LeaseHeld,
    ResourceGuard,
    RunLease,
    audit_lease,
    pid_alive,
)
from repro.runtime.journal import CheckpointJournal


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestAdaptiveDeadlineModel:
    def test_fallback_before_min_samples(self):
        model = AdaptiveDeadlineModel(fallback_seconds=7.0, min_samples=3)
        assert model.deadline_for("matcher") == 7.0
        model.observe("matcher", 1.0)
        model.observe("matcher", 1.0)
        assert model.deadline_for("matcher") == 7.0
        assert model.learned_deadline_for("matcher") is None

    def test_learned_deadline_is_p99_times_margin(self):
        model = AdaptiveDeadlineModel(
            margin=4.0, floor_seconds=0.0, min_samples=3
        )
        for seconds in (1.0, 2.0, 3.0):
            model.observe("matcher", seconds)
        # p99 of 3 samples is the largest one.
        assert model.deadline_for("matcher") == pytest.approx(12.0)
        assert model.learned_deadline_for("matcher") == pytest.approx(12.0)

    def test_floor_and_ceiling_clamp(self):
        model = AdaptiveDeadlineModel(
            margin=2.0, floor_seconds=5.0, ceiling_seconds=10.0, min_samples=1
        )
        model.observe("fast", 0.001)
        assert model.deadline_for("fast") == 5.0
        model.observe("slow", 1000.0)
        assert model.deadline_for("slow") == 10.0

    def test_deterministic_given_same_history(self):
        history = [0.5, 2.0, 1.5, 0.7, 3.0, 0.2]
        first = AdaptiveDeadlineModel(min_samples=1)
        second = AdaptiveDeadlineModel(min_samples=1)
        for seconds in history:
            first.observe("k", seconds)
            second.observe("k", seconds)
        assert first.deadline_for("k") == second.deadline_for("k")

    def test_history_is_bounded(self):
        model = AdaptiveDeadlineModel(max_history=10)
        for _ in range(100):
            model.observe("k", 1.0)
        assert model.samples("k") == 10

    def test_negative_durations_ignored(self):
        model = AdaptiveDeadlineModel()
        model.observe("k", -1.0)
        assert model.samples("k") == 0

    def test_snapshot(self):
        model = AdaptiveDeadlineModel(fallback_seconds=3.0)
        model.observe("k", 1.0)
        snap = model.snapshot()
        assert snap["k"]["samples"] == 1
        assert snap["k"]["deadline_seconds"] == 3.0

    def test_validation(self):
        with pytest.raises(ValueError, match="margin"):
            AdaptiveDeadlineModel(margin=0.0)
        with pytest.raises(ValueError, match="ceiling"):
            AdaptiveDeadlineModel(floor_seconds=10.0, ceiling_seconds=1.0)


class TestResourceGuard:
    def test_disabled_without_budgets(self):
        unguarded = ResourceGuard()
        assert not unguarded.enabled
        unguarded.checkpoint("u")  # no budget, no probes -> no-op

    def test_memory_pressure_sheds_at_the_first_checkpoint(self):
        clock = FakeClock()
        monitored = ResourceGuard(
            memory_budget_mb=100.0,
            min_check_interval=1.0,
            rss_fn=lambda: 500.0,
            clock=clock,
        )
        with obs.use(Observability()):
            for _ in range(2):
                clock.advance(2.0)
                with pytest.raises(BudgetExceeded, match="memory budget"):
                    monitored.checkpoint("u")
            assert obs.counter("guard.units_shed") == 2

    def test_recovered_memory_stops_shedding(self):
        rss = {"value": 500.0}
        clock = FakeClock()
        monitored = ResourceGuard(
            memory_budget_mb=100.0,
            rss_fn=lambda: rss["value"],
            clock=clock,
        )
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded):
            monitored.checkpoint("u")
        rss["value"] = 50.0
        clock.advance(2.0)
        monitored.checkpoint("u")

    def test_checks_are_rate_limited(self):
        calls = {"n": 0}

        def rss() -> float:
            calls["n"] += 1
            return 0.0

        clock = FakeClock()
        monitored = ResourceGuard(
            memory_budget_mb=100.0, min_check_interval=10.0,
            rss_fn=rss, clock=clock,
        )
        for _ in range(5):
            clock.advance(1.0)
            monitored.checkpoint("u")
        assert calls["n"] == 1

    def test_disk_pressure_sheds_at_the_first_checkpoint(self, tmp_path):
        clock = FakeClock()
        monitored = ResourceGuard(
            disk_reserve_mb=100.0,
            cache_dir=tmp_path,
            disk_free_fn=lambda path: 10.0,
            clock=clock,
        )
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded, match="disk budget"):
            monitored.checkpoint("u")

    def test_disk_preflight_only_warns(self, tmp_path):
        clock = FakeClock()
        free = {"value": 10.0}
        monitored = ResourceGuard(
            disk_reserve_mb=100.0,
            cache_dir=tmp_path,
            disk_free_fn=lambda path: free["value"],
            clock=clock,
        )
        warnings = monitored.preflight()
        assert any("below" in text for text in warnings)
        # The warning changed nothing: with space back, units run.
        free["value"] = 1000.0
        clock.advance(2.0)
        monitored.checkpoint("u")

    def test_injected_oom_is_probed_every_call(self):
        faults.arm("guard:oom", "error", times=2)
        clock = FakeClock()  # never advances: real checks never become due
        monitored = ResourceGuard(memory_budget_mb=1e6, clock=clock)
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match="injected guard:oom"):
                monitored.checkpoint("u")
        monitored.checkpoint("u")  # fault budget exhausted -> healthy again


class TestDiskFullMapping:
    def test_injected_enospc_becomes_diskfull_and_cleans_tmp(self, tmp_path):
        faults.arm("io:enospc", "error", times=1)
        target = tmp_path / "envelope.json"
        with pytest.raises(DiskFull, match="no space left"):
            write_envelope(target, {"k": 1})
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp*")) == []
        # The fault budget is spent: the retry succeeds.
        write_envelope(target, {"k": 1})
        assert read_envelope(target) == {"k": 1}

    def test_real_oserror_passthrough(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_writer(target) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.glob("*.tmp*")) == []


class TestPendingProbe:
    def test_pending_consumes_firing_decisions(self):
        faults.arm("sweep:Ds5", "hang", times=1, hang_seconds=9.0)
        first = faults.pending("sweep:Ds5")
        assert first is not None and first.hang_seconds == 9.0
        assert faults.pending("sweep:Ds5") is None

    def test_pending_ignores_data_kinds(self):
        faults.arm("cache:read", "corrupt", times=None)
        assert faults.pending("cache:read") is None

    def test_triggered_matches_pending(self):
        faults.arm("guard:oom", "error", times=1)
        assert faults.triggered("guard:oom")
        assert not faults.triggered("guard:oom")


class TestRunLease:
    def test_acquire_release_lifecycle(self, tmp_path):
        lease = RunLease(tmp_path)
        assert lease.acquire(timeout_seconds=1.0) == 0.0
        payload = json.loads((tmp_path / LEASE_NAME).read_text())
        assert payload["pid"] == os.getpid()
        lease.release()
        assert not (tmp_path / LEASE_NAME).exists()

    def test_reentrant_within_an_instance(self, tmp_path):
        lease = RunLease(tmp_path)
        lease.acquire(timeout_seconds=1.0)
        lease.acquire(timeout_seconds=1.0)
        lease.release()
        assert (tmp_path / LEASE_NAME).exists()  # still held at depth 1
        lease.release()
        assert not (tmp_path / LEASE_NAME).exists()

    def test_second_holder_times_out(self, tmp_path):
        holder = RunLease(tmp_path)
        holder.acquire(timeout_seconds=1.0)
        rival = RunLease(tmp_path, poll_seconds=0.01)
        with pytest.raises(LeaseHeld, match="held by pid"):
            rival.acquire(timeout_seconds=0.05)
        holder.release()

    def test_waiter_wins_after_release(self, tmp_path):
        holder = RunLease(tmp_path)
        holder.acquire(timeout_seconds=1.0)
        holder.release()
        rival = RunLease(tmp_path, poll_seconds=0.01)
        assert rival.acquire(timeout_seconds=1.0) == 0.0
        rival.release()

    def test_stale_lease_is_taken_over(self, tmp_path):
        (tmp_path / LEASE_NAME).write_text(
            json.dumps(
                {
                    "pid": 2 ** 22 + 1,  # beyond any default pid_max
                    "host": "ghost",
                    "token": "dead",
                    "acquired_at": 0.0,
                    "heartbeat_at": 0.0,
                }
            )
        )
        lease = RunLease(tmp_path)
        lease.acquire(timeout_seconds=1.0)
        payload = json.loads((tmp_path / LEASE_NAME).read_text())
        assert payload["token"] == lease.token
        lease.release()

    def test_silent_heartbeat_goes_stale(self, tmp_path):
        clock = FakeClock(1000.0)
        holder = RunLease(tmp_path, stale_after_seconds=5.0, clock=clock)
        holder.acquire(timeout_seconds=1.0)
        clock.advance(10.0)  # the holder stops heartbeating
        rival = RunLease(tmp_path, stale_after_seconds=5.0, clock=clock)
        rival.acquire(timeout_seconds=1.0)
        assert json.loads(
            (tmp_path / LEASE_NAME).read_text()
        )["token"] == rival.token
        rival.release()

    def test_refresh_reclaims_a_planted_stale_lease(self, tmp_path):
        faults.arm("lease:steal", "error", times=1)
        lease = RunLease(tmp_path)
        lease.acquire(timeout_seconds=1.0)
        lease.refresh()  # the probe plants a dead-owner thief; reclaim it
        payload = json.loads((tmp_path / LEASE_NAME).read_text())
        assert payload["token"] == lease.token
        lease.release()

    def test_refresh_raises_on_live_thief(self, tmp_path):
        lease = RunLease(tmp_path)
        lease.acquire(timeout_seconds=1.0)
        (tmp_path / LEASE_NAME).write_text(
            json.dumps(
                {
                    "pid": os.getpid(),  # alive, but not our token
                    "host": "rival",
                    "token": "someone-else",
                    "acquired_at": 0.0,
                    "heartbeat_at": lease._clock(),
                }
            )
        )
        with pytest.raises(LeaseHeld, match="taken over"):
            lease.refresh()

    def test_context_manager(self, tmp_path):
        with RunLease(tmp_path):
            assert (tmp_path / LEASE_NAME).exists()
        assert not (tmp_path / LEASE_NAME).exists()


class TestAuditLease:
    def test_unparseable(self, tmp_path):
        path = tmp_path / LEASE_NAME
        path.write_text("not json")
        assert audit_lease(path) == "unparseable lease file"

    def test_dead_owner(self, tmp_path):
        path = tmp_path / LEASE_NAME
        path.write_text(json.dumps({"pid": 2 ** 22 + 1, "heartbeat_at": 0.0}))
        assert "dead" in audit_lease(path)

    def test_silent_heartbeat(self, tmp_path):
        path = tmp_path / LEASE_NAME
        path.write_text(json.dumps({"pid": os.getpid(), "heartbeat_at": 0.0}))
        assert "silent" in audit_lease(path, now=1000.0)

    def test_healthy_lease(self, tmp_path):
        path = tmp_path / LEASE_NAME
        path.write_text(
            json.dumps({"pid": os.getpid(), "heartbeat_at": 999.0})
        )
        assert audit_lease(path, now=1000.0) is None


class TestDoctorLeaseRepair:
    def test_orphaned_lease_is_deleted(self, tmp_path):
        from repro.runtime.doctor import run_doctor

        path = tmp_path / LEASE_NAME
        path.write_text(json.dumps({"pid": 2 ** 22 + 1, "heartbeat_at": 0.0}))
        checked = run_doctor(tmp_path, check=True)
        (finding,) = checked.findings
        assert finding.category == "lease"
        assert finding.action == "would delete"
        assert path.exists()
        repaired = run_doctor(tmp_path)
        (finding,) = repaired.findings
        assert finding.action == "deleted"
        assert not path.exists()
        assert run_doctor(tmp_path).clean  # idempotent

    def test_healthy_lease_is_left_alone(self, tmp_path):
        from repro.runtime.doctor import run_doctor

        with RunLease(tmp_path):
            report = run_doctor(tmp_path)
            assert report.clean
            assert (tmp_path / LEASE_NAME).exists()


class TestJournalReload:
    def test_reload_sees_another_writers_entries(self, tmp_path):
        path = tmp_path / "checkpoint.journal"
        mine = CheckpointJournal(path)
        theirs = CheckpointJournal(path)
        theirs.mark_done("sweep:Ds5")
        assert not mine.is_done("sweep:Ds5")
        mine.reload()
        assert mine.is_done("sweep:Ds5")


class TestPidAlive:
    def test_own_pid(self):
        assert pid_alive(os.getpid())

    def test_nonsense_pids(self):
        assert not pid_alive(0)
        assert not pid_alive(-1)
        assert not pid_alive(2 ** 22 + 1)
