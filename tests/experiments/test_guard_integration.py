"""Supervision acceptance: budgets, run leases and adaptive deadlines.

The guard layer's end-to-end contracts, driven through the real runner:
two concurrent runners (threads or processes) on one cache directory
never interleave (the loser either waits and reuses the winner's
results, or fails cleanly with a ``LeaseHeld`` record); injected memory
pressure sheds units as ``BudgetExceeded`` failures without changing the
score of any unit it did not shed.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.snapshot import (
    count_unexplained_degradations,
    sweep_state,
)
from repro.runtime import faults
from repro.runtime.guard import LEASE_NAME, RunLease
from repro.runtime.journal import CheckpointJournal

SCALE = 0.3
DATASET = "Ds5"


@pytest.fixture(autouse=True)
def clean_state():
    faults.reset()
    yield
    faults.reset()


def make_runner(cache_dir=None, **overrides) -> ExperimentRunner:
    return ExperimentRunner(
        config=RunnerConfig(
            scale=SCALE, seed=0, cache_dir=cache_dir, **overrides
        )
    )


def scores(results) -> dict[str, tuple[float, float, float, bool]]:
    return {
        name: (r.precision, r.recall, r.f1, r.degraded)
        for name, r in results.items()
    }


@pytest.mark.fault_smoke
class TestBudgetDegradation:
    def test_injected_oom_degrades_without_changing_scores(self):
        # A shed unit is a degraded cell with a BudgetExceeded record;
        # every cell that ran keeps the unguarded run's exact score.
        reference = scores(make_runner().matcher_results(DATASET))
        # Seeded pressure on a fifth of the checkpoints: seed 0 spares
        # the sweep's own checkpoint and hits two matcher checkpoints.
        faults.arm(
            "guard:oom", "error", times=None, probability=0.2, seed=0
        )
        guarded = make_runner(memory_budget_mb=1_000_000.0)
        observed = scores(guarded.matcher_results(DATASET))
        faults.reset()
        failures = guarded.failure_records()
        assert failures
        assert {f.exception_type for f in failures} == {"BudgetExceeded"}
        shed = {f.unit_id.split("/", 1)[1] for f in failures}
        assert set(observed) == set(reference)
        assert {name for name, cell in observed.items() if cell[3]} == shed
        assert len(shed) == 2
        for name, cell in observed.items():
            if name not in shed:
                assert cell == reference[name]
        state = sweep_state(guarded, (DATASET,))
        assert count_unexplained_degradations(state, failures) == 0


class TestConcurrentRunners:
    def test_loser_waits_and_reuses_the_winners_results(self, tmp_path):
        winner = make_runner(tmp_path)
        loser = make_runner(tmp_path, lease_timeout_seconds=600.0)
        outcome: dict[str, object] = {}

        def compute_first():
            outcome["winner"] = winner.matcher_results(DATASET)

        thread = threading.Thread(target=compute_first)
        thread.start()
        # Enter the contended window: the winner holds the lease.
        deadline = time.monotonic() + 60.0
        while not (tmp_path / LEASE_NAME).exists():
            if time.monotonic() > deadline:  # pragma: no cover
                pytest.fail("winner never took the lease")
            time.sleep(0.01)
        observed = loser.matcher_results(DATASET)
        thread.join()
        assert scores(observed) == scores(outcome["winner"])
        assert loser.failure_records() == []
        assert winner.failure_records() == []
        # The journal never interleaved: compaction finds nothing to shed.
        journal = CheckpointJournal(tmp_path / "checkpoint.journal")
        assert journal.torn_lines == 0
        assert journal.duplicate_lines == 0
        assert journal.is_done(f"sweep:{DATASET}")

    def test_loser_fails_cleanly_when_not_waiting(self, tmp_path):
        with RunLease(tmp_path):  # a foreign live holder
            loser = make_runner(tmp_path, lease_timeout_seconds=0.0)
            results = loser.matcher_results(DATASET)
        assert results == {}
        (record,) = loser.failure_records()
        assert record.exception_type == "LeaseHeld"
        assert record.phase == "lease"
        assert not (tmp_path / "checkpoint.journal").exists()

    def test_lease_released_after_the_run(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.matcher_results(DATASET)
        assert not (tmp_path / LEASE_NAME).exists()

    def test_two_processes_sharing_one_cache_dir(self, tmp_path):
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        procs = [
            context.Process(target=_sweep_into_queue, args=(str(tmp_path), queue))
            for _ in range(2)
        ]
        for proc in procs:
            proc.start()
        first, second = queue.get(timeout=120), queue.get(timeout=120)
        for proc in procs:
            proc.join(timeout=120)
            assert proc.exitcode == 0

        # Both writers saw identical results and left a valid cache:
        # no quarantined envelopes, and a fresh runner gets a clean hit.
        assert first == second
        assert not list(tmp_path.glob("*.quarantined"))
        reader = make_runner(tmp_path)
        assert scores(reader.matcher_results(DATASET)) == first
        assert reader.failure_records() == []


def _sweep_into_queue(cache_dir: str, queue) -> None:
    queue.put(scores(make_runner(cache_dir).matcher_results(DATASET)))


class TestAdaptiveDeadlines:
    def test_healthy_sequential_run_is_never_deadlined(self):
        runner = make_runner(adaptive_deadlines=True)
        results = runner.matcher_results(DATASET)
        assert runner.failure_records() == []
        assert all(not cell.degraded for cell in results.values())
        assert runner.deadlines is not None
        assert runner.deadlines.samples("matcher") == len(results)
        assert runner.deadlines.samples("sweep") == 1

    def test_matches_unsupervised_scores(self):
        reference = scores(make_runner().matcher_results(DATASET))
        supervised = scores(
            make_runner(adaptive_deadlines=True).matcher_results(DATASET)
        )
        assert supervised == reference
