"""Integration tests for graceful degradation and checkpoint resume.

The acceptance scenario of the fault-tolerant execution layer: a suite
run with a matcher forced to fail and a pre-corrupted cache entry must
complete end-to-end, render explicitly marked degraded cells, list every
:class:`FailureRecord` in the report, and a killed-then-restarted run
must resume from the checkpoint journal without recomputing completed
units. Tests marked ``fault_smoke`` form the fast smoke set that
``scripts/verify.sh`` runs.
"""

from __future__ import annotations

import pytest

import repro.experiments.snapshot as snapshot_module
from repro.experiments.cli import main
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.tables import DEGRADED_CELL, _f1_table
from repro.experiments.report import render
from repro.runtime import FailureRecord, faults
from repro.runtime.state import RUNNER_STATE

SCALE = 0.3
DATASET = "Ds5"
DATASETS = ("Ds5", "Ds7")
FAILING_MATCHER = "DITTO (15)"


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def make_runner(cache_dir) -> ExperimentRunner:
    return ExperimentRunner(
        RunnerConfig(scale=SCALE, seed=0, cache_dir=cache_dir)
    )


def scores(results) -> dict[str, tuple[float, float, float, bool]]:
    """The deterministic slice of a sweep (timings vary run to run)."""
    return {
        name: (r.precision, r.recall, r.f1, r.degraded)
        for name, r in results.items()
    }


@pytest.mark.fault_smoke
class TestMatcherFaultDegradation:
    def test_suite_completes_with_marked_cell_and_failure_record(self, tmp_path):
        runner = make_runner(tmp_path)
        with faults.injected(f"matcher:{FAILING_MATCHER}"):
            results = runner.matcher_results(DATASET)

        # The sweep completed: every matcher has a result, exactly one
        # of them the degraded placeholder.
        assert len(results) > 20
        assert results[FAILING_MATCHER].degraded
        assert results[FAILING_MATCHER].f1 == 0.0
        healthy = [r for r in results.values() if not r.degraded]
        assert len(healthy) == len(results) - 1

        # The table renders the degraded cell explicitly.
        headers, rows = _f1_table(runner, (DATASET,))
        rendered = render((headers, rows))
        failing_row = next(r for r in rows if r[0] == FAILING_MATCHER)
        assert failing_row[2] == DEGRADED_CELL
        assert DEGRADED_CELL in rendered

        # The failure surfaces as a structured record in the report.
        failures = runner.failure_records()
        assert [f.unit_id for f in failures] == [f"{DATASET}/{FAILING_MATCHER}"]
        assert failures[0].phase == "matcher"
        report = render(failures)
        assert FAILING_MATCHER in report and "InjectedFault" in report


@pytest.mark.fault_smoke
class TestCorruptCacheDegradation:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        make_runner(tmp_path).matcher_results(DATASET)
        cache_file = next(tmp_path.glob(f"suite_{DATASET}_*.json"))
        cache_file.write_text("{ truncated mid-write", encoding="utf-8")

        runner = make_runner(tmp_path)
        results = runner.matcher_results(DATASET)

        assert len(results) > 20
        assert not any(r.degraded for r in results.values())
        failures = runner.failure_records()
        assert [f.phase for f in failures] == ["cache"]
        assert f"sweep:{DATASET}" in failures[0].unit_id
        assert list(tmp_path.glob("*.quarantined"))
        # The recomputed entry replaced the corrupt one.
        assert cache_file.exists()

    def test_injected_corruption_equivalent(self, tmp_path):
        make_runner(tmp_path).matcher_results(DATASET)
        runner = make_runner(tmp_path)
        with faults.injected("cache:read", "corrupt"):
            results = runner.matcher_results(DATASET)
        assert len(results) > 20
        assert [f.phase for f in runner.failure_records()] == ["cache"]


class TestCheckpointResume:
    def test_restart_resumes_without_recompute(self, tmp_path):
        first = make_runner(tmp_path)
        first.matcher_results(DATASET)
        assert first.journal is not None
        assert first.journal.is_done(f"sweep:{DATASET}")
        assert (tmp_path / RUNNER_STATE.journal).exists()

        # "Restart": a fresh runner (fresh process state) over the same
        # cache dir. Arm a fault on the sweep site — if the unit were
        # recomputed instead of resumed, the sweep would blow up and
        # come back empty.
        resumed = make_runner(tmp_path)
        with faults.injected(f"sweep:{DATASET}", times=None):
            results = resumed.matcher_results(DATASET)
        assert len(results) > 20
        assert resumed.failure_records() == []
        assert resumed.journal.is_done(f"sweep:{DATASET}")

    def test_sweep_failure_degrades_to_empty_and_is_not_checkpointed(
        self, tmp_path
    ):
        runner = make_runner(tmp_path)
        with faults.injected(f"sweep:{DATASET}", times=None):
            results = runner.matcher_results(DATASET)
        assert results == {}
        failures = runner.failure_records()
        assert [f.phase for f in failures] == ["sweep"]
        assert not runner.journal.is_done(f"sweep:{DATASET}")
        # And the degraded dataset renders as hyphens, not a crash.
        headers, rows = _f1_table(runner, (DATASET,))
        assert rows == []  # no roster at all for a single failed dataset

    def test_retry_policy_recovers_transient_sweep_fault(self, tmp_path):
        from repro.runtime import ExecutionPolicy

        policy = ExecutionPolicy(
            max_attempts=2, backoff_base=0.0, seed=0, sleep=lambda _s: None
        )
        runner = ExperimentRunner(
            RunnerConfig(
                scale=SCALE, seed=0, cache_dir=tmp_path, policy=policy
            )
        )
        with faults.injected(f"sweep:{DATASET}", times=1):
            results = runner.matcher_results(DATASET)
        assert len(results) > 20
        assert runner.failure_records() == []

    def test_journal_cache_divergence_is_surfaced(self, tmp_path):
        first = make_runner(tmp_path)
        first.matcher_results(DATASET)
        # Simulate losing the envelope while the journal survives.
        for cache_file in tmp_path.glob(f"suite_{DATASET}_*.json"):
            cache_file.unlink()

        resumed = make_runner(tmp_path)
        results = resumed.matcher_results(DATASET)
        assert len(results) > 20  # recomputed, not crashed
        divergences = [
            f for f in resumed.failure_records() if f.phase == "journal"
        ]
        assert [f.unit_id for f in divergences] == [f"sweep:{DATASET}"]
        assert divergences[0].exception_type == "JournalDivergence"


class TestSweepAll:
    def test_sweep_all_is_the_matcher_results_loop(self, tmp_path):
        reference = {
            d: scores(make_runner(None).matcher_results(d)) for d in DATASETS
        }
        runner = make_runner(tmp_path)
        results = runner.sweep_all(DATASETS)
        assert list(results) == list(DATASETS)
        assert {d: scores(r) for d, r in results.items()} == reference
        assert runner.failure_records() == []
        for dataset_id in DATASETS:
            assert runner.journal.is_done(f"sweep:{dataset_id}")
            assert list(tmp_path.glob(f"suite_{dataset_id}_*.json"))

    def test_failed_sweep_degrades_one_dataset_not_the_batch(self, tmp_path):
        runner = make_runner(tmp_path)
        with faults.injected(f"sweep:{DATASET}", times=None):
            results = runner.sweep_all(DATASETS)
        assert results[DATASET] == {}
        assert len(results["Ds7"]) > 20
        failures = runner.failure_records()
        assert [f.unit_id for f in failures] == [f"sweep:{DATASET}"]
        assert not runner.journal.is_done(f"sweep:{DATASET}")
        assert runner.journal.is_done("sweep:Ds7")

    def test_journal_complete_units_are_not_recomputed(self, tmp_path):
        first = make_runner(tmp_path)
        baseline = {d: scores(r) for d, r in first.sweep_all(DATASETS).items()}

        # "Restart": a fresh runner over the same cache dir. If any
        # completed unit were computed again, the armed sweep fault would
        # blow it up and the dataset would come back empty.
        resumed = make_runner(tmp_path)
        with faults.injected("sweep:Ds5", times=None), faults.injected(
            "sweep:Ds7", times=None
        ):
            results = resumed.sweep_all(DATASETS)
        assert {d: scores(r) for d, r in results.items()} == baseline
        assert resumed.failure_records() == []


class TestSnapshotFailures:
    def test_snapshot_lists_failure_records(self, tmp_path, monkeypatch):
        # Stub the heavy builders; the failure plumbing is what's under test.
        monkeypatch.setattr(
            snapshot_module, "compare_all", lambda runner: ([], [])
        )
        for name in ("table3", "table4", "table5", "table6", "table7"):
            monkeypatch.setattr(
                snapshot_module.tables, name, lambda runner: ([], [])
            )
        for name in ("figure1", "figure2", "figure3", "figure4", "figure5",
                     "figure6"):
            monkeypatch.setattr(
                snapshot_module.figures, name, lambda runner: {}
            )
        monkeypatch.setattr(
            ExperimentRunner,
            "assessment",
            lambda self, dataset_id, with_practical=True: type(
                "A", (), {"summary": lambda self: {}}
            )(),
        )
        runner = make_runner(tmp_path)
        runner.record_failure(
            FailureRecord("sweep:Ds4", "sweep", 3, "ValueError", "boom", 1.0)
        )
        snapshot = snapshot_module.save_snapshot(runner, tmp_path / "snap.json")
        assert snapshot["failures"] == [
            {
                "unit_id": "sweep:Ds4",
                "phase": "sweep",
                "attempts": 3,
                "exception_type": "ValueError",
                "message": "boom",
                "elapsed_seconds": 1.0,
            }
        ]


@pytest.mark.fault_smoke
class TestCliResilience:
    def test_bad_scale_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table3", "--scale", "-1"])
        assert excinfo.value.code == 2
        assert "size factor must be > 0" in capsys.readouterr().err

    def test_non_numeric_scale(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table3", "--scale", "big"])
        assert excinfo.value.code == 2
        assert "expected a number" in capsys.readouterr().err

    def test_non_integer_seed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table3", "--seed", "7.5"])
        assert excinfo.value.code == 2
        assert "expected an integer seed" in capsys.readouterr().err

    def test_unwritable_cache_dir(self, capsys, tmp_path):
        blocked = tmp_path / "occupied"
        blocked.write_text("a file where the cache dir should go")
        assert main(["table3", "--cache", str(blocked)]) == 2
        output = capsys.readouterr().out
        assert "not writable" in output and "hint" in output

    def test_bad_inject_spec(self, capsys, tmp_path):
        assert main(
            ["table3", "--cache", str(tmp_path), "--inject", "nonsense"]
        ) == 2
        assert "bad fault spec" in capsys.readouterr().out

    def test_audit_with_injected_fault_reports_degradation(
        self, capsys, tmp_path
    ):
        rc = main([
            "audit", DATASET,
            "--scale", str(SCALE),
            "--cache", str(tmp_path),
            "--inject", f"matcher:{FAILING_MATCHER}=error",
        ])
        assert rc == 0
        output = capsys.readouterr().out
        assert "CHALLENGING" in output
        assert "Degraded units" in output
        assert FAILING_MATCHER in output
