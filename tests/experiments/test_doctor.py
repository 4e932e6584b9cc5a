"""Tests for ``repro doctor``: state auditing, repair, and idempotency."""

from __future__ import annotations

import json
import os
from functools import partial

import pytest

from repro.experiments.cli import main
from repro.runtime.cache import QUARANTINE_SUFFIX, write_envelope
from repro.runtime.doctor import DoctorReport, report_to_json, run_doctor
from repro.runtime.journal import CheckpointJournal
from repro.runtime.state import (
    LAYOUTS,
    RUNNER_STATE,
    SCALE_STATE,
    SERVE_STATE,
    StateDir,
)

JOURNAL_NAME = RUNNER_STATE.journal

#: A pid no live process plausibly holds (far above default pid_max).
DEAD_PID = 99999999


def _tear_journal(cache_dir) -> None:
    """A journal with one duplicate entry and a torn trailing line."""
    journal = CheckpointJournal(cache_dir / JOURNAL_NAME)
    journal.mark_done("sweep:Ds5", attempt=1)
    journal.mark_done("sweep:Ds5", attempt=2)  # supersedes -> duplicate line
    journal.mark_done("sweep:Ds7")
    with (cache_dir / JOURNAL_NAME).open("a", encoding="utf-8") as handle:
        handle.write('{"unit": "sweep:Ds1", "truncat')  # kill mid-append


def _broken_cache(tmp_path):
    """A cache directory exhibiting every category the doctor audits."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    _tear_journal(cache_dir)
    write_envelope(cache_dir / "good.json", {"fine": True})
    (cache_dir / "corrupt.json").write_text('{"payload": ', encoding="utf-8")
    (cache_dir / ("old.json" + QUARANTINE_SUFFIX)).write_text("evidence")
    (cache_dir / f"stale.json.tmp{DEAD_PID}").write_text("partial")
    return cache_dir


def _future(cache_dir, days: float = 30.0) -> float:
    """A ``now`` far enough past every file's mtime to expire retention."""
    mtime = (cache_dir / ("old.json" + QUARANTINE_SUFFIX)).stat().st_mtime
    return mtime + days * 86400.0


class TestCheckMode:
    def test_check_finds_everything_and_touches_nothing(self, tmp_path):
        cache_dir = _broken_cache(tmp_path)
        before = sorted(path.name for path in cache_dir.iterdir())
        journal_bytes = (cache_dir / JOURNAL_NAME).read_bytes()

        report = run_doctor(cache_dir, check=True, now=_future(cache_dir))
        assert not report.clean
        assert {finding.category for finding in report.findings} == {
            "journal", "cache", "quarantine", "tmp",
        }
        assert all(
            finding.action.startswith("would ") for finding in report.findings
        )
        # Nothing moved, nothing rewritten.
        assert sorted(path.name for path in cache_dir.iterdir()) == before
        assert (cache_dir / JOURNAL_NAME).read_bytes() == journal_bytes

    def test_clean_directory_reports_clean(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        write_envelope(cache_dir / "good.json", {"fine": True})
        report = run_doctor(cache_dir, check=True)
        assert report.clean
        assert report.files_scanned == 1

    def test_missing_directory_is_clean(self, tmp_path):
        report = run_doctor(tmp_path / "nowhere", check=True)
        assert report.clean
        assert report.files_scanned == 0


class TestRepair:
    def test_repair_then_recheck_is_clean(self, tmp_path):
        cache_dir = _broken_cache(tmp_path)
        now = _future(cache_dir)

        repaired = run_doctor(cache_dir, now=now)
        assert len(repaired.findings) == 4
        # Torn line shed, duplicate compacted; both healed units survive.
        journal = CheckpointJournal(cache_dir / JOURNAL_NAME)
        assert journal.completed == {"sweep:Ds5", "sweep:Ds7"}
        assert journal.torn_lines == 0 and journal.duplicate_lines == 0
        # The corrupt envelope moved to quarantine; the stale artifacts died.
        assert not (cache_dir / "corrupt.json").exists()
        assert (cache_dir / ("corrupt.json" + QUARANTINE_SUFFIX)).exists()
        assert not (cache_dir / ("old.json" + QUARANTINE_SUFFIX)).exists()
        assert not (cache_dir / f"stale.json.tmp{DEAD_PID}").exists()
        # The healthy envelope was left alone.
        assert (cache_dir / "good.json").exists()

        # Idempotency (the issue's acceptance criterion): a second pass
        # finds a fully healed directory. Real wall-clock here, so the
        # quarantine pass one just created is inside its retention window
        # and kept as evidence.
        second = run_doctor(cache_dir)
        assert second.clean, second.findings

    def test_fresh_quarantine_survives_retention(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        target = cache_dir / ("entry.json" + QUARANTINE_SUFFIX)
        target.write_text("evidence")
        report = run_doctor(
            cache_dir, now=target.stat().st_mtime + 86400.0
        )  # 1 day old, 7 day retention
        assert report.clean
        assert target.exists()

    def test_live_writer_tmp_file_is_kept(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        live = cache_dir / f"busy.json.tmp{os.getpid()}"
        live.write_text("mid-write")
        report = run_doctor(cache_dir)
        assert report.clean
        assert live.exists()

    def test_retention_days_zero_sweeps_everything(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        target = cache_dir / ("entry.json" + QUARANTINE_SUFFIX)
        target.write_text("evidence")
        report = run_doctor(cache_dir, retention_days=0.0)
        assert not report.clean
        assert not target.exists()


#: Each case mutates a healthy two-unit state directory, then names the
#: finding categories a check must report and the units a repair keeps:
#: an entry whose envelope no longer verifies must recompute.
BOTH = {"unit-0", "unit-1"}
SCENARIOS = {
    "healthy": (set(), BOTH),
    "journal_without_envelope": ({"state"}, set()),
    "envelope_without_journal": ({"state"}, set()),
    "torn_journal": ({"journal"}, BOTH),
    "corrupt_envelope": ({"cache", "state"}, set()),
    "fingerprint_mismatch": ({"state"}, set()),
}


class TestStateDirAudit:
    """One audit for every :class:`StateDir` user's directory layout."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("layout", LAYOUTS, ids=lambda l: l.kind)
    def test_repair(self, tmp_path, layout, scenario):
        """A check reports the scenario; one repair pass heals it."""
        state = StateDir(tmp_path / "state", layout, fingerprint="f1")
        envelope = state.root / (layout.manifest or "suite_Ds5_f1.json")
        state.open({} if layout.manifest else None)
        state.commit(
            {"unit-0": {}, "unit-1": {}},
            envelope=envelope.name,
            write=partial(write_envelope, payload={"fingerprint": "f1"}),
        )
        journal = state.journal.path
        if scenario == "journal_without_envelope":
            envelope.unlink()
        elif scenario == "envelope_without_journal":
            journal.unlink()
        elif scenario == "torn_journal":
            with journal.open("a", encoding="utf-8") as handle:
                handle.write('{"unit": "unit-9", "torn')  # kill mid-append
        elif scenario == "corrupt_envelope":
            envelope.write_text("garbage", encoding="utf-8")
        elif scenario == "fingerprint_mismatch":
            write_envelope(envelope, {"fingerprint": "f2"})
        expected, kept = SCENARIOS[scenario]
        if scenario == "envelope_without_journal" and layout.manifest is None:
            expected = set()  # a runner envelope is a plain cache entry
        before = sorted(state.root.iterdir())

        checked = run_doctor(state.root, check=True)
        assert {f.category for f in checked.findings} == expected
        assert sorted(state.root.iterdir()) == before  # check touches nothing

        run_doctor(state.root)
        assert run_doctor(state.root, check=True).clean  # one pass heals
        assert CheckpointJournal(journal).completed == kept
        if layout.manifest is not None and envelope.exists():
            assert journal.exists()  # the manifest keeps its pair
        if not journal.exists():
            journal.touch()  # an empty journal alone is a fresh directory
            assert run_doctor(state.root, check=True).clean


def _orphaned_journal(tmp_path, layout, units):
    """A state directory whose manifest is gone but whose journal is not."""
    state = StateDir(tmp_path / "state", layout, fingerprint="f1")
    state.open({})
    if units:
        state.commit({unit: {} for unit in units})
    (state.root / layout.manifest).unlink()
    return state


def _assert_orphaned_entries_dropped(state, units):
    """Check reports the orphans untouched; repair drops them, idempotently."""
    journal = state.journal.path
    journal_bytes = journal.read_bytes()
    checked = run_doctor(state.root, check=True)
    assert {f.category for f in checked.findings} == {"state"}
    assert checked.findings[0].action.startswith("would drop")
    assert journal.read_bytes() == journal_bytes
    assert CheckpointJournal(journal).completed == set(units)

    repaired = run_doctor(state.root)
    assert not repaired.clean
    assert not CheckpointJournal(journal).completed
    assert run_doctor(state.root, check=True).clean  # idempotent


class TestServeState:
    """``repro serve --state`` directories: the snapshot is the manifest."""

    def test_journal_without_snapshot_is_deleted(self, tmp_path):
        # A journal entry means "covered by a snapshot"; with the
        # snapshot gone, replayed adds would be journal-skipped and the
        # records silently lost, so the entries must go and adds replay.
        units = ("add-0", "add-1")
        state = _orphaned_journal(tmp_path, SERVE_STATE, units)
        _assert_orphaned_entries_dropped(state, units)

    def test_empty_journal_without_snapshot_is_fine(self, tmp_path):
        # A fresh daemon that never snapshotted: journal touched at
        # init, zero entries — a legitimate layout, not torn state.
        state = _orphaned_journal(tmp_path, SERVE_STATE, ())
        assert state.journal.path.exists()
        assert run_doctor(state.root, check=True).clean


class TestScaleState:
    """``repro scale-up --state`` directories: shards need their manifest."""

    def test_journal_without_manifest_is_deleted(self, tmp_path):
        # Per-shard counts are meaningless without the config that
        # produced them; shards are deterministic and recompute.
        units = ("scale:shard:00000", "scale:shard:00001")
        state = _orphaned_journal(tmp_path, SCALE_STATE, units)
        _assert_orphaned_entries_dropped(state, units)

    def test_empty_journal_without_manifest_is_fine(self, tmp_path):
        state = _orphaned_journal(tmp_path, SCALE_STATE, ())
        assert state.journal.path.exists()
        assert run_doctor(state.root, check=True).clean


class TestReportSurface:
    def test_to_table_and_json(self, tmp_path):
        cache_dir = _broken_cache(tmp_path)
        report = run_doctor(cache_dir, check=True, now=_future(cache_dir))
        headers, rows = report.to_table()
        assert headers == ["category", "path", "problem", "action"]
        assert len(rows) == len(report.findings)
        parsed = json.loads(report_to_json(report))
        assert parsed["clean"] is False
        assert parsed["check_only"] is True
        assert len(parsed["findings"]) == len(report.findings)

    def test_summary_counts(self, tmp_path):
        report = DoctorReport(
            cache_dir=str(tmp_path),
            check_only=True,
            findings=(),
            files_scanned=3,
            journal_units=2,
        )
        assert "clean" in report.summary()
        assert "3 file(s)" in report.summary()


class TestDoctorCli:
    def test_check_exit_codes_track_findings(self, tmp_path, capsys):
        cache_dir = _broken_cache(tmp_path)
        # Audit: dirty -> exit 1. (Retention stays default, so the aged
        # quarantine is invisible here; the other categories suffice.)
        assert main(["doctor", "--cache", str(cache_dir), "--check"]) == 1
        out = capsys.readouterr().out
        assert "doctor (check)" in out
        assert "would" in out
        # Repair -> exit 0, then a re-audit is clean -> exit 0.
        assert main(["doctor", "--cache", str(cache_dir)]) == 0
        assert main(["doctor", "--cache", str(cache_dir), "--check"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_doctor_requires_cache_dir(self, capsys):
        assert main(["doctor", "--cache", ""]) == 2
        assert "requires a cache directory" in capsys.readouterr().out

    def test_retention_days_flag(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / ("entry.json" + QUARANTINE_SUFFIX)).write_text("x")
        assert main(
            ["doctor", "--cache", str(cache_dir), "--retention-days", "1e-9"]
        ) == 0  # repair mode always exits 0
        assert not (cache_dir / ("entry.json" + QUARANTINE_SUFFIX)).exists()
