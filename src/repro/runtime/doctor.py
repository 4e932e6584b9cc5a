"""``repro doctor``: audit and repair a cache directory's runtime state.

A run's durable state is a tree of state directories
(:mod:`repro.runtime.state`): checksummed JSON envelopes, journals, run
leases, quarantined corrupt entries, and — after a crash — stray
``.tmp<pid>`` files from interrupted atomic writes. Each of these has a
self-healing *read* path (quarantine-as-miss, torn tail tolerance), but
reads only heal what they touch and leave the evidence on disk.
:func:`run_doctor` walks the whole tree at once. Findings fall in six
categories:

* **cache** — envelopes failing checksum/version checks are quarantined
  (renamed ``*.quarantined``), exactly as a reader would;
* **quarantine** — quarantined files older than ``retention_days`` are
  deleted; fresher ones are kept as evidence;
* **tmp** — ``*.tmp<pid>`` leftovers whose writer process is dead are
  removed;
* **lease** — ``run.lease`` files whose owner pid is dead (or whose
  heartbeat went silent) are deleted so the next run does not wait out a
  takeover; a healthy lease from a live run is left alone;
* **state** — every state directory's trust and pairing rules
  (:meth:`repro.runtime.state.StateDir.audit`): journal entries whose
  envelope is missing, corrupt or from another fingerprint are dropped
  (their units recompute), and a manifest without its journal gets an
  empty one. It runs after the envelope audit, so one repair pass
  leaves every directory consistent;
* **journal** — torn (a kill mid-append) and superseded duplicate
  journal lines are healed durably by compaction.

``check=True`` audits without touching anything (exit code 1 from the CLI
when problems are found); a repair run is idempotent — a second pass
reports a clean directory.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.runtime.cache import (
    QUARANTINE_SUFFIX,
    CacheError,
    quarantine,
    read_envelope,
)
from repro.runtime.guard import LEASE_NAME, audit_lease, pid_alive
from repro.runtime.journal import CheckpointJournal
from repro.runtime.state import LAYOUTS, Layout, StateDir

logger = logging.getLogger("repro.runtime.doctor")

#: Days a quarantined entry is kept as evidence before the doctor
#: deletes it.
DEFAULT_RETENTION_DAYS = 7.0

_TMP_PATTERN = re.compile(r"\.tmp(\d+)$")


@dataclass(frozen=True)
class DoctorFinding:
    """One audited problem and what was (or would be) done about it."""

    category: str  # "cache" | "quarantine" | "tmp" | "lease" | "state" | "journal"
    path: str
    problem: str
    action: str  # what was done, or "would <x>" in check mode

    def to_row(self) -> list[str]:
        return [self.category, self.path, self.problem, self.action]


@dataclass(frozen=True)
class DoctorReport:
    """Everything one doctor pass saw and did."""

    cache_dir: str
    check_only: bool
    findings: tuple[DoctorFinding, ...]
    files_scanned: int
    journal_units: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_table(self) -> tuple[list[str], list[list[str]]]:
        """(headers, rows) for :func:`repro.experiments.report.render`."""
        headers = ["category", "path", "problem", "action"]
        return headers, [finding.to_row() for finding in self.findings]

    def summary(self) -> str:
        mode = "check" if self.check_only else "repair"
        state = (
            "clean"
            if self.clean
            else f"{len(self.findings)} finding(s)"
        )
        return (
            f"doctor ({mode}): {state} — scanned {self.files_scanned} "
            f"file(s), journal holds {self.journal_units} unit(s)"
        )


def _audit_journal(
    journal: CheckpointJournal, check: bool, findings: list[DoctorFinding]
) -> int:
    """Heal a torn/duplicated journal via compaction; returns unit count."""
    if not journal.path.exists():
        return 0
    problems: list[str] = []
    if journal.torn_lines:
        problems.append(f"{journal.torn_lines} torn line(s)")
    if journal.duplicate_lines:
        problems.append(f"{journal.duplicate_lines} duplicate line(s)")
    if not problems:
        return len(journal)
    problem = ", ".join(problems)
    if check:
        findings.append(
            DoctorFinding(
                category="journal",
                path=journal.path.name,
                problem=problem,
                action="would compact",
            )
        )
    else:
        shed = journal.compact()
        obs.inc("doctor.journal_compacted")
        findings.append(
            DoctorFinding(
                category="journal",
                path=journal.path.name,
                problem=problem,
                action=f"compacted, shed {shed} line(s)",
            )
        )
    return len(journal)


def _audit_envelope(
    path: Path, check: bool, findings: list[DoctorFinding]
) -> None:
    """Quarantine a cache entry that fails envelope verification."""
    try:
        read_envelope(path)
    except CacheError as exc:
        # The reason, without the doctor's own path prefix duplicated.
        reason = str(exc)
        prefix = f"{path}: "
        if reason.startswith(prefix):
            reason = reason[len(prefix):]
        if check:
            action = "would quarantine"
        else:
            quarantine(path)
            obs.inc("doctor.quarantined")
            action = f"quarantined as {path.name}{QUARANTINE_SUFFIX}"
        findings.append(
            DoctorFinding(
                category="cache",
                path=path.name,
                problem=reason,
                action=action,
            )
        )


def _audit_quarantined(
    path: Path,
    retention_seconds: float,
    now: float,
    check: bool,
    findings: list[DoctorFinding],
) -> None:
    """Delete quarantined evidence past its retention window."""
    try:
        age = now - path.stat().st_mtime
    except OSError:
        return
    if age < retention_seconds:
        return
    age_days = age / 86400.0
    if check:
        action = "would delete"
    else:
        path.unlink(missing_ok=True)
        obs.inc("doctor.retention_deleted")
        action = "deleted"
    findings.append(
        DoctorFinding(
            category="quarantine",
            path=path.name,
            problem=f"quarantined {age_days:.1f} day(s) ago, past retention",
            action=action,
        )
    )


def _audit_tmp(
    path: Path, check: bool, findings: list[DoctorFinding]
) -> None:
    """Remove an interrupted atomic write's temp file if its writer died."""
    match = _TMP_PATTERN.search(path.name)
    if match is None:
        return
    pid = int(match.group(1))
    if pid_alive(pid):
        return  # a live writer is mid-publish; not ours to touch
    if check:
        action = "would delete"
    else:
        path.unlink(missing_ok=True)
        obs.inc("doctor.tmp_deleted")
        action = "deleted"
    findings.append(
        DoctorFinding(
            category="tmp",
            path=path.name,
            problem=f"stale temp file from dead writer pid {pid}",
            action=action,
        )
    )


def _audit_lease(
    path: Path,
    now: float,
    check: bool,
    findings: list[DoctorFinding],
) -> None:
    """Delete an orphaned run lease (dead owner or silent heartbeat)."""
    problem = audit_lease(path, now=now)
    if problem is None:
        return  # held by a live, heartbeating run — not ours to touch
    if check:
        action = "would delete"
    else:
        path.unlink(missing_ok=True)
        obs.inc("doctor.lease_deleted")
        action = "deleted"
    findings.append(
        DoctorFinding(
            category="lease",
            path=path.name,
            problem=problem,
            action=action,
        )
    )


def run_doctor(
    cache_dir: Path | str,
    *,
    check: bool = False,
    retention_days: float = DEFAULT_RETENTION_DAYS,
    now: float | None = None,
) -> DoctorReport:
    """Audit (and unless ``check``, repair) one cache directory.

    ``now`` is an injectable wall-clock (seconds since the epoch) for the
    retention check; tests pin it instead of aging files on disk.
    """
    root = Path(cache_dir)
    findings: list[DoctorFinding] = []
    if now is None:
        now = time.time()
    retention_seconds = retention_days * 86400.0
    files_scanned = 0
    journal_units = 0
    by_name = {
        name: layout
        for layout in LAYOUTS
        for name in (layout.journal, layout.manifest)
        if name is not None
    }
    state_dirs: set[tuple[Path, Layout]] = set()
    with obs.span("doctor.run", cache_dir=str(root), check=check):
        if root.exists():
            for path in sorted(root.rglob("*")):
                if not path.is_file():
                    continue
                layout = by_name.get(path.name)
                if layout is not None:
                    # Every state directory in the tree: a chaos campaign
                    # leaves one per plan directory, not just the root's.
                    state_dirs.add((path.parent, layout))
                    if path.name == layout.journal:
                        continue
                files_scanned += 1
                if path.name == LEASE_NAME:
                    _audit_lease(path, now, check, findings)
                elif path.name.endswith(QUARANTINE_SUFFIX):
                    _audit_quarantined(
                        path, retention_seconds, now, check, findings
                    )
                elif _TMP_PATTERN.search(path.name):
                    _audit_tmp(path, check, findings)
                elif path.suffix == ".json":
                    _audit_envelope(path, check, findings)
        # After the envelope audit, so entries whose envelope was just
        # quarantined are dropped in this same pass.
        for directory, layout in sorted(
            state_dirs, key=lambda pair: (str(pair[0]), pair[1].kind)
        ):
            state = StateDir(directory, layout)
            for name, problem, action in state.audit(check=check):
                findings.append(DoctorFinding("state", name, problem, action))
            journal_units += _audit_journal(state.journal, check, findings)
    report = DoctorReport(
        cache_dir=str(root),
        check_only=check,
        findings=tuple(findings),
        files_scanned=files_scanned,
        journal_units=journal_units,
    )
    if findings:
        obs.inc("doctor.findings", len(findings))
        logger.info("%s", report.summary())
    return report


def report_to_json(report: DoctorReport) -> str:
    """Machine-readable doctor report (``repro doctor --out``)."""
    return json.dumps(
        {
            "cache_dir": report.cache_dir,
            "check_only": report.check_only,
            "clean": report.clean,
            "files_scanned": report.files_scanned,
            "journal_units": report.journal_units,
            "findings": [
                {
                    "category": finding.category,
                    "path": finding.path,
                    "problem": finding.problem,
                    "action": finding.action,
                }
                for finding in report.findings
            ],
        },
        indent=2,
        sort_keys=True,
    )
