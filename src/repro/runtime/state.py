"""Durable state directories: one lease, one journal, the envelopes it trusts.

The offline runner (``--cache DIR``), ``repro serve --state`` and
``repro scale-up --state`` keep state that must survive a SIGKILL. Each
directory is a :class:`StateDir` of one :class:`Layout`: a
:class:`~repro.runtime.guard.RunLease`, a
:class:`~repro.runtime.journal.CheckpointJournal` with one line per
committed unit, and the checksummed envelopes those lines depend on —
the layout's *manifest* (serve snapshot, scale manifest) or, for the
runner, the envelope each entry names (``info["envelope"]``).

The ordering rules, stated once (DESIGN.md §7, "Durable state"):

* **Commit order** — heartbeat the lease, make the envelope durable, then
  append the journal line (:meth:`StateDir.commit`).
* **Trust rule** — a journal entry is trusted only while the envelope it
  names verifies under the fingerprint the entry carries.
* **Reload on wait** — a lease that had to wait re-reads the journal
  (:meth:`StateDir.acquire`).
* **Stale state on open** — a missing, unreadable or
  fingerprint-mismatched manifest discards the journal
  (:meth:`StateDir.open`).
* **Pairing** — a manifest always has its journal beside it, and a
  journal keeps only entries it can trust (:meth:`StateDir.open`;
  ``repro doctor`` through :meth:`StateDir.audit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping

from repro import obs
from repro.runtime.cache import CacheError, read_envelope, write_envelope
from repro.runtime.guard import RunLease
from repro.runtime.journal import CheckpointJournal

#: Journal ``info`` keys the state directory manages itself.
ENVELOPE_KEY = "envelope"
FINGERPRINT_KEY = "fingerprint"


@dataclass(frozen=True)
class Layout:
    """The file names of one kind of state directory."""

    kind: str
    journal: str
    manifest: str | None = None  #: the envelope every entry depends on


RUNNER_STATE = Layout("runner", journal="checkpoint.journal")
SERVE_STATE = Layout("serve", journal="serve.journal", manifest="session.json")
SCALE_STATE = Layout(
    "scale", journal="scale.journal", manifest="scale.manifest.json"
)
LAYOUTS = (RUNNER_STATE, SERVE_STATE, SCALE_STATE)


class CommitFailed(RuntimeError):
    """A commit step raised; ``phase`` is ``"cache"`` or ``"journal"``."""

    def __init__(self, phase: str, error: BaseException) -> None:
        super().__init__(f"{phase} write failed: {error}")
        self.phase = phase
        self.error = error


def _verified(path: Path) -> object | None:
    """The envelope's payload, or ``None`` if missing or corrupt."""
    try:
        return read_envelope(path)
    except CacheError:
        return None


def _trusted_under(payload: object, fingerprint: object) -> bool:
    if payload is None:
        return False
    return fingerprint is None or (
        isinstance(payload, dict) and payload.get(FINGERPRINT_KEY) == fingerprint
    )


class StateDir:
    """A directory's lease, journal and envelopes, under the rules above.

    ``fingerprint`` (when set) tags every committed entry and the manifest
    :meth:`open` writes, so state of another configuration is never
    trusted.
    """

    def __init__(
        self,
        root: Path | str,
        layout: Layout,
        *,
        fingerprint: str | None = None,
    ) -> None:
        self.root = Path(root)
        self.layout = layout
        self.fingerprint = fingerprint
        self.lease = RunLease(self.root)
        self.journal = CheckpointJournal(self.root / layout.journal)

    def acquire(self, timeout_seconds: float = 60.0) -> float:
        """Take the lease; returns seconds waited. Raises ``LeaseHeld``."""
        waited = self.lease.acquire(timeout_seconds)
        if waited > 0:
            self.journal.reload()
        return waited

    def release(self) -> None:
        self.lease.release()

    def __enter__(self) -> "StateDir":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def open(self, manifest: Mapping[str, object] | None = None) -> None:
        """Discard stale state, write ``manifest``, keep the pair.

        Call it holding the lease, so a second writer never discards the
        journal of the run that owns the directory.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal.reload()
        name = self.layout.manifest
        if name is None:
            return
        if len(self.journal) and not _trusted_under(
            _verified(self.root / name), self.fingerprint
        ):
            obs.inc("state.reset")
            self.journal.discard(self.journal.completed)
        if manifest is not None:
            write_envelope(
                self.root / name, {FINGERPRINT_KEY: self.fingerprint, **manifest}
            )
        self.journal.path.touch(exist_ok=True)

    def commit(
        self,
        entries: Mapping[str, Mapping[str, object]],
        *,
        envelope: str | None = None,
        write: Callable[[Path], None] | None = None,
    ) -> None:
        """Durably record ``entries`` (unit id → info) against an envelope.

        The lease is heartbeated (``LeaseHeld`` if a live run took it
        over), ``write(path)`` makes the envelope durable (omit it when it
        already is), then the journal lines are appended. ``envelope``
        defaults to the manifest. A failing step raises
        :class:`CommitFailed` and the later steps do not run.
        """
        self.lease.refresh()
        name = envelope or self.layout.manifest
        if write is not None:
            try:
                write(self.root / name)
            except Exception as exc:
                raise CommitFailed("cache", exc) from exc
        tags: dict[str, object] = {}
        if self.layout.manifest is None:
            tags[ENVELOPE_KEY] = name
        if self.fingerprint is not None:
            tags[FINGERPRINT_KEY] = self.fingerprint
        try:
            for unit, info in entries.items():
                self.journal.mark_done(unit, **info, **tags)
        except Exception as exc:
            raise CommitFailed("journal", exc) from exc

    def info(self, unit: str) -> dict | None:
        """A committed unit's info, if its fingerprint is this run's.

        :meth:`open` verified the manifest under that fingerprint; a
        runner entry's own envelope is verified by the read that loads it.
        """
        info = self.journal.info(unit)
        if info is None or info.get(FINGERPRINT_KEY) != self.fingerprint:
            return None
        return info

    def compact(self) -> None:
        """Shed torn and duplicate journal lines, keeping the pair."""
        if self.journal.torn_lines or self.journal.duplicate_lines:
            self.journal.compact()
        if self.layout.manifest is not None:
            self.journal.path.touch(exist_ok=True)

    def audit(self, *, check: bool) -> list[tuple[str, str, str]]:
        """Enforce the trust and pairing rules on disk (unless ``check``).

        Returns ``(file name, problem, action)`` findings. Run it after
        corrupt envelopes were quarantined, so one pass leaves the
        directory consistent.
        """
        findings = []
        payloads: dict[str, object] = {}

        def trusted(unit: str) -> bool:
            info = self.journal.info(unit) or {}
            name = self.layout.manifest or info.get(ENVELOPE_KEY)
            if name is None:
                return True  # the entry depends on no envelope
            if name not in payloads:
                payloads[name] = _verified(self.root / name)
            return _trusted_under(payloads[name], info.get(FINGERPRINT_KEY))

        untrusted = sorted(u for u in self.journal.completed if not trusted(u))
        if untrusted:
            if not check:
                self.journal.discard(untrusted)
                obs.inc("doctor.state_entries_dropped", len(untrusted))
            findings.append((
                self.layout.journal,
                f"{len(untrusted)} journal entry(ies) whose envelope is "
                "missing, corrupt or from another fingerprint",
                ("would drop" if check else "dropped") + " (units recompute)",
            ))
        manifest = self.layout.manifest
        if (
            manifest is not None
            and (self.root / manifest).exists()
            and not self.journal.path.exists()
        ):
            if not check:
                self.journal.path.touch()
                obs.inc("doctor.state_journal_created")
            findings.append((
                manifest,
                f"{manifest} without its {self.layout.journal}",
                "would create empty journal" if check else "created empty journal",
            ))
        return findings
