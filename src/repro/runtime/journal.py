"""Append-only checkpoint journal: resume interrupted runs.

One JSON line per completed unit of work::

    {"unit": "sweep:Ds4", "info": {"envelope": "suite_Ds4_ab12.json"}}

Appends are flushed and fsynced, so a kill leaves at worst one truncated
final line — which the loader tolerates, drops, and counts in the
``journal.torn`` metric. A restarted run asks
:meth:`CheckpointJournal.is_done` before recomputing a unit, turning a
killed full-suite regeneration into a warm resume. ``repro doctor``
repairs a torn tail durably and :meth:`CheckpointJournal.compact`
rewrites the file to one canonical line per unit.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from repro import obs
from repro.runtime import faults

logger = logging.getLogger("repro.runtime.journal")


class CheckpointJournal:
    """Durable set of completed unit ids, backed by a JSONL file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        # True when the file ends mid-line (kill during append): the next
        # append must start on a fresh line or it merges with the stub.
        self._needs_newline = False
        #: Unparseable lines dropped by the last load (torn appends).
        self.torn_lines = 0
        #: Re-recorded units seen by the last load (compaction candidates).
        self.duplicate_lines = 0
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError as exc:
            logger.warning("unreadable journal %s: %s", self.path, exc)
            return
        self._needs_newline = bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # A crash mid-append leaves one truncated line; resume must
                # tolerate it (drop + count), never raise.
                logger.warning(
                    "dropping truncated journal line in %s", self.path
                )
                self.torn_lines += 1
                obs.inc("journal.torn")
                continue
            if isinstance(entry, dict) and isinstance(entry.get("unit"), str):
                if entry["unit"] in self._entries:
                    self.duplicate_lines += 1
                self._entries[entry["unit"]] = entry.get("info") or {}

    def reload(self) -> None:
        """Re-read the file, picking up entries appended by another process."""
        self._entries.clear()
        self._needs_newline = False
        self.torn_lines = 0
        self.duplicate_lines = 0
        self._load()

    @property
    def completed(self) -> frozenset[str]:
        return frozenset(self._entries)

    def is_done(self, unit_id: str) -> bool:
        return unit_id in self._entries

    def info(self, unit_id: str) -> dict | None:
        """The info dict recorded with a completed unit (None if absent)."""
        return self._entries.get(unit_id)

    def mark_done(self, unit_id: str, **info: object) -> None:
        """Durably record a completed unit (idempotent)."""
        if self.is_done(unit_id) and self._entries[unit_id] == info:
            return
        faults.fire("journal:append")
        self._entries[unit_id] = dict(info)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps({"unit": unit_id, "info": info}, sort_keys=True)
        if self._needs_newline:
            line = "\n" + line
            self._needs_newline = False
        # The torn-write site garbles the bytes that reach the disk (the
        # in-memory entry stays recorded, exactly like a crash between the
        # dict update and the fsync) so fault-injection and doctor tests
        # can produce a genuinely torn tail on demand.
        data = faults.torn_text("journal:append", line + "\n")
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if not data.endswith("\n"):
            self._needs_newline = True

    def compact(self) -> int:
        """Atomically rewrite the file to one line per unit; returns lines shed.

        Shed lines are torn stubs and superseded duplicates. The rewrite
        goes through the atomic writer (tmp file + ``os.replace``), so a
        crash mid-compaction leaves the original journal untouched.
        """
        from repro.runtime.cache import atomic_write_text

        raw_lines = 0
        if self.path.exists():
            try:
                raw_lines = sum(
                    1
                    for line in self.path.read_text(encoding="utf-8").splitlines()
                    if line.strip()
                )
            except OSError:
                raw_lines = 0
        if self._entries:
            text = "".join(
                json.dumps({"unit": unit, "info": info}, sort_keys=True) + "\n"
                for unit, info in sorted(self._entries.items())
            )
            atomic_write_text(self.path, text)
        else:
            self.path.unlink(missing_ok=True)
        self._needs_newline = False
        self.torn_lines = 0
        self.duplicate_lines = 0
        return raw_lines - len(self._entries)

    def discard(self, unit_ids) -> None:
        """Forget some units, durably (an atomic :meth:`compact`)."""
        for unit_id in unit_ids:
            self._entries.pop(unit_id, None)
        self.compact()

    def clear(self) -> None:
        """Forget all checkpoints (start a fresh run)."""
        self._entries.clear()
        self.path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"CheckpointJournal({str(self.path)!r}, {len(self)} done)"
