"""The ``python -m repro serve`` request loop: JSONL in, JSONL out.

One JSON object per line on the input stream, one JSON response per line
on the output stream. Operations:

* ``{"op": "add", "records": [...], "id": "a1"}`` — append records; the
  optional ``id`` makes the add idempotent across crash/restart (see
  below).
* ``{"op": "query", "record": {...}, "k": 5}`` — match one record.
* ``{"op": "query_batch", "records": [...], "k": 5}`` — match a batch
  through one coalesced predict call.
* ``{"op": "stats"}`` — session summary with per-phase latency
  histograms (p50/p99 for block/extract/predict).
* ``{"op": "snapshot"}`` — persist the session now (requires a state
  directory).
* ``{"op": "shutdown"}`` — drain and exit.

Every response carries ``"ok"``; failures answer the structured error
shape of :mod:`repro.serve.protocol` (``{"ok": false, "error": "<code>",
"detail": ...}``) and the loop keeps serving. A malformed or torn input
line is a ``bad_request`` response plus a ``serve.bad_request`` counter,
never an unhandled exception; the same parser backs the socket front end
(:mod:`repro.serve.frontend`).

**Durability.** With ``--state DIR`` the directory is a
:class:`~repro.runtime.state.StateDir` whose manifest is the session
snapshot: the loop holds its lease, snapshots the session (every
``--snapshot-every`` added records, on the ``snapshot`` op, and at drain)
and journals add request ids *in the same commit, after the snapshot is
durable*, so a journaled add is always in the snapshot it survives with.
On restart a replayed add is either journal-skipped (snapshotted before
the crash) or re-applied; records already present are silently
deduplicated, so the add/crash/replay cycle is exactly-once.

**Drain.** SIGTERM stops intake and finishes the requests already read;
the ``shutdown`` op stops immediately after its own response. Either
way the loop emits a final ``drained`` event with the session stats,
snapshots, releases the lease and exits 0. Fault injection hooks
the top of every request at site ``serve:request``.
"""

from __future__ import annotations

import json
import queue
import signal
import sys
import threading
from pathlib import Path
from typing import IO

from repro import obs
from repro.data.records import Record
from repro.runtime import faults
from repro.runtime.state import SERVE_STATE, StateDir
from repro.serve.protocol import (
    BadRequest,
    bad_request_response,
    error_response,
    parse_request,
)
from repro.serve.session import MatcherSession


def _parse_record(entry: dict) -> Record:
    return Record(
        str(entry["record_id"]),
        str(entry.get("source", "stream")),
        {str(k): str(v) for k, v in dict(entry.get("values", {})).items()},
    )


def parse_record_payload(entry: dict) -> Record:
    """One wire-format record payload → a :class:`Record` (shared parser)."""
    return _parse_record(entry)


class ServeLoop:
    """Binds a :class:`MatcherSession` to a JSONL request/response stream."""

    def __init__(
        self,
        session: MatcherSession,
        *,
        state_dir: Path | str | None = None,
        snapshot_every: int = 0,
        poll_seconds: float = 0.1,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.session = session
        self.snapshot_every = snapshot_every
        self.poll_seconds = poll_seconds
        self.draining = threading.Event()
        self._state = (
            StateDir(state_dir, SERVE_STATE) if state_dir is not None else None
        )
        self._pending_add_ids: list[str] = []
        self._adds_since_snapshot = 0

    # -- durability --------------------------------------------------------

    def acquire_state(self) -> None:
        """Lease and open the state directory (no-op without ``--state``)."""
        if self._state is not None:
            self._state.acquire()
            self._state.open()

    def release_state(self) -> None:
        """Release the state-directory lease (no-op without ``--state``)."""
        if self._state is not None:
            self._state.release()

    def _snapshot(self) -> str:
        """Commit the session snapshot with the adds it now covers."""
        assert self._state is not None
        records = len(self.session)
        self._state.commit(
            {rid: {"records": records} for rid in self._pending_add_ids},
            write=self.session.save,
        )
        self._pending_add_ids.clear()
        self._adds_since_snapshot = 0
        return str(self._state.root / SERVE_STATE.manifest)

    def _drain_state(self) -> None:
        """The durable half of a drain: snapshot, then compact the journal.

        A kill between the two leaves a valid snapshot plus a journal with
        duplicate/torn lines — exactly what ``repro doctor`` repairs.
        """
        if self._state is not None:
            self._snapshot()
            self._state.compact()

    # -- request handling --------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Execute one request dict; always returns a response dict."""
        faults.fire("serve:request")
        op = request.get("op")
        if op == "add":
            return self._handle_add(request)
        if op == "query":
            result = self.session.query(
                _parse_record(request["record"]), request.get("k")
            )
            return {"ok": True, "op": "query", "result": result.to_dict()}
        if op == "query_batch":
            results = self.session.query_batch(
                [_parse_record(entry) for entry in request.get("records", [])],
                request.get("k"),
            )
            return {
                "ok": True,
                "op": "query_batch",
                "results": [result.to_dict() for result in results],
            }
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.session.stats()}
        if op == "snapshot":
            if self._state is None:
                return {
                    "ok": False,
                    "op": "snapshot",
                    "error": "no state directory configured",
                }
            return {"ok": True, "op": "snapshot", "path": self._snapshot()}
        if op == "shutdown":
            self.draining.set()
            return {"ok": True, "op": "shutdown", "draining": True}
        return error_response("unknown_op", f"unknown op {op!r}")

    def _handle_add(self, request: dict) -> dict:
        request_id = request.get("id")
        request_id = None if request_id is None else str(request_id)
        if (
            request_id is not None
            and self._state is not None
            and self._state.info(request_id) is not None
        ):
            obs.inc("serve.adds_skipped")
            return {
                "ok": True,
                "op": "add",
                "added": 0,
                "skipped": True,
                "records": len(self.session),
            }
        batch = [_parse_record(entry) for entry in request.get("records", [])]
        # Replay tolerance: a crash between snapshot and journal append
        # re-delivers an add whose records the snapshot already holds.
        fresh = [r for r in batch if r.record_id not in self.session]
        added = self.session.add_records(fresh)
        if request_id is not None:
            self._pending_add_ids.append(request_id)
        self._adds_since_snapshot += added
        if (
            self.snapshot_every
            and self._state is not None
            and self._adds_since_snapshot >= self.snapshot_every
        ):
            self._snapshot()
        return {
            "ok": True,
            "op": "add",
            "added": added,
            "deduplicated": len(batch) - len(fresh),
            "records": len(self.session),
        }

    # -- the loop ----------------------------------------------------------

    def run(
        self,
        input_stream: IO[str] | None = None,
        output_stream: IO[str] | None = None,
        *,
        install_signals: bool = True,
    ) -> int:
        """Serve until EOF, ``shutdown`` or SIGTERM; returns the exit code.

        Reads happen on a daemon thread feeding a queue, so a SIGTERM
        arriving while intake is blocked still drains promptly: the main
        loop polls the queue every ``poll_seconds`` and checks the drain
        flag between requests.
        """
        source = input_stream if input_stream is not None else sys.stdin
        sink = output_stream if output_stream is not None else sys.stdout

        def emit(payload: dict) -> None:
            sink.write(json.dumps(payload) + "\n")
            sink.flush()

        previous_handler = None
        if install_signals:
            previous_handler = signal.signal(
                signal.SIGTERM, lambda signum, frame: self.draining.set()
            )

        lines: queue.Queue = queue.Queue()

        def _reader() -> None:
            for line in source:
                lines.put(line)
            lines.put(None)

        threading.Thread(target=_reader, daemon=True, name="serve-reader").start()

        self.acquire_state()
        emit({"ok": True, "event": "ready", "records": len(self.session)})
        try:
            while True:
                if self.draining.is_set() and lines.empty():
                    break
                try:
                    line = lines.get(timeout=self.poll_seconds)
                except queue.Empty:
                    continue
                if line is None:
                    break
                try:
                    request = parse_request(line)
                except BadRequest as exc:
                    # A torn or malformed line degrades to a structured
                    # event; the daemon keeps serving.
                    emit(bad_request_response(exc))
                    continue
                if request is None:
                    continue
                try:
                    response = self.handle(request)
                except faults.InjectedFault:
                    raise
                except Exception as exc:  # keep serving through bad requests
                    obs.inc("serve.request_errors")
                    response = error_response(
                        "internal", f"{type(exc).__name__}: {exc}"
                    )
                emit(response)
                # The shutdown op stops intake at once (deterministic —
                # any lines still queued behind it are dropped); SIGTERM
                # instead finishes whatever was already read.
                if response.get("op") == "shutdown" and response.get("ok"):
                    break
            # Drain while our SIGTERM handler is still installed: a second
            # SIGTERM landing mid-snapshot must defer (set the already-set
            # drain flag), not terminate the process and strand a
            # ``session.json.tmp<pid>`` as the only copy of the state.
            self._drain_state()
            emit(
                {"ok": True, "event": "drained", "stats": self.session.stats()}
            )
        finally:
            if install_signals and previous_handler is not None:
                signal.signal(signal.SIGTERM, previous_handler)
        self.release_state()
        self.session.close()
        return 0
