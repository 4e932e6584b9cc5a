"""Hierarchical trace spans: where a regeneration actually spends time.

A *span* covers one named unit of work (``span("sweep", dataset="Ds4")``)
and records wall and CPU seconds, an ok/degraded/failed status, and its
parent span — so a full run yields a tree: sweeps containing matcher
evaluations containing the layers they run (``matchers.dl_fit``,
``text.extract``, ``runtime.persist``, ...), assessments beside them.
When a trace file is attached (a cache directory is configured), each
span is appended as one JSON line to ``trace.jsonl`` as it closes
(append-only, like the checkpoint journal — a crash loses at most the
in-flight span); that file is the only span sink. :func:`self_times`
rolls a run's spans up into self seconds per span name.

Parenting uses a :mod:`contextvars` stack, so spans nest correctly across
the deadline threads of :class:`repro.runtime.policy.ExecutionPolicy`
(which copies its context into the worker thread).
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

#: Allowed span statuses, in increasing severity.
STATUSES = ("ok", "degraded", "failed")

_SPAN_STACK: contextvars.ContextVar[tuple[str, ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)

_SEQUENCE = itertools.count(1)


def _new_span_id() -> str:
    """Span id unique across processes writing one trace file (pid prefix)."""
    return f"{os.getpid():x}-{next(_SEQUENCE):x}"


@dataclass
class Span:
    """One completed unit of traced work."""

    span_id: str
    parent_id: str | None
    name: str
    attributes: dict[str, Any]
    start_time: float
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0
    status: str = "ok"
    error: str | None = None

    def set_status(self, status: str, error: str | None = None) -> None:
        if status not in STATUSES:
            raise ValueError(f"unknown span status {status!r}; expected {STATUSES}")
        self.status = status
        if error is not None:
            self.error = error

    def mark_degraded(self) -> None:
        """Record partial failure without overriding a hard ``failed``."""
        if self.status != "failed":
            self.status = "degraded"

    def identity(self) -> tuple:
        """The id-free identity used to compare traces across runs."""
        return (
            self.name,
            tuple(sorted((k, repr(v)) for k, v in self.attributes.items())),
            self.status,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "attrs": self.attributes,
            "start": round(self.start_time, 6),
            "wall_s": round(self.wall_seconds, 6),
            "cpu_s": round(self.cpu_seconds, 6),
            "status": self.status,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Span":
        return cls(
            span_id=str(payload["span"]),
            parent_id=payload.get("parent"),
            name=str(payload["name"]),
            attributes=dict(payload.get("attrs") or {}),
            start_time=float(payload.get("start", 0.0)),
            wall_seconds=float(payload.get("wall_s", 0.0)),
            cpu_seconds=float(payload.get("cpu_s", 0.0)),
            status=str(payload.get("status", "ok")),
            error=payload.get("error"),
        )


class TraceCollector:
    """Opens spans and appends each closed one to the attached trace file.

    Only open spans stay in memory (for parenting and :meth:`annotate`),
    and only while a trace file is attached: a closed span goes to the
    file, and without one no span is recorded at all.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._active: dict[str, Span] = {}
        self._trace_path: Path | None = None
        self._run_id: str | None = None

    # -- trace file --------------------------------------------------------

    @property
    def run_id(self) -> str | None:
        return self._run_id

    @property
    def trace_path(self) -> Path | None:
        return self._trace_path

    def attach_file(self, path: Path | str, run_id: str) -> None:
        """Append this collector's spans to ``path``, tagged with ``run_id``."""
        self._trace_path = Path(path)
        self._run_id = run_id

    def detach_file(self) -> None:
        self._trace_path = None

    def _write_line(self, span: Span) -> None:
        if self._trace_path is None:
            return
        record = {"run": self._run_id, **span.to_dict()}
        try:
            self._trace_path.parent.mkdir(parents=True, exist_ok=True)
            with self._trace_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            # Tracing must never take a run down; drop the line.
            self.detach_file()

    # -- span lifecycle ----------------------------------------------------

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a child span of whatever span is active in this context.

        With no trace file attached (or tracing disabled) the span has
        nowhere to go: it only times its wall seconds for the caller and
        stays out of the parent stack and the open-span map, so the
        spans on a serving process's per-request path cost next to
        nothing.
        """
        if not self.enabled or self._trace_path is None:
            record = Span(
                span_id="untraced",
                parent_id=None,
                name=name,
                attributes=attributes,
                start_time=0.0,
            )
            started = time.perf_counter()
            try:
                yield record
            finally:
                record.wall_seconds = time.perf_counter() - started
            return
        stack = _SPAN_STACK.get()
        record = Span(
            span_id=_new_span_id(),
            parent_id=stack[-1] if stack else None,
            name=name,
            attributes=attributes,
            start_time=time.time(),
        )
        token = _SPAN_STACK.set(stack + (record.span_id,))
        with self._lock:
            self._active[record.span_id] = record
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            yield record
        except BaseException as exc:
            record.set_status("failed", f"{type(exc).__name__}: {exc}")
            raise
        finally:
            record.wall_seconds = time.perf_counter() - wall_start
            record.cpu_seconds = time.process_time() - cpu_start
            _SPAN_STACK.reset(token)
            with self._lock:
                self._active.pop(record.span_id, None)
            self._write_line(record)

    def current_span_id(self) -> str | None:
        stack = _SPAN_STACK.get()
        return stack[-1] if stack else None

    def annotate(self, **attributes: Any) -> bool:
        """Merge *attributes* into the innermost open span of this context.

        Lets deep layers (the resource guard above all) stamp state onto
        the unit span that is running them — e.g. which budget shed a
        unit — without threading the span object through
        every call. Returns False when no span is open (annotations are
        best-effort, never an error).
        """
        span_id = self.current_span_id()
        if span_id is None:
            return False
        with self._lock:
            record = self._active.get(span_id)
            if record is None:
                return False
            record.attributes.update(attributes)
        return True


def read_trace(path: Path | str) -> dict[str, list[Span]]:
    """Parse a ``trace.jsonl`` file into ``run_id -> spans`` (file order).

    Tolerates a truncated final line (crash mid-append), like the
    checkpoint journal loader.
    """
    source = Path(path)
    runs: dict[str, list[Span]] = {}
    if not source.exists():
        return runs
    for line in source.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(entry, dict) or "span" not in entry:
            continue
        runs.setdefault(str(entry.get("run")), []).append(Span.from_dict(entry))
    return runs


def self_times(spans: list[Span]) -> list[tuple[str, int, float]]:
    """``(name, count, self seconds)`` per span name, largest first.

    A span's self time is its wall time minus its children's (clamped at
    zero), so the rows of one run add up to the wall time of its roots.
    """
    children: dict[str, float] = {}
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id] = (
                children.get(span.parent_id, 0.0) + span.wall_seconds
            )
    totals: dict[str, list] = {}
    for span in spans:
        own = max(0.0, span.wall_seconds - children.get(span.span_id, 0.0))
        row = totals.setdefault(span.name, [0, 0.0])
        row[0] += 1
        row[1] += own
    return sorted(
        ((name, count, seconds) for name, (count, seconds) in totals.items()),
        key=lambda row: (-row[2], row[0]),
    )
