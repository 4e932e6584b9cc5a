"""Hierarchical trace spans: where a regeneration actually spends time.

A *span* covers one named unit of work (``span("sweep", dataset="Ds4")``)
and records wall and CPU seconds, an ok/degraded/failed status, and its
parent span — so a full run yields a tree: sweeps containing matcher
evaluations containing nothing, assessments beside them. Completed spans
land in an in-memory :class:`TraceCollector` and, when a cache directory
is configured, are appended as one JSON line each to ``trace.jsonl``
(append-only, like the checkpoint journal — a crash loses at most the
in-flight span).

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
from dataclasses import dataclass, field
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


@dataclass
class _ActiveSpan:
    """Book-keeping for a span that is still open (profiler sampling)."""

    span_id: str
    parent_id: str | None
    label: str
    started: float = field(default_factory=time.perf_counter)
    record: "Span | None" = None


class TraceCollector:
    """In-memory span sink plus the optional append-only JSONL trace file."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._active: dict[str, _ActiveSpan] = {}
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
        """Open a child span of whatever span is active in this context."""
        if not self.enabled:
            yield Span(
                span_id="disabled",
                parent_id=None,
                name=name,
                attributes=attributes,
                start_time=0.0,
            )
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
            self._active[record.span_id] = _ActiveSpan(
                span_id=record.span_id,
                parent_id=record.parent_id,
                label=_label(name, attributes),
                record=record,
            )
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
                self._spans.append(record)
            self._write_line(record)

    def current_span_id(self) -> str | None:
        stack = _SPAN_STACK.get()
        return stack[-1] if stack else None

    def annotate(self, **attributes: Any) -> bool:
        """Merge *attributes* into the innermost open span of this context.

        Lets deep layers (the resource guard above all) stamp state onto
        the unit span that is running them — e.g. which degradation level
        a sweep ran under — without threading the span object through
        every call. Returns False when no span is open (annotations are
        best-effort, never an error).
        """
        span_id = self.current_span_id()
        if span_id is None:
            return False
        with self._lock:
            info = self._active.get(span_id)
            if info is None or info.record is None:
                return False
            info.record.attributes.update(attributes)
        return True

    # -- accessors ---------------------------------------------------------

    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def active_spans(self) -> list[_ActiveSpan]:
        with self._lock:
            return list(self._active.values())

    def active_leaf_labels(self) -> list[str]:
        """Labels of active spans with no active children (profiler units)."""
        with self._lock:
            parents = {info.parent_id for info in self._active.values()}
            return [
                info.label
                for info in self._active.values()
                if info.span_id not in parents
            ]

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self._active.clear()


def _label(name: str, attributes: dict[str, Any]) -> str:
    if not attributes:
        return name
    detail = ",".join(f"{key}={value}" for key, value in sorted(attributes.items()))
    return f"{name}[{detail}]"


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
