"""Plain-text rendering of every reportable artefact, behind one entry point.

:func:`render` dispatches on the artefact's shape — ``(headers, rows)``
tables, figure series, failure sequences, metrics snapshots
(:func:`repro.obs.metrics.is_metrics_snapshot`) and trace span sequences —
so the CLI and the snapshot path share a single formatting surface.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.experiments.figures import FigureSeries
from repro.obs.metrics import is_metrics_snapshot
from repro.obs.spans import Span
from repro.runtime import FailureRecord


def render(artifact: object, *, title: str | None = None) -> str:
    """Render any reportable artefact as aligned monospaced text.

    Dispatch, by shape:

    * ``(headers, rows)`` 2-tuple — an aligned table;
    * a metrics snapshot (mapping with exactly the
      ``counters``/``gauges``/``timers`` keys) — a metrics table;
    * any other mapping — a :data:`FigureSeries` (label -> series);
    * a sequence of :class:`FailureRecord` — the degraded-units table;
    * a sequence of :class:`~repro.obs.spans.Span` — an indented trace
      tree;
    * an empty sequence — ``""`` (so callers can print unconditionally).
    """
    if isinstance(artifact, tuple) and len(artifact) == 2:
        headers, rows = artifact
        return _table(list(headers), [list(row) for row in rows], title=title)
    if isinstance(artifact, Mapping):
        if is_metrics_snapshot(artifact):
            return _metrics(artifact, title=title)
        return _figure(artifact, title=title)
    if isinstance(artifact, Sequence) and not isinstance(artifact, (str, bytes)):
        if not artifact:
            return ""
        first = artifact[0]
        if isinstance(first, FailureRecord):
            return _failures(artifact, title=title or "Degraded units")
        if isinstance(first, Span):
            return _trace(artifact, title=title or "Trace")
    raise TypeError(
        f"render() cannot dispatch on {type(artifact).__name__}; expected a "
        "(headers, rows) tuple, a figure/metrics mapping, or a sequence of "
        "FailureRecord / Span"
    )


# -- per-shape renderers (internal; reach them through render()) -----------


def _table(
    headers: list[str], rows: list[list[str]], title: str | None = None
) -> str:
    """Align a (headers, rows) table into monospaced text."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    widths = [
        max(len(headers[column]), *(len(row[column]) for row in rows))
        if rows
        else len(headers[column])
        for column in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(header.ljust(width) for header, width in zip(headers, widths))
    )
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def _failures(
    failures: Sequence[FailureRecord], title: str | None = "Degraded units"
) -> str:
    """The run's :class:`FailureRecord` list as an aligned table."""
    if not failures:
        return ""
    headers = ["unit", "phase", "attempts", "error", "elapsed"]
    rows = [
        [
            failure.unit_id,
            failure.phase,
            str(failure.attempts),
            f"{failure.exception_type}: {failure.message}"[:72],
            f"{failure.elapsed_seconds:.2f}s",
        ]
        for failure in failures
    ]
    return _table(headers, rows, title=title)


def _figure(figure: FigureSeries, title: str | None = None) -> str:
    """A figure's series as an aligned dataset x value table."""
    if not figure:
        return title or ""
    value_names = list(next(iter(figure.values())))
    headers = ["dataset", *value_names]
    rows = [
        [label, *(f"{series[name]:.3f}" for name in value_names)]
        for label, series in figure.items()
    ]
    return _table(headers, rows, title=title)


def _metrics(snapshot: Mapping, title: str | None = None) -> str:
    """A metrics snapshot as one aligned name/kind/value table.

    Counters show their count, gauges their last value, timers a compact
    ``n=... total=... mean=...`` summary — one row per metric, sorted by
    name within each kind (the snapshot is already sorted).
    """
    rows: list[list[str]] = []
    for name, value in snapshot["counters"].items():
        rows.append([name, "counter", _number(value)])
    for name, value in snapshot["gauges"].items():
        rows.append([name, "gauge", _number(value)])
    for name, stat in snapshot["timers"].items():
        rows.append(
            [
                name,
                "timer",
                (
                    f"n={stat['count']:.0f} total={stat['total']:.3f}s "
                    f"mean={stat['mean']:.3f}s"
                ),
            ]
        )
    if not rows:
        return title or "Metrics"
    return _table(["metric", "kind", "value"], rows, title=title or "Metrics")


def _number(value: float) -> str:
    """``3`` for whole numbers, ``0.123`` otherwise (stable table cells)."""
    if float(value).is_integer():
        return f"{value:.0f}"
    return f"{value:.3f}"


def _trace(spans: Sequence[Span], title: str | None = "Trace") -> str:
    """A span sequence as an indented parent/child tree.

    Spans whose parent is outside the sequence render as roots; children
    are ordered by start time under each parent.
    """
    if not spans:
        return ""
    by_id = {span.span_id: span for span in spans}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda span: span.start_time)

    lines = [title] if title else []

    def walk(span: Span, depth: int) -> None:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        label = f"{span.name} {attrs}".rstrip()
        lines.append(
            f"{'  ' * depth}{label} [{span.status}] {span.wall_seconds:.3f}s"
        )
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)
