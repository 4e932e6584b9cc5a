"""Unit tests for the trace-span half of :mod:`repro.obs`."""

from __future__ import annotations

import json

import pytest

from repro.obs import new_run_id
from repro.obs.spans import Span, TraceCollector, read_trace


class TestSpanNesting:
    def test_nested_spans_record_parentage(self):
        collector = TraceCollector()
        with collector.span("sweep", dataset="Ds4") as outer:
            with collector.span("matcher", matcher="DITTO (15)") as inner:
                pass
        spans = collector.spans()
        assert [span.name for span in spans] == ["matcher", "sweep"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_a_parent(self):
        collector = TraceCollector()
        with collector.span("sweep") as outer:
            with collector.span("matcher", matcher="a") as first:
                pass
            with collector.span("matcher", matcher="b") as second:
                pass
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id

    def test_exception_marks_span_failed_and_propagates(self):
        collector = TraceCollector()
        with pytest.raises(ValueError, match="boom"):
            with collector.span("sweep"):
                raise ValueError("boom")
        (span,) = collector.spans()
        assert span.status == "failed"
        assert "ValueError" in span.error

    def test_mark_degraded_does_not_override_failed(self):
        span = Span(
            span_id="x", parent_id=None, name="s", attributes={}, start_time=0.0
        )
        span.mark_degraded()
        assert span.status == "degraded"
        span.set_status("failed")
        span.mark_degraded()
        assert span.status == "failed"

    def test_timings_are_recorded(self):
        collector = TraceCollector()
        with collector.span("unit"):
            sum(range(1000))
        (span,) = collector.spans()
        assert span.wall_seconds >= 0.0
        assert span.cpu_seconds >= 0.0

    def test_disabled_collector_records_nothing(self):
        collector = TraceCollector(enabled=False)
        with collector.span("sweep", dataset="Ds4") as span:
            pass
        assert collector.spans() == []
        assert span.span_id == "disabled"


class TestTraceFile:
    def test_spans_append_to_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        collector = TraceCollector()
        collector.attach_file(path, run_id="run1")
        with collector.span("sweep", dataset="Ds4"):
            pass
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["run"] == "run1"
        assert entry["name"] == "sweep"
        assert entry["attrs"] == {"dataset": "Ds4"}

    def test_read_trace_groups_by_run_and_skips_garbage(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        collector = TraceCollector()
        for run in ("run1", "run2"):
            collector.attach_file(path, run_id=run)
            with collector.span("sweep", dataset="Ds4"):
                pass
        with path.open("a") as handle:
            handle.write('{"truncated": ')  # crash mid-append
        runs = read_trace(path)
        assert sorted(runs) == ["run1", "run2"]
        assert [span.name for span in runs["run1"]] == ["sweep"]

    def test_roundtrip_preserves_identity(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        collector = TraceCollector()
        collector.attach_file(path, run_id=new_run_id())
        with collector.span("sweep", dataset="Ds4"):
            pass
        (original,) = collector.spans()
        ((_, [reloaded]),) = read_trace(path).items()
        assert reloaded.identity() == original.identity()
        assert reloaded.span_id == original.span_id
