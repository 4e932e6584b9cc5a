"""Unit tests for the trace-span half of :mod:`repro.obs`."""

from __future__ import annotations

import json

import pytest

from repro.obs import new_run_id
from repro.obs.spans import Span, TraceCollector, read_trace, self_times


def attached(tmp_path, run_id: str = "run1") -> TraceCollector:
    """A collector writing to ``tmp_path/trace.jsonl``."""
    collector = TraceCollector()
    collector.attach_file(tmp_path / "trace.jsonl", run_id=run_id)
    return collector


def written(tmp_path) -> list[Span]:
    """Every span in ``tmp_path/trace.jsonl``, in file order."""
    return [
        span
        for spans in read_trace(tmp_path / "trace.jsonl").values()
        for span in spans
    ]


class TestSpanNesting:
    def test_nested_spans_record_parentage(self, tmp_path):
        collector = attached(tmp_path)
        with collector.span("sweep", dataset="Ds4") as outer:
            with collector.span("matcher", matcher="DITTO (15)") as inner:
                pass
        spans = written(tmp_path)
        assert [span.name for span in spans] == ["matcher", "sweep"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert spans[0].parent_id == spans[1].span_id

    def test_siblings_share_a_parent(self, tmp_path):
        collector = attached(tmp_path)
        with collector.span("sweep") as outer:
            with collector.span("matcher", matcher="a") as first:
                pass
            with collector.span("matcher", matcher="b") as second:
                pass
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id

    def test_exception_marks_span_failed_and_propagates(self, tmp_path):
        collector = attached(tmp_path)
        with pytest.raises(ValueError, match="boom"):
            with collector.span("sweep"):
                raise ValueError("boom")
        (span,) = written(tmp_path)
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

    def test_timings_are_recorded(self, tmp_path):
        collector = attached(tmp_path)
        with collector.span("unit"):
            sum(range(1000))
        (span,) = written(tmp_path)
        assert span.wall_seconds >= 0.0
        assert span.cpu_seconds >= 0.0

    def test_disabled_collector_records_nothing(self, tmp_path):
        collector = TraceCollector(enabled=False)
        collector.attach_file(tmp_path / "trace.jsonl", run_id="run1")
        with collector.span("sweep", dataset="Ds4") as span:
            pass
        assert written(tmp_path) == []
        assert span.span_id == "untraced"

    def test_span_without_a_trace_file_only_times_itself(self):
        collector = TraceCollector()
        with collector.span("serve.batch") as span:
            assert collector.current_span_id() is None
            assert collector.annotate(size=1) is False
            sum(range(1000))
        assert span.span_id == "untraced"
        assert span.wall_seconds > 0.0

    def test_annotate_reaches_only_open_spans(self, tmp_path):
        collector = attached(tmp_path)
        with collector.span("sweep"):
            assert collector.annotate(level="full")
        assert collector.annotate(level="shed") is False
        (span,) = written(tmp_path)
        assert span.attributes == {"level": "full"}


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
        with collector.span("sweep", dataset="Ds4") as original:
            pass
        ((_, [reloaded]),) = read_trace(path).items()
        assert reloaded.identity() == original.identity()
        assert reloaded.span_id == original.span_id


def _span(span_id, parent, name, wall) -> Span:
    return Span(
        span_id=span_id, parent_id=parent, name=name, attributes={},
        start_time=0.0, wall_seconds=wall,
    )


class TestSelfTimes:
    def test_children_are_subtracted_and_names_summed(self):
        spans = [
            _span("a", None, "sweep", 1.0),
            _span("b", "a", "matchers.dl_fit", 0.6),
            _span("c", "b", "text.extract", 0.25),
            _span("d", "a", "text.extract", 0.15),
        ]
        rows = self_times(spans)
        assert [name for name, __, __ in rows] == [
            "text.extract", "matchers.dl_fit", "sweep",
        ]
        by_name = {name: (count, seconds) for name, count, seconds in rows}
        assert by_name["text.extract"] == (2, pytest.approx(0.4))
        assert by_name["matchers.dl_fit"] == (1, pytest.approx(0.35))
        assert by_name["sweep"] == (1, pytest.approx(0.25))
        assert sum(seconds for __, __, seconds in rows) == pytest.approx(1.0)

    def test_self_time_never_goes_negative(self):
        rows = self_times([
            _span("a", None, "parent", 0.1),
            _span("b", "a", "child", 0.2),
        ])
        assert dict((name, seconds) for name, __, seconds in rows) == {
            "child": 0.2, "parent": 0.0,
        }
