"""Tests for the benchmark's helpers: run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import harness
import run
import serve
import serve_reference
import tracing
from conftest import ROOT


# -- the tail rule ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [
        (8, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (576, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_tail_names_percentile_and_sample_count():
    samples = list(range(1, 577))
    label, value = harness.tail(samples)
    assert label == "p95 of 576"
    assert value == pytest.approx(harness.percentile(samples, 95))
    assert sum(1 for s in samples if s > value) >= harness.MIN_BEYOND


def test_tail_of_a_small_sample_is_its_labelled_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == ("max of 3", 3.0)


def test_failed_requests_sort_beyond_every_answer():
    samples = [1.0] * 30 + [float("inf")] * 2
    assert harness.percentile(samples, 50) == 1.0
    assert harness.percentile(samples, 100) == float("inf")
    label, value = harness.tail(samples)
    assert (label, value) == ("p50 of 32", 1.0)


def test_a_stall_in_one_stretch_of_the_run_sets_the_tail():
    samples = [1.0] * 960
    samples[10:70] = [50.0] * 60  # one stall, early in the run
    assert harness.tail(samples) == ("p95 of 960", 50.0)


def test_percentile_interpolates_linearly():
    assert harness.percentile([4, 1, 3, 2], 50) == 2.5
    assert harness.percentile([1, 2, 3, 4, 5], 100) == 5
    assert harness.percentile([7], 95) == 7
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# -- open-loop accounting -------------------------------------------------------------


def test_open_loop_latency_runs_from_the_due_time():
    latency, lateness = harness.open_loop_timing(due=1.0, sent=1.25, done=1.5)
    assert latency == pytest.approx(0.5)
    assert lateness == pytest.approx(0.25)


def test_a_request_sent_early_is_never_negatively_late():
    assert harness.open_loop_timing(due=2.0, sent=1.999, done=2.1)[1] == 0.0


def test_open_loop_schedule_is_evenly_spaced():
    assert harness.open_loop_schedule(3, 100.0, 5.0) == pytest.approx([5.0, 5.01, 5.02])
    with pytest.raises(ValueError):
        harness.open_loop_schedule(3, 0.0, 5.0)


# -- self time and the unattributed remainder ---------------------------------------


def test_union_length_merges_overlaps_and_ignores_empty_intervals():
    assert harness.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4


def test_self_time_subtracts_the_union_of_clipped_children():
    # Children overlap each other (1-3, 2-5) and one pokes past the end.
    assert harness.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)]) == 5.0


def _span(span_id, name, start, end, parent=None, rid=None):
    return tracing.Span(span_id, name, start, end, parent, rid)


def test_nested_span_self_times_add_up_to_the_root():
    spans = [
        _span(0, "matchers.predict", 0.0, 10.0),
        _span(1, "text.extract", 1.0, 7.0, parent=0),
        _span(2, "text.extract", 2.0, 3.0, parent=1),
        _span(3, "runtime.persist", 8.0, 9.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own == {0: 3.0, 1: 5.0, 2: 1.0, 3: 1.0}
    assert sum(own.values()) == 10.0
    layers = tracing.layer_times(spans)
    assert layers["matchers.predict_s"] == 3.0
    assert layers["text.extract_s"] == 6.0
    assert layers["runtime.persist_s"] == 1.0


def test_unattributed_is_the_window_no_span_covers():
    spans = [_span(0, "a", 1.0, 3.0), _span(1, "b", 2.0, 4.0), _span(2, "c", 9.0, 15.0)]
    assert tracing.unattributed(spans, 0.0, 10.0) == pytest.approx(6.0)
    assert tracing.in_window(spans, 0.0, 5.0) == spans[:2]


def test_a_coalesced_batch_is_charged_to_each_of_its_requests():
    spans = [
        _span(0, "serve.query_batch", 0.0, 0.004, rid=("q1", "q2")),
        _span(1, "serve.add_records", 0.005, 0.006, rid=("a1",)),
    ]
    charged = tracing.request_session_seconds(spans)
    assert charged == pytest.approx({"q1": 0.004, "q2": 0.004, "a1": 0.001})


# -- the tracer ------------------------------------------------------------------------


def test_tracer_records_parents_and_survives_exceptions():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        raise RuntimeError("boom")

    def outer():
        with pytest.raises(RuntimeError):
            tracer.call("inner", inner, (), {})
        return "done"

    assert tracer.call("outer", outer, (), {}) == "done"
    inner_span, outer_span = tracer.spans
    assert (inner_span.name, outer_span.name) == ("inner", "outer")
    assert inner_span.parent == outer_span.span_id
    assert outer_span.parent is None
    assert outer_span.start < inner_span.start < inner_span.end < outer_span.end


def test_wrap_method_names_spans_per_call_and_counts_after_the_span(tmp_path):
    tracer = tracing.Tracer()

    class Matcher:
        def __init__(self, name):
            self.name = name

        def predict(self, pairs):
            return [0] * len(pairs)

    tracing.wrap_method(
        tracer,
        Matcher,
        "predict",
        lambda args: f"predict.{args[0].name}",
        after=lambda result, args: tracer.count("pairs", len(args[1])),
    )
    assert Matcher("SA").predict([1, 2, 3]) == [0, 0, 0]
    assert [span.name for span in tracer.spans] == ["predict.SA"]
    assert tracer.counts == {"pairs": 3}

    tracer.dump(tmp_path / "spans.json")
    spans, counts = tracing.load_dump(tmp_path / "spans.json")
    assert spans == tracer.spans
    assert counts == {"pairs": 3}


# -- serve-mix: the replay log and the offline replay -----------------------------------


def _request(rid, op, sent, done, response):
    return serve.Request(rid, op, b"", {"record_id": rid}, sent=sent, done=done, response=response)


def test_replay_log_bounds_each_query_by_acknowledged_and_sent_adds():
    ok = {"ok": True, "result": {}}
    requests = [
        _request("a1", "add", 0.0, 1.0, {"ok": True, "records": 11}),
        _request("q1", "query", 1.5, 2.0, ok),  # after a1's ack, before a2
        _request("a2", "add", 1.8, 2.5, {"ok": True, "records": 12}),
        _request("q2", "query", 1.9, 3.0, ok),  # a2 in flight: prefix 1 or 2
        _request("q3", "query", 0.5, 0.9, ok),  # before any add
    ]
    log = serve.build_log(10, requests)
    assert [add["pos"] for add in log["adds"]] == [1, 2]
    windows = {q["record"]["record_id"]: (q["lo"], q["hi"]) for q in log["queries"]}
    assert windows == {"q1": (1, 2), "q2": (1, 2), "q3": (0, 1)}


class _FakeSession:
    """Answers a probe with the ids of the records added so far."""

    def __init__(self):
        self.added = []

    def __len__(self):
        return 100 + len(self.added)

    def add_records(self, records):
        self.added.extend(record.record_id for record in records)

    def query_batch(self, records, k):
        state = list(self.added)
        return [
            SimpleNamespace(to_dict=lambda probe=probe: {"query_id": probe.record_id, "seen": state})
            for probe in records
        ]


def _record(rid):
    return {"record_id": rid, "source": "b", "values": {}}


def test_offline_replay_accepts_any_prefix_inside_the_window():
    log = {
        "adds": [{"pos": 1, "record": _record("a1")}, {"pos": 2, "record": _record("a2")}],
        "queries": [
            {"record": _record("q1"), "lo": 0, "hi": 2, "result": {"query_id": "q1", "seen": ["a1"]}},
            {"record": _record("q2"), "lo": 2, "hi": 2, "result": {"query_id": "q2", "seen": ["a1", "a2"]}},
        ],
    }
    verdict = serve_reference.replay(_FakeSession(), log)
    assert verdict["verified"] == 2
    assert verdict["n_mismatches"] == 0
    assert verdict["final_records"] == 102


def test_offline_replay_rejects_an_answer_outside_the_window():
    log = {
        "adds": [{"pos": 1, "record": _record("a1")}],
        # The served answer saw a1, but a1 could not have run before it.
        "queries": [{"record": _record("q1"), "lo": 0, "hi": 0, "result": {"query_id": "q1", "seen": ["a1"]}}],
    }
    verdict = serve_reference.replay(_FakeSession(), log)
    assert verdict["n_mismatches"] == 1
    assert verdict["mismatches"] == ["q1"]


# -- results and BENCHMARK.json ----------------------------------------------------------------


def test_result_line_has_exactly_the_contract_keys():
    line = harness.result_line(True, 3, 0, {"setup_s": (0.5, "s")})
    payload = json.loads(line)
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    assert payload["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}


def test_expected_digests_fail_a_changed_or_unknown_key(tmp_path):
    path = tmp_path / "expected.json"
    path.write_text(json.dumps({"scale:3": "abc"}), encoding="utf-8")
    expected = harness.ExpectedDigests(path)
    assert expected.matches("scale:3", "abc")
    assert not expected.matches("scale:3", "abd")
    assert not expected.matches("scale:4", "abc")
    assert expected.describe("scale:4") == "no expected digest for scale:4"


def test_committed_digests_cover_every_input_a_run_can_draw():
    import scale

    expected = harness.ExpectedDigests()
    keys = {f"audit:{d}" for d in ("Ds1", "Dt1")}
    keys |= {f"scale:{scale.config_for(seed).seed}" for seed in range(3 * scale.SWEEP_SEEDS)}
    assert keys <= set(expected.digests)


def test_digest_compares_floats_exactly():
    assert harness.digest_of({"f1": 0.1 + 0.2}) != harness.digest_of({"f1": 0.3})
    assert harness.digest_of({"b": 1, "a": 2}) == harness.digest_of({"a": 2, "b": 1})


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["audit-cold", "scale-shards", "serve-mix"]


def test_per_layer_metrics_fill_layers_a_workload_never_entered():
    outcome = {
        "layers": {"blocking.candidates": (4.0, "count"), "blocking.matching_candidates": (1.0, "count")},
        "e2e": {"setup_s": (2.0, "s")},
    }
    metrics = run.per_layer_metrics(outcome)
    assert list(metrics) == list(run.PER_LAYER)
    assert metrics["blocking.pq"] == (0.25, "1")
    assert metrics["traced.setup_s"] == (2.0, "s")
    assert metrics["serve.batches"] == (0.0, "count")


def test_window_reports_wall_time_and_the_steal_inside_it(monkeypatch):
    steal = iter([10.0, 10.8])
    clock = iter([100.0, 104.0])
    monkeypatch.setattr(harness, "steal_seconds", lambda: next(steal))
    monkeypatch.setattr(harness.time, "perf_counter", lambda: next(clock))
    with harness.Window() as window:
        pass
    assert window.wall == 4.0
    assert window.stolen == pytest.approx(0.8)


def test_windowed_layers_average_over_jobs():
    spans = [
        _span(0, "text.extract", 0.0, 2.0),
        _span(1, "text.extract", 10.0, 13.0),
    ]
    layers = tracing.windowed_layers(spans, [(0.0, 4.0, 0.5), (10.0, 16.0, 0.5)])
    assert layers["text.extract_s"][0] == pytest.approx((2.0 + 3.0) / 2)
    assert layers["trace.unattributed_s"][0] == pytest.approx((2.0 + 3.0) / 2)
    assert layers["trace.unattributed_share"][0] == pytest.approx(0.5)
