"""Observability acceptance: the spans and counters of real runner sweeps.

A ``sweep_all`` must leave one ``sweep`` span per dataset with its
``matcher`` children, mark injected failures on the matcher span and the
sweep above it, emit a ``cache="hit"`` sweep span on resume, and write
every span to the trace file exactly once.
"""

from __future__ import annotations

import pytest

from repro import obs as obs_module
from repro.obs import TRACE_FILE_NAME, Observability, Span, new_run_id, read_trace
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.runtime import faults

SCALE = 0.3
DATASET = "Ds5"
DATASETS = ("Ds5", "Ds7")
FAILING_MATCHER = "DITTO (15)"


@pytest.fixture(autouse=True)
def clean_faults():
    faults.reset()
    yield
    faults.reset()


def observed_run(
    tmp_path, datasets=DATASETS, cache_dir=None
) -> tuple[Observability, list[Span]]:
    """One sweep_all under a fresh active Observability.

    Returns the instance and the spans of the run. Without a
    *cache_dir* the spans are read from a trace file attached under
    *tmp_path*; with one, from the trace file the runner attaches there.
    """
    handle = Observability()
    if cache_dir is None:
        trace_path = tmp_path / "attached" / TRACE_FILE_NAME
        handle.trace.attach_file(trace_path, run_id=new_run_id())
    else:
        trace_path = cache_dir / TRACE_FILE_NAME
    previous = obs_module.activate(handle)
    try:
        runner = ExperimentRunner(
            config=RunnerConfig(scale=SCALE, cache_dir=cache_dir)
        )
        runner.sweep_all(datasets)
    finally:
        obs_module.activate(previous)
    return handle, read_trace(trace_path)[handle.trace.run_id]


class TestSpanTree:
    def test_one_sweep_span_per_dataset_with_matcher_children(self, tmp_path):
        __, spans = observed_run(tmp_path)
        sweeps = [span for span in spans if span.name == "sweep"]
        assert sorted(span.attributes["dataset"] for span in sweeps) == sorted(
            DATASETS
        )
        sweep_ids = {span.span_id for span in sweeps}
        matchers = [span for span in spans if span.name == "matcher"]
        assert matchers, "expected matcher child spans"
        assert all(span.parent_id in sweep_ids for span in matchers)


class TestDegradedAndCached:
    def test_injected_failure_shows_up_in_matcher_spans(self, tmp_path):
        faults.arm(f"matcher:{FAILING_MATCHER}", "error")
        __, spans = observed_run(tmp_path, datasets=(DATASET,))
        failed = [
            span
            for span in spans
            if span.name == "matcher" and span.status == "failed"
        ]
        assert [span.attributes["matcher"] for span in failed] == [
            FAILING_MATCHER
        ]
        sweeps = [span for span in spans if span.name == "sweep"]
        assert [span.status for span in sweeps] == ["degraded"]

    def test_cache_hit_resume_emits_sweep_spans(self, tmp_path):
        observed_run(tmp_path, datasets=(DATASET,), cache_dir=tmp_path)
        resumed, spans = observed_run(
            tmp_path, datasets=(DATASET,), cache_dir=tmp_path
        )
        (sweep,) = [span for span in spans if span.name == "sweep"]
        assert sweep.attributes == {"dataset": DATASET, "cache": "hit"}
        assert [span for span in spans if span.name == "matcher"] == []
        assert resumed.metrics.counter("cache.hit") == 1.0
        assert resumed.metrics.counter("journal.skip") == 1.0


class TestTraceFile:
    def test_run_writes_every_span_once(self, tmp_path):
        __, spans = observed_run(tmp_path, cache_dir=tmp_path)
        ids = [span.span_id for span in spans]
        assert len(ids) == len(set(ids))
        by_id = {span.span_id: span for span in spans}
        # Every span's parent closed after it, so it is in the file too.
        assert all(
            span.parent_id is None or span.parent_id in by_id for span in spans
        )
        names = {span.name for span in spans}
        assert {"sweep", "matcher", "matchers.dl_fit", "matchers.predict",
                "text.extract", "runtime.persist"} <= names

    def test_injected_inactive_handle_receives_the_layer_spans(self, tmp_path):
        # The runner's own instance, not the active one, must receive
        # the matcher and layer spans its sweep opens.
        handle = Observability()
        bystander = obs_module.active()
        runner = ExperimentRunner(
            config=RunnerConfig(scale=SCALE, cache_dir=tmp_path, obs=handle)
        )
        runner.sweep_all((DATASET,))
        assert obs_module.active() is bystander
        spans = read_trace(tmp_path / TRACE_FILE_NAME)[handle.trace.run_id]
        names = {span.name for span in spans}
        assert {"sweep", "matcher", "text.extract"} <= names
        assert any(
            name.startswith("matchers.") and name.endswith("_fit")
            for name in names
        )
