"""Observability acceptance: the spans and counters of real runner sweeps.

A ``sweep_all`` must leave one ``sweep`` span per dataset with its
``matcher`` children, mark injected failures on the matcher span and the
sweep above it, emit a ``cache="hit"`` sweep span on resume, and write
every span to the trace file exactly once.
"""

from __future__ import annotations

import pytest

from repro import obs as obs_module
from repro.obs import Observability
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


def observed_run(datasets=DATASETS, cache_dir=None) -> Observability:
    """One sweep_all under a fresh active Observability; returns it."""
    handle = Observability()
    previous = obs_module.activate(handle)
    try:
        runner = ExperimentRunner(
            config=RunnerConfig(scale=SCALE, cache_dir=cache_dir)
        )
        runner.sweep_all(datasets)
    finally:
        obs_module.activate(previous)
    return handle


def span_identities(handle: Observability) -> list[tuple]:
    return sorted(span.identity() for span in handle.trace.spans())


class TestSpanTree:
    def test_one_sweep_span_per_dataset_with_matcher_children(self):
        handle = observed_run()
        spans = handle.trace.spans()
        sweeps = [span for span in spans if span.name == "sweep"]
        assert sorted(span.attributes["dataset"] for span in sweeps) == sorted(
            DATASETS
        )
        sweep_ids = {span.span_id for span in sweeps}
        matchers = [span for span in spans if span.name == "matcher"]
        assert matchers, "expected matcher child spans"
        assert all(span.parent_id in sweep_ids for span in matchers)


class TestDegradedAndCached:
    def test_injected_failure_shows_up_in_matcher_spans(self):
        faults.arm(f"matcher:{FAILING_MATCHER}", "error")
        handle = observed_run(datasets=(DATASET,))
        failed = [
            span
            for span in handle.trace.spans()
            if span.name == "matcher" and span.status == "failed"
        ]
        assert [span.attributes["matcher"] for span in failed] == [
            FAILING_MATCHER
        ]
        sweeps = [
            span for span in handle.trace.spans() if span.name == "sweep"
        ]
        assert [span.status for span in sweeps] == ["degraded"]

    def test_cache_hit_resume_emits_sweep_spans(self, tmp_path):
        observed_run(datasets=(DATASET,), cache_dir=tmp_path)
        resumed = observed_run(datasets=(DATASET,), cache_dir=tmp_path)
        spans = resumed.trace.spans()
        (sweep,) = [span for span in spans if span.name == "sweep"]
        assert sweep.attributes == {"dataset": DATASET, "cache": "hit"}
        assert [span for span in spans if span.name == "matcher"] == []
        assert resumed.metrics.counter("cache.hit") == 1.0
        assert resumed.metrics.counter("journal.skip") == 1.0


class TestTraceFile:
    def test_run_writes_every_span_once(self, tmp_path):
        from repro.obs import TRACE_FILE_NAME, read_trace

        handle = observed_run(cache_dir=tmp_path)
        runs = read_trace(tmp_path / TRACE_FILE_NAME)
        (file_spans,) = runs.values()
        assert sorted(s.identity() for s in file_spans) == span_identities(
            handle
        )
