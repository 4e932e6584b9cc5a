"""The API surface: RunnerConfig, the render() dispatcher, the facade.

Covers the one way to build a runner (a :class:`RunnerConfig`, passed
positionally or as ``config=``) and the shape-dispatch rules of
:func:`repro.experiments.report.render`.
"""

from __future__ import annotations

import pytest

from repro.experiments.report import render
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.obs import Observability
from repro.obs.spans import Span
from repro.runtime import FailureRecord


class TestRunnerConfig:
    def test_canonical_config_form(self):
        config = RunnerConfig(scale=0.5, seed=7)
        runner = ExperimentRunner(config=config)
        assert runner.config is config
        assert runner.scale == 0.5
        assert runner.size_factor == 0.5
        assert runner.seed == 7

    def test_positional_config_form(self):
        runner = ExperimentRunner(RunnerConfig(scale=0.25))
        assert runner.scale == 0.25

    def test_config_is_frozen_and_keyword_only(self):
        config = RunnerConfig(scale=0.5)
        with pytest.raises(AttributeError):
            config.scale = 1.0
        with pytest.raises(TypeError):
            RunnerConfig(0.5)

    def test_config_validates_like_the_legacy_runner(self):
        with pytest.raises(ValueError, match="size_factor must be > 0"):
            RunnerConfig(scale=0)
        with pytest.raises(TypeError, match="size_factor must be a number"):
            RunnerConfig(scale="big")
        with pytest.raises(TypeError, match="seed must be an integer"):
            RunnerConfig(seed=1.5)

    def test_conflicting_forms_are_rejected(self):
        with pytest.raises(TypeError):
            ExperimentRunner(RunnerConfig(), seed=1)
        with pytest.raises(TypeError):
            ExperimentRunner(0.5, config=RunnerConfig())
        with pytest.raises(TypeError, match="takes a RunnerConfig"):
            ExperimentRunner(0.5)
        with pytest.raises(TypeError):
            ExperimentRunner(size_factor=1.0)

    def test_workers_other_than_one_raises(self):
        assert RunnerConfig(workers=1).workers == 1
        for workers in (0, 2):
            with pytest.raises(ValueError, match="process pool was removed"):
                RunnerConfig(workers=workers)

    def test_injected_observability_wins_over_the_active_one(self):
        handle = Observability()
        runner = ExperimentRunner(config=RunnerConfig(obs=handle))
        assert runner.obs is handle

    def test_trace_file_attached_when_cache_dir_set(self, tmp_path):
        handle = Observability()
        ExperimentRunner(
            config=RunnerConfig(cache_dir=tmp_path, obs=handle)
        )
        assert handle.trace.trace_path == tmp_path / "trace.jsonl"
        assert handle.trace.run_id


FAILURE = FailureRecord(
    unit_id="sweep:Ds4",
    phase="sweep",
    attempts=2,
    exception_type="ValueError",
    message="boom",
    elapsed_seconds=1.5,
)


class TestRenderDispatcher:
    def test_table_tuple(self):
        text = render((["a", "bb"], [["1", "2"]]), title="T")
        assert text.splitlines()[0] == "T"
        assert "bb" in text

    def test_figure_mapping(self):
        text = render({"Ds1": {"NLB": 0.25}}, title="F")
        assert "Ds1" in text and "0.250" in text

    def test_metrics_snapshot(self):
        handle = Observability()
        handle.inc("cache.hit", 3)
        handle.observe("fit", 0.5)
        text = render(handle.snapshot())
        assert text.splitlines()[0] == "Metrics"
        assert "cache.hit" in text and "counter" in text
        assert "n=1" in text  # timer summary cell

    def test_failures_sequence(self):
        text = render([FAILURE])
        assert "Degraded units" in text
        assert "sweep:Ds4" in text

    def test_span_sequence_renders_a_tree(self):
        parent = Span(
            span_id="p", parent_id=None, name="sweep",
            attributes={"dataset": "Ds4"}, start_time=0.0, wall_seconds=1.0,
        )
        child = Span(
            span_id="c", parent_id="p", name="matcher",
            attributes={"matcher": "DITTO (15)"}, start_time=1.0,
            wall_seconds=0.5, status="degraded",
        )
        text = render([child, parent])
        lines = text.splitlines()
        assert lines[0] == "Trace"
        assert lines[1].startswith("sweep dataset=Ds4 [ok]")
        assert lines[2].startswith("  matcher matcher=DITTO (15) [degraded]")

    def test_empty_sequence_renders_empty(self):
        assert render([]) == ""

    def test_unknown_artifact_raises(self):
        with pytest.raises(TypeError, match="cannot dispatch"):
            render(42)


class TestPackageFacade:
    def test_star_import_surface(self):
        import repro

        for name in (
            "ExperimentRunner", "RunnerConfig", "default_runner", "render",
            "ExecutionPolicy", "Observability", "obs",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None

    def test_default_runner_importable_from_the_package(self):
        from repro import default_runner

        assert default_runner() is default_runner()  # memoized
