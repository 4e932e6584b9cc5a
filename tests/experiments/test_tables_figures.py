"""Tests for the table/figure builders on a reduced-scale runner.

The full experiment suite is exercised by ``benchmarks/``; these tests
check the builders' mechanics (shapes, labels, derived values) on two
cheap datasets through a half-scale runner with a stubbed sweep.
"""

from __future__ import annotations

import pytest

from repro.core.practical import PracticalMeasures
from repro.experiments.figures import _linearity_series, _practical_series
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.tables import _established_provenance


@pytest.fixture(scope="module")
def half_runner(tmp_path_factory) -> ExperimentRunner:
    return ExperimentRunner(
        RunnerConfig(
            scale=0.5, seed=0, cache_dir=tmp_path_factory.mktemp("cache")
        )
    )


class TestLinearitySeries:
    def test_series_structure(self, half_runner):
        figure = _linearity_series(half_runner, ("Ds5", "Ds7"))
        assert set(figure) == {"Ds5", "Ds7"}
        for series in figure.values():
            assert set(series) == {
                "f1_cosine",
                "threshold_cosine",
                "f1_jaccard",
                "threshold_jaccard",
            }
            assert 0.0 <= series["f1_cosine"] <= 1.0

    def test_ds7_half_scale_still_trivial(self, half_runner):
        figure = _linearity_series(half_runner, ("Ds7",))
        assert figure["Ds7"]["f1_cosine"] > 0.95


class TestPracticalSeries:
    def test_series_from_sweep(self, half_runner):
        figure = _practical_series(half_runner, ("Ds5",))
        series = figure["Ds5"]
        assert set(series) == {
            "nlb",
            "lbm",
            "best_linear_f1",
            "best_non_linear_f1",
        }
        assert series["nlb"] == pytest.approx(
            series["best_non_linear_f1"] - series["best_linear_f1"]
        )
        assert series["lbm"] == pytest.approx(
            1.0 - max(series["best_linear_f1"], series["best_non_linear_f1"])
        )


class TestProvenance:
    def test_established_provenance(self, half_runner):
        pair_completeness, pairs_quality, imbalance = _established_provenance(
            half_runner, "Ds5"
        )
        assert 0.0 < pair_completeness <= 1.0
        assert pairs_quality == imbalance  # PQ == IR for labeled candidates
        task = half_runner.established_task("Ds5")
        assert imbalance == pytest.approx(task.all_pairs().imbalance_ratio)


class TestAssessmentIntegration:
    def test_assessment_with_practical(self, half_runner):
        assessment = half_runner.assessment("Ds5", with_practical=True)
        assert assessment.has_practical
        assert isinstance(assessment.practical, PracticalMeasures)
        summary = assessment.summary()
        assert {"nlb", "lbm", "challenging"} <= set(summary)

    def test_assessment_cached(self, half_runner):
        first = half_runner.assessment("Ds5", with_practical=False)
        second = half_runner.assessment("Ds5", with_practical=False)
        assert first is second

    def test_linearity_shortcut(self, half_runner):
        linearity = half_runner.linearity("Ds5")
        assert set(linearity) == {"cosine", "jaccard"}
