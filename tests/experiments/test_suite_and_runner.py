"""Tests for the matcher suite, runner caching and report rendering."""

from __future__ import annotations

import pytest

from repro.experiments.matcher_suite import (
    build_suite,
    degraded_result,
    evaluate_suite,
    family_of,
    linear_f1_scores,
    non_linear_f1_scores,
    practical_from_results,
)
from repro.experiments.report import render
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.matchers.base import MatcherResult
from repro.runtime import clear_recorded_failures, faults, recorded_failures


class TestFamilyOf:
    def test_linear(self):
        assert family_of("SA-ESDE") == "linear"
        assert family_of("SBS-ESDE") == "linear"

    def test_ml(self):
        assert family_of("Magellan-RF") == "ml"
        assert family_of("ZeroER") == "ml"

    def test_dl(self):
        assert family_of("DeepMatcher (15)") == "dl"
        assert family_of("EMTransformer-R (40)") == "dl"
        assert family_of("GNEM (10)") == "dl"


class TestBuildSuite:
    def test_roster_composition(self, handmade_task):
        suite = build_suite(handmade_task)
        names = [matcher.name for matcher in suite]
        assert len(names) == len(set(names))
        families = [family_of(name) for name in names]
        assert families.count("dl") == 12   # 5 methods x 2 epochs (+EMT x2 variants)
        assert families.count("ml") == 5    # Magellan x4 + ZeroER
        assert families.count("linear") == 6

    def test_magellan_heads_share_extractor(self, handmade_task):
        suite = build_suite(handmade_task)
        extractors = {
            id(matcher._extractor)
            for matcher in suite
            if matcher.name.startswith(("Magellan", "ZeroER"))
        }
        assert len(extractors) == 1


class TestEvaluateSuite:
    @pytest.fixture()
    def results(self, handmade_task):
        return evaluate_suite(handmade_task)

    def test_all_matchers_present(self, results, handmade_task):
        assert len(results) == len(build_suite(handmade_task))

    def test_scores_split(self, results):
        linear = linear_f1_scores(results)
        non_linear = non_linear_f1_scores(results)
        assert len(linear) == 6
        assert len(non_linear) == len(results) - 6
        assert not set(linear) & set(non_linear)

    def test_f1_bounds(self, results):
        for result in results.values():
            assert 0.0 <= result.f1 <= 1.0


def _result(name: str, f1: float) -> MatcherResult:
    return MatcherResult(name, "t", f1, f1, f1, 0.0, 0.0)


class TestDegradedExclusion:
    """Regression: degraded placeholders used to pollute NLB/LBM.

    A matcher that failed gets an F1-0.0 placeholder; counting it as a
    real score dragged best-family F1 down (or anchored LBM at 1.0),
    fabricating verdicts from failures.
    """

    def test_degraded_results_excluded_from_scores(self):
        results = {
            "SA-ESDE": _result("SA-ESDE", 0.7),
            "ZeroER": _result("ZeroER", 0.8),
            "DITTO (15)": degraded_result("DITTO (15)", "t"),
        }
        assert "DITTO (15)" not in non_linear_f1_scores(results)
        assert non_linear_f1_scores(results) == {"ZeroER": 0.8}
        assert linear_f1_scores(results) == {"SA-ESDE": 0.7}

    def test_whole_family_degraded_yields_unmeasured(self):
        results = {
            "SA-ESDE": degraded_result("SA-ESDE", "t"),
            "ZeroER": _result("ZeroER", 0.8),
        }
        practical = practical_from_results(results)
        assert not practical.is_measured

    def test_healthy_results_yield_measured(self):
        results = {
            "SA-ESDE": _result("SA-ESDE", 0.7),
            "ZeroER": _result("ZeroER", 0.8),
        }
        practical = practical_from_results(results)
        assert practical.is_measured
        assert practical.non_linear_boost == pytest.approx(0.1)


class TestFailureRegistryScoping:
    """Regression: the module-global failure registry grew without bound
    and double-recorded when a caller also collected failures."""

    @pytest.fixture(autouse=True)
    def clean(self):
        clear_recorded_failures()
        faults.reset()
        yield
        clear_recorded_failures()
        faults.reset()

    def test_caller_supplied_list_suppresses_global_registry(
        self, handmade_task
    ):
        collected = []
        with faults.injected("matcher:SA-ESDE"):
            results = evaluate_suite(handmade_task, failures=collected)
        assert results["SA-ESDE"].degraded
        assert [f.unit_id for f in collected] == [
            f"{handmade_task.name}/SA-ESDE"
        ]
        # Exactly once, and only in the caller's list.
        assert recorded_failures() == []

    def test_global_registry_still_records_and_clears(self, handmade_task):
        with faults.injected("matcher:SA-ESDE"):
            evaluate_suite(handmade_task)
        assert [f.unit_id for f in recorded_failures()] == [
            f"{handmade_task.name}/SA-ESDE"
        ]
        clear_recorded_failures()
        assert recorded_failures() == []


class TestRunner:
    def test_invalid_size_factor(self):
        with pytest.raises(ValueError):
            ExperimentRunner(RunnerConfig(scale=0))

    def test_unknown_dataset(self):
        runner = ExperimentRunner(RunnerConfig())
        with pytest.raises(KeyError):
            runner.task_for("nope")

    def test_established_task_resolution(self):
        runner = ExperimentRunner(RunnerConfig(scale=0.5))
        task = runner.task_for("Ds5")
        assert task.name == "Ds5"

    def test_disk_cache_round_trip(self, tmp_path):
        runner = ExperimentRunner(RunnerConfig(scale=0.5, cache_dir=tmp_path))
        first = runner.matcher_results("Ds5")
        # A fresh runner with the same cache dir loads from disk.
        clone = ExperimentRunner(RunnerConfig(scale=0.5, cache_dir=tmp_path))
        second = clone.matcher_results("Ds5")
        assert {n: r.f1 for n, r in first.items()} == {
            n: r.f1 for n, r in second.items()
        }
        assert list(tmp_path.glob("suite_Ds5_*.json"))

    def test_practical_from_results(self, tmp_path):
        runner = ExperimentRunner(RunnerConfig(scale=0.5, cache_dir=tmp_path))
        practical = runner.practical("Ds5")
        assert -1.0 <= practical.non_linear_boost <= 1.0
        assert 0.0 <= practical.learning_based_margin <= 1.0


class TestReport:
    def test_render_table(self):
        text = render((["a", "bb"], [["1", "2"], ["333", "4"]]), title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_table_validates(self):
        with pytest.raises(ValueError):
            render((["a"], [["1", "2"]]))

    def test_render_figure(self):
        figure = {"D1": {"x": 0.5, "y": 1.0}, "D2": {"x": 0.25, "y": 0.0}}
        text = render(figure, title="F")
        assert "0.500" in text and "0.250" in text

    def test_render_empty_figure(self):
        assert render({}, title="empty") == "empty"


class TestMatcherResult:
    def test_f1_percent(self):
        result = MatcherResult("m", "t", 0.5, 0.5, 0.5, 0.0, 0.0)
        assert result.f1_percent == 50.0
