"""Tests for the verdict-table builder (with stubbed assessments)."""

from __future__ import annotations

import pytest

from repro.core.assessment import BenchmarkAssessment
from repro.core.complexity.profile import MEASURE_NAMES, ComplexityProfile
from repro.core.linearity import LinearityResult
from repro.core.practical import PracticalMeasures
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.tables import verdict_table


def _fake_assessment(name: str, challenging: bool) -> BenchmarkAssessment:
    linearity_value = 0.5 if challenging else 0.95
    complexity_value = 0.5 if challenging else 0.2
    practical = (
        PracticalMeasures(0.15, 0.2, 0.8, 0.65)
        if challenging
        else PracticalMeasures(0.01, 0.01, 0.99, 0.98)
    )
    return BenchmarkAssessment(
        task_name=name,
        linearity={
            "cosine": LinearityResult("cosine", linearity_value, 0.5),
            "jaccard": LinearityResult("jaccard", linearity_value, 0.4),
        },
        complexity=ComplexityProfile(
            scores=dict.fromkeys(MEASURE_NAMES, complexity_value)
        ),
        practical=practical,
    )


@pytest.fixture()
def stub_runner(monkeypatch):
    challenging_set = {"Ds4", "Ds6", "Dd4", "Dt1"}

    def fake_assessment(self, dataset_id, with_practical=True):
        return _fake_assessment(dataset_id, dataset_id in challenging_set)

    monkeypatch.setattr(ExperimentRunner, "assessment", fake_assessment)
    return ExperimentRunner(RunnerConfig(scale=1.0))


class TestVerdictTable:
    def test_all_rows_present(self, stub_runner):
        headers, rows = verdict_table(stub_runner)
        assert len(rows) == 13
        assert headers[0] == "dataset" and headers[-1] == "verdict"

    def test_verdicts_follow_assessments(self, stub_runner):
        __, rows = verdict_table(stub_runner)
        challenging = {row[0] for row in rows if row[-1] == "CHALLENGING"}
        assert challenging == {"Ds4", "Ds6", "Dd4", "Dt1"}

    def test_gate_flags_rendered(self, stub_runner):
        __, rows = verdict_table(stub_runner)
        ds4 = next(row for row in rows if row[0] == "Ds4")
        assert ds4[5:8] == ["no", "no", "no"]
        ds1 = next(row for row in rows if row[0] == "Ds1")
        assert "yes" in ds1[5:8]

    def test_custom_dataset_subset(self, stub_runner):
        __, rows = verdict_table(stub_runner, ("Ds4", "Ds5"))
        assert [row[0] for row in rows] == ["Ds4", "Ds5"]

    def test_percent_formatting(self, stub_runner):
        __, rows = verdict_table(stub_runner, ("Ds4",))
        assert rows[0][3] == "+15.0%"
        assert rows[0][4] == "20.0%"
