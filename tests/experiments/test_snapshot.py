"""Tests for the experiment snapshot (with stubbed builders)."""

from __future__ import annotations

import json

import pytest

import repro.experiments.snapshot as snapshot_module
from repro.experiments.paper_comparison import DatasetComparison
from repro.experiments.runner import ExperimentRunner, RunnerConfig


@pytest.fixture()
def stubbed(monkeypatch):
    """Stub out the heavy builders so the snapshot shape can be tested."""

    def fake_table(runner):
        return (["a", "b"], [["1", "2"]])

    def fake_figure(runner):
        return {"D": {"x": 0.5}}

    comparison = DatasetComparison(
        dataset="D",
        paper_best_dl=90.0, paper_best_ml=80.0, paper_best_linear=70.0,
        measured_best_dl=88.0, measured_best_ml=79.0, measured_best_linear=71.0,
        paper_challenging=True, measured_challenging=True,
    )

    for name in ("table3", "table4", "table5", "table6", "table7"):
        monkeypatch.setattr(snapshot_module.tables, name, fake_table)
    for name in ("figure1", "figure2", "figure3", "figure4", "figure5", "figure6"):
        monkeypatch.setattr(snapshot_module.figures, name, fake_figure)
    monkeypatch.setattr(
        snapshot_module, "compare_all", lambda runner: ([comparison], [comparison])
    )

    class FakeAssessment:
        def summary(self):
            return {"task": "D", "challenging": True}

    monkeypatch.setattr(
        ExperimentRunner,
        "assessment",
        lambda self, dataset_id, with_practical=True: FakeAssessment(),
    )
    return ExperimentRunner(RunnerConfig(scale=1.0))


class TestSnapshot:
    def test_shape(self, stubbed):
        snapshot = snapshot_module.take_snapshot(stubbed)
        assert set(snapshot["tables"]) == {
            "table3", "table4", "table5", "table6", "table7"
        }
        assert set(snapshot["figures"]) == {
            "fig1", "fig2", "fig3", "fig4", "fig5", "fig6"
        }
        assert snapshot["comparisons"]["established"][0]["dataset"] == "D"
        assert len(snapshot["verdicts_established"]) == 13

    def test_json_serializable_and_saved(self, stubbed, tmp_path):
        path = tmp_path / "snapshot.json"
        snapshot = snapshot_module.save_snapshot(stubbed, path)
        loaded = json.loads(path.read_text())
        assert loaded["size_factor"] == snapshot["size_factor"] == 1.0
        assert loaded["tables"]["table3"]["headers"] == ["a", "b"]
