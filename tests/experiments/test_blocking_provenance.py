"""Tests for the ANN blocking-provenance wiring (runner/table/stability)."""

from __future__ import annotations

import pytest

from repro.experiments.cli import main
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.stability import ann_stability
from repro.experiments.tables import blocking_provenance_table


@pytest.fixture(scope="module")
def small_runner() -> ExperimentRunner:
    return ExperimentRunner(RunnerConfig(scale=0.15, seed=0, cache_dir=None))


class TestRunnerProvenance:
    def test_memoized(self, small_runner):
        first = small_runner.blocking_provenance("abt_buy")
        second = small_runner.blocking_provenance("abt_buy")
        assert first is second
        assert set(first) == {"exhaustive", "lsh", "graph"}

    def test_cssr_consistent(self, small_runner):
        from repro.datasets.registry import load_source_pair

        sweep = small_runner.blocking_provenance("abt_buy")
        sources = load_source_pair("abt_buy", 0.15)
        cross = len(sources.left) * len(sources.right)
        for provenance in sweep.values():
            assert provenance.cssr == pytest.approx(
                provenance.result.n_candidates / cross
            )


class TestProvenanceTable:
    def test_structure(self, small_runner):
        headers, rows = blocking_provenance_table(
            small_runner, dataset_ids=("abt_buy",)
        )
        assert headers[0] == "dataset"
        assert [row[1] for row in rows] == ["exhaustive", "lsh", "graph"]
        for row in rows:
            assert len(row) == len(headers)


class TestAnnStability:
    def test_repetition_protocol(self, small_sources):
        summaries = ann_stability(small_sources, repetitions=3)
        assert set(summaries) == {
            "pair_completeness",
            "pairs_quality",
            "n_candidates",
        }
        assert len(summaries["pair_completeness"].values) == 3
        assert 0.0 <= summaries["pair_completeness"].mean <= 1.0

    def test_invalid_repetitions(self, small_sources):
        with pytest.raises(ValueError):
            ann_stability(small_sources, repetitions=0)


class TestBlockingCli:
    def test_blocking_experiment(self, capsys):
        code = main(
            [
                "blocking",
                "--scale", "0.15",
                "--cache", "",
                "--datasets", "abt_buy",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lsh" in out and "graph" in out and "exhaustive" in out

    def test_blocker_filter(self, capsys):
        code = main(
            [
                "blocking",
                "--scale", "0.15",
                "--cache", "",
                "--datasets", "abt_buy",
                "--blocker", "ann",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "exhaustive" not in out

    def test_rejects_established_ids(self, capsys):
        code = main(
            ["blocking", "--cache", "", "--datasets", "Ds1"]
        )
        assert code == 2
        assert "source dataset ids" in capsys.readouterr().out
