"""Runner wiring of the content-addressed feature-matrix cache."""

from __future__ import annotations

from repro import obs
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.obs import Observability


class TestRunnerFeatureCache:
    def test_envelopes_persist_and_warm_the_next_run(self, tmp_path):
        runner = ExperimentRunner(RunnerConfig(scale=0.5, cache_dir=tmp_path))
        first = runner.matcher_results("Ds5")
        features_dir = tmp_path / "features"
        assert list(features_dir.glob("features_*.json"))

        # Drop the suite-level result envelopes so the next runner must
        # re-run every matcher — but keep the feature matrices.
        for envelope in tmp_path.glob("suite_*.json"):
            envelope.unlink()
        with obs.use(Observability()):
            clone = ExperimentRunner(
                RunnerConfig(scale=0.5, cache_dir=tmp_path)
            )
            second = clone.matcher_results("Ds5")
            assert obs.counter("features.cache_hit") > 0
        assert {name: result.f1 for name, result in first.items()} == {
            name: result.f1 for name, result in second.items()
        }

    def test_feature_cache_disabled_by_config(self, tmp_path):
        runner = ExperimentRunner(
            RunnerConfig(scale=0.5, cache_dir=tmp_path, feature_cache=False)
        )
        assert runner.feature_cache is None

    def test_feature_cache_needs_a_cache_dir(self):
        assert ExperimentRunner(RunnerConfig(scale=0.5)).feature_cache is None
