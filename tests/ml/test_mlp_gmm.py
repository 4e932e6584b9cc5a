"""Tests for the MLP (highway network) and the Gaussian mixture."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import GaussianMixture, MLPClassifier, f1_score
from repro.ml.mlp import MLPTrajectory


@pytest.fixture(scope="module")
def xor_data():
    rng = np.random.default_rng(1)
    features = rng.uniform(-1, 1, size=(500, 2))
    labels = ((features[:, 0] > 0) ^ (features[:, 1] > 0)).astype(int)
    return features, labels


class TestMlp:
    def test_solves_xor(self, xor_data):
        features, labels = xor_data
        model = MLPClassifier(hidden_size=24, epochs=60, seed=0)
        model.fit(features, labels)
        assert f1_score(labels, model.predict(features)) > 0.9

    def test_validation_model_selection(self, xor_data):
        features, labels = xor_data
        split = 350
        model = MLPClassifier(hidden_size=24, epochs=25, seed=0)
        model.fit(
            features[:split],
            labels[:split],
            validation_features=features[split:],
            validation_labels=labels[split:],
        )
        assert len(model.validation_f1_history_) == 25
        # The kept parameters reproduce the best recorded validation F1.
        best = max(model.validation_f1_history_)
        achieved = f1_score(labels[split:], model.predict(features[split:]))
        assert achieved == pytest.approx(best, abs=1e-9)

    def test_deterministic(self, xor_data):
        features, labels = xor_data
        first = MLPClassifier(epochs=5, seed=9).fit(features, labels)
        second = MLPClassifier(epochs=5, seed=9).fit(features, labels)
        np.testing.assert_allclose(
            first.predict_proba(features), second.predict_proba(features)
        )

    @pytest.mark.parametrize("with_validation", [True, False])
    def test_resumed_trajectory_equals_fresh_fits(self, xor_data, with_validation):
        features, labels = xor_data
        split = 350
        validation = (
            (features[split:], labels[split:]) if with_validation else (None, None)
        )
        trajectory = MLPTrajectory(
            MLPClassifier(hidden_size=8, seed=3), features[:split], labels[:split],
            *validation,
        )
        resumed = {}
        for epochs in (4, 20):
            trajectory.run_to(epochs)
            resumed[epochs] = trajectory.export(MLPClassifier(hidden_size=8, seed=3))
        for epochs, model in resumed.items():
            fresh = MLPClassifier(hidden_size=8, epochs=epochs, seed=3).fit(
                features[:split], labels[:split], *validation
            )
            assert model.validation_f1_history_ == fresh.validation_f1_history_
            expected_length = epochs if with_validation else 0
            assert len(model.validation_f1_history_) == expected_length
            for mine, theirs in zip(model._params, fresh._params):
                assert np.array_equal(mine, theirs)
        if with_validation:
            # The curve moves, so a resume from the wrong state would show.
            assert len(set(resumed[20].validation_f1_history_)) > 1

    def test_no_highway_layers(self, xor_data):
        features, labels = xor_data
        model = MLPClassifier(n_highway=0, epochs=40, seed=0)
        model.fit(features, labels)
        assert f1_score(labels, model.predict(features)) > 0.85

    def test_probabilities_in_bounds(self, xor_data):
        features, labels = xor_data
        model = MLPClassifier(epochs=3, seed=0).fit(features, labels)
        probabilities = model.predict_proba(features)
        assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(np.zeros((2, 2)))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_size=0)
        with pytest.raises(ValueError):
            MLPClassifier(n_highway=-1)
        with pytest.raises(ValueError):
            MLPClassifier(epochs=0)


class TestGaussianMixture:
    def test_separates_two_blobs(self):
        rng = np.random.default_rng(0)
        low = rng.normal(0.1, 0.05, size=(120, 2))
        high = rng.normal(0.9, 0.05, size=(60, 2))
        mixture = GaussianMixture(n_components=2, seed=0).fit(
            np.vstack((low, high))
        )
        assert mixture.converged_
        match = mixture.match_component()
        assignments = mixture.predict(np.vstack((low, high)))
        # The high-mean blob should map to the match component.
        assert np.mean(assignments[120:] == match) > 0.95
        assert np.mean(assignments[:120] == match) < 0.05

    def test_responsibilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 3))
        mixture = GaussianMixture(n_components=2, seed=1).fit(data)
        responsibilities = mixture.predict_proba(data)
        np.testing.assert_allclose(responsibilities.sum(axis=1), 1.0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(4)
        mixture = GaussianMixture(n_components=3, seed=2).fit(
            rng.normal(size=(90, 2))
        )
        assert mixture.weights_ is not None
        assert mixture.weights_.sum() == pytest.approx(1.0)

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            GaussianMixture(n_components=5).fit(np.zeros((3, 2)))

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianMixture().predict_proba(np.zeros((2, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(80, 2))
        first = GaussianMixture(seed=6).fit(data).predict(data)
        second = GaussianMixture(seed=6).fit(data).predict(data)
        np.testing.assert_array_equal(first, second)
