"""Tests for feature scaling and the Adam optimizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.optim import Adam, flat_views, flatten
from repro.ml.scaling import MinMaxScaler, StandardScaler

matrices = st.lists(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3),
    min_size=2,
    max_size=20,
)


class TestStandardScaler:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        data = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        scaled = StandardScaler().fit_transform(data)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_centred(self):
        data = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        scaled = StandardScaler().fit_transform(data)
        np.testing.assert_allclose(scaled[:, 1], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_dimension_mismatch_raises(self):
        scaler = StandardScaler().fit(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            scaler.transform(np.zeros((3, 4)))

    @given(matrices)
    def test_transform_is_affine_invertible(self, rows):
        data = np.asarray(rows)
        scaler = StandardScaler().fit(data)
        scaled = scaler.transform(data)
        recovered = scaled * scaler.scale_ + scaler.mean_
        np.testing.assert_allclose(recovered, data, atol=1e-6)


class TestMinMaxScaler:
    def test_range(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(100, 3)) * 10
        scaled = MinMaxScaler().fit_transform(data)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        np.testing.assert_allclose(scaled.min(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(scaled.max(axis=0), 1.0, atol=1e-12)

    def test_out_of_range_clipped(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        scaled = scaler.transform(np.array([[-5.0], [15.0]]))
        assert scaled[0, 0] == 0.0 and scaled[1, 0] == 1.0

    def test_constant_column_zero(self):
        data = np.full((4, 1), 3.0)
        scaled = MinMaxScaler().fit_transform(data)
        np.testing.assert_allclose(scaled, 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.zeros((2, 2)))


def _list_adam_steps(params, gradient_steps, learning_rate):
    """The per-array Adam update, applied array by array (the reference)."""
    beta1, beta2, epsilon = 0.9, 0.999, 1e-8
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, gradients in enumerate(gradient_steps, start=1):
        bias1 = 1.0 - beta1**t
        bias2 = 1.0 - beta2**t
        for param, grad, m, v in zip(params, gradients, ms, vs):
            m *= beta1
            m += (1.0 - beta1) * grad
            v *= beta2
            v += (1.0 - beta2) * grad * grad
            param -= learning_rate * (m / bias1) / (np.sqrt(v / bias2) + epsilon)


shape_lists = st.lists(
    st.lists(st.integers(1, 5), min_size=0, max_size=2).map(tuple),
    min_size=1,
    max_size=5,
)


class TestAdam:
    def test_minimizes_quadratic(self):
        # Minimize f(x) = ||x - target||^2 from zero.
        target = np.array([3.0, -2.0])
        x = np.zeros(2)
        optimizer = Adam(x, learning_rate=0.1)
        for __ in range(500):
            optimizer.step(2.0 * (x - target))
        np.testing.assert_allclose(x, target, atol=1e-2)

    def test_gradient_count_mismatch_raises(self):
        optimizer = Adam(np.zeros(2))
        with pytest.raises(ValueError):
            optimizer.step(np.zeros(3))

    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            Adam(np.zeros(0))

    def test_updates_in_place(self):
        x = np.ones(3)
        original = x
        Adam(x, learning_rate=0.5).step(np.ones(3))
        assert x is original
        assert not np.allclose(x, 1.0)

    @settings(deadline=None)
    @given(shape_lists, st.integers(0, 2**32 - 1), st.sampled_from([5e-3, 1e-2, 0.3]))
    def test_flat_step_equals_per_array_update(self, shapes, seed, learning_rate):
        rng = np.random.default_rng(seed)
        reference = [rng.normal(scale=3.0, size=shape) for shape in shapes]
        buffer, views = flatten(reference)
        gradient = np.empty_like(buffer)
        gradient_views = flat_views(gradient, shapes)
        gradient_steps = [
            [
                rng.normal(scale=10.0 ** rng.integers(-6, 3), size=shape)
                for shape in shapes
            ]
            for __ in range(40)
        ]
        optimizer = Adam(buffer, learning_rate=learning_rate)
        for gradients in gradient_steps:
            for view, grad in zip(gradient_views, gradients):
                view[...] = grad
            optimizer.step(gradient)
        _list_adam_steps(reference, gradient_steps, learning_rate)
        for view, expected in zip(views, reference):
            assert view.tobytes() == expected.tobytes()
