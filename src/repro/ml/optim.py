"""Adam over one flat parameter buffer, and the views that shape it."""

from __future__ import annotations

import math

import numpy as np


def flat_views(
    buffer: np.ndarray, shapes: list[tuple[int, ...]]
) -> list[np.ndarray]:
    """Consecutive views of the flat *buffer*, one per shape, in order."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buffer[offset : offset + size].reshape(shape))
        offset += size
    return views


def flatten(arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy *arrays* into one float64 buffer; return it and views shaped like them."""
    buffer = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    return buffer, flat_views(buffer, [np.shape(a) for a in arrays])


class Adam:
    """Adam on one flat float64 parameter buffer, updated in place.

    A model keeps its parameters as views into that buffer (see
    :func:`flatten`) and its gradients as views into a second one, so one
    step is a fixed handful of elementwise numpy calls however many arrays
    the model has. Each element follows the textbook operation order::

        m = m*b1 + ((1-b1)*g)
        v = v*b2 + (((1-b2)*g)*g)
        p -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
    """

    def __init__(
        self,
        parameters: np.ndarray,
        learning_rate: float = 1e-2,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if parameters.ndim != 1 or parameters.size == 0:
            raise ValueError(
                f"Adam requires a non-empty flat buffer, got shape {parameters.shape}"
            )
        self.parameters = parameters
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._m = np.zeros_like(parameters)
        self._v = np.zeros_like(parameters)
        self._scratch = np.empty_like(parameters)
        self._denominator = np.empty_like(parameters)
        self._t = 0

    def step(self, gradient: np.ndarray) -> None:
        """Apply one update; *gradient* is shaped like the parameter buffer."""
        if gradient.shape != self.parameters.shape:
            raise ValueError(
                f"got a gradient of shape {gradient.shape} for parameters of "
                f"shape {self.parameters.shape}"
            )
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        m, v, scratch, denominator = self._m, self._v, self._scratch, self._denominator
        np.multiply(m, self.beta1, out=m)
        np.multiply(gradient, 1.0 - self.beta1, out=scratch)
        np.add(m, scratch, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(gradient, 1.0 - self.beta2, out=scratch)
        np.multiply(scratch, gradient, out=scratch)
        np.add(v, scratch, out=v)
        np.divide(v, bias2, out=denominator)
        np.sqrt(denominator, out=denominator)
        np.add(denominator, self.epsilon, out=denominator)
        np.divide(m, bias1, out=scratch)
        np.multiply(scratch, self.learning_rate, out=scratch)
        np.divide(scratch, denominator, out=scratch)
        np.subtract(self.parameters, scratch, out=self.parameters)
