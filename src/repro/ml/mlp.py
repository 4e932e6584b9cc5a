"""Multi-layer perceptron with optional highway layers.

This is the classification head shared by the deep matchers: DeepMatcher's
paper configuration is "a two-layer fully connected ReLU HighwayNet followed
by a softmax layer" (Section V-B); the other neural matchers reuse the same
trunk with different input representations. Implemented directly on numpy
with manual backpropagation and Adam.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_features, check_labels
from repro.ml.metrics import f1_score
from repro.ml.optim import Adam, flat_views, flatten


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


class MLPClassifier:
    """Binary MLP: dense ReLU input layer, ``n_highway`` highway layers, logit.

    A highway layer computes ``t * relu(Wh x + bh) + (1 - t) * x`` with gate
    ``t = sigmoid(Wt x + bt)``; gates are bias-initialized negative so the
    network starts close to the identity, as in the highway-network paper.

    Training is minibatch Adam on weighted cross-entropy; with
    ``balanced=True`` (the default) the minority class is up-weighted, which
    matters on ER candidate sets where positives can be <1% of pairs.

    ``fit`` supports an optional validation set: the parameters from the
    epoch with the best validation F1 are kept (the model-selection protocol
    the paper enforces on EMTransformer in Section V-B). It trains through
    an :class:`MLPTrajectory`, which can stop at one epoch budget and
    resume to a longer one.
    """

    def __init__(
        self,
        hidden_size: int = 64,
        n_highway: int = 2,
        epochs: int = 30,
        batch_size: int = 64,
        learning_rate: float = 5e-3,
        balanced: bool = True,
        seed: int = 0,
    ) -> None:
        if hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {hidden_size}")
        if n_highway < 0:
            raise ValueError(f"n_highway must be >= 0, got {n_highway}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.hidden_size = hidden_size
        self.n_highway = n_highway
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.balanced = balanced
        self.seed = seed
        self._params: list[np.ndarray] = []
        self._n_features = 0
        self.validation_f1_history_: list[float] = []

    # -- parameter layout -------------------------------------------------
    # params[0], params[1]                  input projection W_in, b_in
    # then per highway layer k:             W_h, b_h, W_t, b_t
    # params[-2], params[-1]                output W_out (hidden,), b_out ()

    def _init_params(self, n_features: int) -> list[np.ndarray]:
        rng = np.random.default_rng(self.seed)
        h = self.hidden_size

        def glorot(shape: tuple[int, int]) -> np.ndarray:
            scale = np.sqrt(6.0 / (shape[0] + shape[1]))
            return rng.uniform(-scale, scale, size=shape)

        params: list[np.ndarray] = [glorot((n_features, h)), np.zeros(h)]
        for __ in range(self.n_highway):
            params.extend(
                [
                    glorot((h, h)),
                    np.zeros(h),
                    glorot((h, h)),
                    np.full(h, -1.0),  # carry-biased gates
                ]
            )
        params.extend([glorot((h, 1))[:, 0], np.zeros(1)])
        return params

    def _forward(
        self, x: np.ndarray, params: list[np.ndarray]
    ) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
        """Return output logits and a cache of intermediates for backprop."""
        caches: list[dict[str, np.ndarray]] = []
        pre_in = x @ params[0] + params[1]
        hidden = _relu(pre_in)
        caches.append({"x": x, "pre": pre_in, "out": hidden})
        cursor = 2
        for __ in range(self.n_highway):
            w_h, b_h, w_t, b_t = params[cursor : cursor + 4]
            cursor += 4
            pre_h = hidden @ w_h + b_h
            candidate = _relu(pre_h)
            pre_t = hidden @ w_t + b_t
            gate = _sigmoid(pre_t)
            out = gate * candidate + (1.0 - gate) * hidden
            caches.append(
                {
                    "x": hidden,
                    "pre_h": pre_h,
                    "candidate": candidate,
                    "gate": gate,
                    "out": out,
                }
            )
            hidden = out
        logits = hidden @ params[-2] + params[-1][0]
        return logits, caches

    def _backward(
        self,
        grad_logits: np.ndarray,
        params: list[np.ndarray],
        caches: list[dict[str, np.ndarray]],
        grads: list[np.ndarray],
    ) -> None:
        """Write the gradient of each parameter into its slot of *grads*."""
        hidden = caches[-1]["out"]
        np.matmul(hidden.T, grad_logits, out=grads[-2])
        grad_logits.sum(axis=0, keepdims=True, out=grads[-1])
        grad_hidden = grad_logits[:, None] * params[-2][None, :]

        cursor = 2 + 4 * (self.n_highway - 1)
        for layer in range(self.n_highway - 1, -1, -1):
            cache = caches[1 + layer]
            w_h, __, w_t, __ = params[cursor : cursor + 4]
            gate = cache["gate"]
            candidate = cache["candidate"]
            x = cache["x"]
            grad_gate = grad_hidden * (candidate - x)
            grad_candidate = grad_hidden * gate
            grad_pre_t = grad_gate * gate * (1.0 - gate)
            grad_pre_h = grad_candidate * (cache["pre_h"] > 0.0)
            np.matmul(x.T, grad_pre_h, out=grads[cursor])
            grad_pre_h.sum(axis=0, out=grads[cursor + 1])
            np.matmul(x.T, grad_pre_t, out=grads[cursor + 2])
            grad_pre_t.sum(axis=0, out=grads[cursor + 3])
            grad_hidden = (
                grad_hidden * (1.0 - gate)
                + grad_pre_h @ w_h.T
                + grad_pre_t @ w_t.T
            )
            cursor -= 4

        input_cache = caches[0]
        grad_pre_in = grad_hidden * (input_cache["pre"] > 0.0)
        np.matmul(input_cache["x"].T, grad_pre_in, out=grads[0])
        grad_pre_in.sum(axis=0, out=grads[1])

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        validation_features: np.ndarray | None = None,
        validation_labels: np.ndarray | None = None,
    ) -> "MLPClassifier":
        trajectory = MLPTrajectory(
            self, features, labels, validation_features, validation_labels
        )
        trajectory.run_to(self.epochs)
        return trajectory.export(self)

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw output logits."""
        if not self._params:
            raise RuntimeError("MLPClassifier is not fitted; call fit() first")
        array = check_features(features)
        if array.shape[1] != self._n_features:
            raise ValueError(
                f"expected {self._n_features} features, got {array.shape[1]}"
            )
        logits, __ = self._forward(array, self._params)
        return logits

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(np.int64)


class MLPTrajectory:
    """One resumable training run of an :class:`MLPClassifier`.

    Holds everything a run carries from one epoch to the next: the
    parameters, the Adam state, the permutation stream (seeded
    ``seed + 1``), the best-validation-F1 parameters and the validation-F1
    history. A run stopped after ``n`` epochs and resumed to ``m`` is
    therefore the ``m``-epoch fit, and its state after ``n`` epochs is the
    ``n``-epoch fit: :meth:`MLPClassifier.fit` is ``run_to(epochs)``
    followed by :meth:`export`.

    The parameters are views into one flat buffer and the gradients views
    into a second, so an Adam step, a best-epoch snapshot and an export
    each touch one array.

    *model* supplies the architecture and optimiser settings; its
    ``epochs`` is not read.
    """

    def __init__(
        self,
        model: MLPClassifier,
        features: np.ndarray,
        labels: np.ndarray,
        validation_features: np.ndarray | None = None,
        validation_labels: np.ndarray | None = None,
    ) -> None:
        self._model = model
        self._features = check_features(features)
        self._target = check_labels(labels, self._features.shape[0]).astype(
            np.float64
        )
        n_samples = self._features.shape[0]
        initial = model._init_params(self._features.shape[1])
        self._shapes = [p.shape for p in initial]
        self._flat, self._params = flatten(initial)
        self._gradient = np.empty_like(self._flat)
        self._grads = flat_views(self._gradient, self._shapes)
        self._optimizer = Adam(self._flat, learning_rate=model.learning_rate)
        self._rng = np.random.default_rng(model.seed + 1)
        self._batch = max(1, min(model.batch_size, n_samples))

        positives = self._target.sum()
        negatives = n_samples - positives
        if model.balanced and positives > 0 and negatives > 0:
            self._sample_weight = np.where(
                self._target == 1.0,
                n_samples / (2.0 * positives),
                n_samples / (2.0 * negatives),
            )
        else:
            self._sample_weight = np.ones(n_samples)

        self._validation: tuple[np.ndarray, np.ndarray] | None = None
        if validation_features is not None and validation_labels is not None:
            self._validation = (
                check_features(validation_features),
                np.asarray(validation_labels),
            )
        self._best_f1 = -1.0
        self._best_flat: np.ndarray | None = None
        self.history: list[float] = []
        self.epochs_run = 0

    def run_to(self, epochs: int) -> None:
        """Train until ``epochs`` epochs have run in total."""
        while self.epochs_run < epochs:
            self._epoch()
            self.epochs_run += 1

    def _epoch(self) -> None:
        model = self._model
        params = self._params
        n_samples = self._features.shape[0]
        order = self._rng.permutation(n_samples)
        for start in range(0, n_samples, self._batch):
            chunk = order[start : start + self._batch]
            x = self._features[chunk]
            y = self._target[chunk]
            w = self._sample_weight[chunk]
            logits, caches = model._forward(x, params)
            probabilities = _sigmoid(logits)
            grad_logits = (probabilities - y) * w / w.sum()
            model._backward(grad_logits, params, caches, self._grads)
            self._optimizer.step(self._gradient)
        if self._validation is not None:
            features, labels = self._validation
            logits, __ = model._forward(features, params)
            predictions = (_sigmoid(logits) >= 0.5).astype(np.int64)
            score = f1_score(labels, predictions)
            self.history.append(score)
            if score > self._best_f1:
                self._best_f1 = score
                self._best_flat = self._flat.copy()

    def export(self, model: MLPClassifier) -> MLPClassifier:
        """Give *model* the fit after ``epochs_run`` epochs and return it.

        That is the best-validation-F1 parameters (the current ones when
        there is no validation set) and the validation-F1 history so far.
        """
        model._n_features = self._features.shape[1]
        flat = self._best_flat if self._best_flat is not None else self._flat.copy()
        model._params = flat_views(flat, self._shapes)
        model.validation_f1_history_ = list(self.history)
        return model
