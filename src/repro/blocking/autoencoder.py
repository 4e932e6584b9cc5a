"""A small linear autoencoder trained self-supervised on record embeddings.

DeepBlocker's aggregator learns, without labels, a compact representation of
the record embeddings via an autoencoder. This numpy equivalent learns an
encoder/decoder pair minimizing reconstruction error with full-batch Adam;
the encoded space is what the top-K retrieval runs in.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_features
from repro.ml.optim import Adam, flat_views, flatten


class LinearAutoencoder:
    """One-hidden-layer tied-bias autoencoder: x -> z = xW + b -> x' = zW' + b'."""

    def __init__(
        self,
        encoding_dim: int = 32,
        epochs: int = 60,
        learning_rate: float = 5e-3,
        seed: int = 0,
    ) -> None:
        if encoding_dim < 1:
            raise ValueError(f"encoding_dim must be >= 1, got {encoding_dim}")
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        self.encoding_dim = encoding_dim
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.seed = seed
        self._encoder: np.ndarray | None = None
        self._encoder_bias: np.ndarray | None = None
        self._decoder: np.ndarray | None = None
        self._decoder_bias: np.ndarray | None = None
        self.reconstruction_error_: float = float("inf")

    def fit(self, features: np.ndarray) -> "LinearAutoencoder":
        array = check_features(features)
        n_samples, n_features = array.shape
        rng = np.random.default_rng(self.seed)
        scale = np.sqrt(6.0 / (n_features + self.encoding_dim))
        encoder = rng.uniform(-scale, scale, size=(n_features, self.encoding_dim))
        encoder_bias = np.zeros(self.encoding_dim)
        decoder = rng.uniform(-scale, scale, size=(self.encoding_dim, n_features))
        decoder_bias = np.zeros(n_features)
        initial = [encoder, encoder_bias, decoder, decoder_bias]
        params, (encoder, encoder_bias, decoder, decoder_bias) = flatten(initial)
        gradient = np.empty_like(params)
        grad_encoder, grad_encoder_bias, grad_decoder, grad_decoder_bias = (
            flat_views(gradient, [p.shape for p in initial])
        )
        optimizer = Adam(params, learning_rate=self.learning_rate)

        for __ in range(self.epochs):
            encoded = array @ encoder + encoder_bias
            reconstructed = encoded @ decoder + decoder_bias
            error = (reconstructed - array) / n_samples
            np.matmul(encoded.T, error, out=grad_decoder)
            error.sum(axis=0, out=grad_decoder_bias)
            grad_encoded = error @ decoder.T
            np.matmul(array.T, grad_encoded, out=grad_encoder)
            grad_encoded.sum(axis=0, out=grad_encoder_bias)
            optimizer.step(gradient)

        self._encoder = encoder
        self._encoder_bias = encoder_bias
        self._decoder = decoder
        self._decoder_bias = decoder_bias
        encoded = array @ encoder + encoder_bias
        reconstructed = encoded @ decoder + decoder_bias
        self.reconstruction_error_ = float(np.mean((reconstructed - array) ** 2))
        return self

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Project features into the learned encoding space."""
        if self._encoder is None or self._encoder_bias is None:
            raise RuntimeError("LinearAutoencoder is not fitted; call fit() first")
        array = check_features(features)
        if array.shape[1] != self._encoder.shape[0]:
            raise ValueError(
                f"expected {self._encoder.shape[0]} features, got {array.shape[1]}"
            )
        return array @ self._encoder + self._encoder_bias
