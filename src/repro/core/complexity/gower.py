"""Gower distance for numeric feature matrices.

The neighbourhood and network complexity measures use the Gower distance
(Gower, 1971). For purely numeric features it reduces to the mean
range-normalized absolute difference per feature, which is what the [CS, JS]
pair representation needs.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_features


def gower_distance_matrix(features: np.ndarray) -> np.ndarray:
    """Pairwise Gower distances (numeric variant) in [0, 1].

    Each feature is range-normalized on the data at hand; constant features
    contribute zero distance. The per-feature terms accumulate in place
    through one scratch array, so the build holds two n x n arrays at most.
    """
    array = check_features(features)
    n_samples, n_features = array.shape
    ranges = array.max(axis=0) - array.min(axis=0)
    active = ranges > 0.0
    if not np.any(active):
        return np.zeros((n_samples, n_samples))
    normalized = array[:, active] / ranges[active]
    distances = np.zeros((n_samples, n_samples))
    scratch = np.empty_like(distances)
    for j in range(normalized.shape[1]):
        column = normalized[:, j]
        np.subtract(column[:, None], column[None, :], out=scratch)
        np.abs(scratch, out=scratch)
        distances += scratch
    distances /= n_features
    return distances
