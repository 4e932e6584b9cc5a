"""Neighbourhood complexity measures: n1, n2, n3, n4, t1, lsc (Table I-c).

These characterize the decision boundary through nearest neighbours under
the Gower distance shared via :class:`ComplexityInputs`.
"""

from __future__ import annotations

import numpy as np

from repro.core.complexity.base import ComplexityInputs


def _distances_with_inf_diagonal(inputs: ComplexityInputs) -> np.ndarray:
    distances = inputs.distances.copy()
    np.fill_diagonal(distances, np.inf)
    return distances


def _nearest_enemy_distance(inputs: ComplexityInputs) -> np.ndarray:
    """Distance from each point to its nearest point of the other class."""
    distances = inputs.distances
    labels = inputs.labels
    enemy = np.where(labels[:, None] != labels[None, :], distances, np.inf)
    return enemy.min(axis=1)


def n1_borderline_fraction(inputs: ComplexityInputs) -> float:
    """Fraction of points on an inter-class edge of the MST."""
    # Imported here: scipy.sparse.csgraph costs every CLI command ~0.3 s.
    from scipy.sparse.csgraph import minimum_spanning_tree

    tree = minimum_spanning_tree(inputs.distances)
    rows, cols = tree.nonzero()
    borderline: set[int] = set()
    for a, b in zip(rows, cols):
        if inputs.labels[a] != inputs.labels[b]:
            borderline.add(int(a))
            borderline.add(int(b))
    return len(borderline) / inputs.n_samples


def n2_intra_extra_ratio(inputs: ComplexityInputs) -> float:
    """Ratio of intra-class to extra-class nearest-neighbour distances.

    r = sum(nearest same-class distance) / sum(nearest other-class
    distance); n2 = r / (1 + r) maps it into [0, 1).
    """
    distances = _distances_with_inf_diagonal(inputs)
    labels = inputs.labels
    same = np.where(labels[:, None] == labels[None, :], distances, np.inf)
    other = np.where(labels[:, None] != labels[None, :], distances, np.inf)
    intra = same.min(axis=1)
    extra = other.min(axis=1)
    intra = np.where(np.isfinite(intra), intra, 0.0)
    extra_sum = float(extra[np.isfinite(extra)].sum())
    if extra_sum == 0.0:
        return 1.0
    ratio = float(intra.sum()) / extra_sum
    return ratio / (1.0 + ratio)


def n3_nearest_neighbor_error(inputs: ComplexityInputs) -> float:
    """Leave-one-out 1-NN error rate under the Gower distance."""
    distances = _distances_with_inf_diagonal(inputs)
    nearest = np.argmin(distances, axis=1)
    return float(np.mean(inputs.labels[nearest] != inputs.labels))


def n4_nearest_neighbor_nonlinearity(
    inputs: ComplexityInputs, n_synthetic: int | None = None, seed: int = 0
) -> float:
    """1-NN error on synthetic points interpolated within each class.

    New points are convex combinations of random same-class pairs; a high
    error means the class regions are not convex — a non-linear boundary.
    """
    rng = np.random.default_rng(seed)
    if n_synthetic is None:
        n_synthetic = inputs.n_samples
    synthetic_features = np.empty((n_synthetic, inputs.n_features))
    synthetic_labels = np.empty(n_synthetic, dtype=np.int64)
    class_members = {
        cls: np.flatnonzero(inputs.labels == cls) for cls in (0, 1)
    }
    for index in range(n_synthetic):
        cls = int(rng.integers(0, 2))
        members = class_members[cls]
        if len(members) < 2:
            cls = 1 - cls
            members = class_members[cls]
        first, second = rng.choice(members, size=2, replace=len(members) < 2)
        alpha = rng.random()
        synthetic_features[index] = (
            alpha * inputs.features[first] + (1.0 - alpha) * inputs.features[second]
        )
        synthetic_labels[index] = cls

    # 1-NN classification of the synthetic points against the originals,
    # using the same range normalization as the Gower matrix. Chunked
    # broadcasting keeps memory bounded while staying vectorized.
    ranges = inputs.features.max(axis=0) - inputs.features.min(axis=0)
    active = ranges > 0
    if not np.any(active):
        return 0.0
    original = inputs.features[:, active] / ranges[active]
    synthetic = synthetic_features[:, active] / ranges[active]
    errors = 0
    chunk_size = max(1, 2_000_000 // max(1, original.shape[0]))
    for start in range(0, n_synthetic, chunk_size):
        chunk = synthetic[start : start + chunk_size]
        gower = np.abs(chunk[:, None, :] - original[None, :, :]).mean(axis=2)
        nearest = np.argmin(gower, axis=1)
        errors += int(
            np.sum(
                inputs.labels[nearest]
                != synthetic_labels[start : start + chunk_size]
            )
        )
    return errors / n_synthetic


def t1_hypersphere_fraction(inputs: ComplexityInputs) -> float:
    """Fraction of hyperspheres needed to cover the data.

    Each point's sphere radius is its nearest-enemy distance; spheres fully
    contained in a larger same-class sphere are absorbed. t1 = remaining
    spheres / n.
    """
    radii = _nearest_enemy_distance(inputs)
    distances = inputs.distances
    order = np.argsort(-radii, kind="stable")
    kept: list[int] = []
    absorbed = np.zeros(inputs.n_samples, dtype=bool)
    for index in order:
        if absorbed[index]:
            continue
        kept.append(int(index))
        # Absorb same-class points whose sphere lies inside this one.
        same_class = inputs.labels == inputs.labels[index]
        inside = distances[index] + radii <= radii[index] + 1e-12
        absorbed |= same_class & inside
        absorbed[index] = True
    return len(kept) / inputs.n_samples


def lsc_local_set_cardinality(inputs: ComplexityInputs) -> float:
    """Local-set average cardinality.

    The local set of x is every same-class point closer to x than x's
    nearest enemy; lsc = 1 - sum|LS| / n^2. Dense, pure neighbourhoods give
    large local sets and a low (simple) score.
    """
    radii = _nearest_enemy_distance(inputs)
    distances = inputs.distances
    same_class = inputs.labels[:, None] == inputs.labels[None, :]
    closer = distances < radii[:, None]
    local_set_sizes = (same_class & closer).sum(axis=1) - 1  # exclude self
    local_set_sizes = np.maximum(local_set_sizes, 0)
    return 1.0 - float(local_set_sizes.sum()) / (inputs.n_samples**2)
