"""The complexity measures' memory rewrite: same scores, bounded temporaries.

The oracles below are the straightforward n x n formulas (masked copies of
the whole Gower matrix, one broadcast per feature); the measures must give
bit-identical results while allocating at most one extra n x n float64
array beside the shared Gower matrix (n1 excepted, see its bound).
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import minimum_spanning_tree

from repro.core.complexity import neighborhood
from repro.core.complexity.base import ComplexityInputs
from repro.core.complexity.gower import gower_distance_matrix
from repro.core.complexity.linearity import l1_error_distance, l2_error_rate
from repro.core.complexity.network import (
    cls_clustering_coefficient,
    epsilon_adjacency,
    hub_score,
)
from repro.core.complexity.neighborhood import (
    lsc_local_set_cardinality,
    n1_borderline_fraction,
    n2_intra_extra_ratio,
    n3_nearest_neighbor_error,
    n4_nearest_neighbor_nonlinearity,
    t1_hypersphere_fraction,
)

# -- oracles: the n x n formulas ---------------------------------------------


def oracle_gower(features):
    ranges = features.max(axis=0) - features.min(axis=0)
    active = ranges > 0.0
    n_samples, n_features = features.shape
    if not np.any(active):
        return np.zeros((n_samples, n_samples))
    normalized = features[:, active] / ranges[active]
    distances = np.zeros((n_samples, n_samples))
    for j in range(normalized.shape[1]):
        column = normalized[:, j]
        distances += np.abs(column[:, None] - column[None, :])
    return distances / n_features


def oracle_inf_diagonal(distances):
    copy = distances.copy()
    np.fill_diagonal(copy, np.inf)
    return copy


def oracle_nearest_enemy(distances, labels):
    enemy = np.where(labels[:, None] != labels[None, :], distances, np.inf)
    return enemy.min(axis=1)


def oracle_n1(distances, labels):
    tree = minimum_spanning_tree(distances)
    borderline = set()
    for a, b in zip(*tree.nonzero()):
        if labels[a] != labels[b]:
            borderline.update((int(a), int(b)))
    return len(borderline) / len(labels)


def oracle_n2(distances, labels):
    masked = oracle_inf_diagonal(distances)
    same = np.where(labels[:, None] == labels[None, :], masked, np.inf)
    other = np.where(labels[:, None] != labels[None, :], masked, np.inf)
    intra = same.min(axis=1)
    extra = other.min(axis=1)
    intra = np.where(np.isfinite(intra), intra, 0.0)
    extra_sum = float(extra[np.isfinite(extra)].sum())
    if extra_sum == 0.0:
        return 1.0
    ratio = float(intra.sum()) / extra_sum
    return ratio / (1.0 + ratio)


def oracle_n3(distances, labels):
    nearest = np.argmin(oracle_inf_diagonal(distances), axis=1)
    return float(np.mean(labels[nearest] != labels))


def oracle_n4(features, labels, seed=0):
    rng = np.random.default_rng(seed)
    n_samples, n_features = features.shape
    synthetic_features = np.empty((n_samples, n_features))
    synthetic_labels = np.empty(n_samples, dtype=np.int64)
    class_members = {cls: np.flatnonzero(labels == cls) for cls in (0, 1)}
    for index in range(n_samples):
        cls = int(rng.integers(0, 2))
        members = class_members[cls]
        if len(members) < 2:
            cls = 1 - cls
            members = class_members[cls]
        first, second = rng.choice(members, size=2, replace=len(members) < 2)
        alpha = rng.random()
        synthetic_features[index] = (
            alpha * features[first] + (1.0 - alpha) * features[second]
        )
        synthetic_labels[index] = cls
    ranges = features.max(axis=0) - features.min(axis=0)
    active = ranges > 0
    if not np.any(active):
        return 0.0
    original = features[:, active] / ranges[active]
    synthetic = synthetic_features[:, active] / ranges[active]
    errors = 0
    chunk_size = max(1, 2_000_000 // max(1, original.shape[0]))
    for start in range(0, n_samples, chunk_size):
        chunk = synthetic[start : start + chunk_size]
        gower = np.abs(chunk[:, None, :] - original[None, :, :]).mean(axis=2)
        nearest = np.argmin(gower, axis=1)
        errors += int(
            np.sum(labels[nearest] != synthetic_labels[start : start + chunk_size])
        )
    return errors / n_samples


def oracle_t1(distances, labels):
    radii = oracle_nearest_enemy(distances, labels)
    order = np.argsort(-radii, kind="stable")
    kept = 0
    absorbed = np.zeros(len(labels), dtype=bool)
    for index in order:
        if absorbed[index]:
            continue
        kept += 1
        inside = distances[index] + radii <= radii[index] + 1e-12
        absorbed |= (labels == labels[index]) & inside
        absorbed[index] = True
    return kept / len(labels)


def oracle_lsc(distances, labels):
    radii = oracle_nearest_enemy(distances, labels)
    same_class = labels[:, None] == labels[None, :]
    closer = distances < radii[:, None]
    sizes = np.maximum((same_class & closer).sum(axis=1) - 1, 0)
    return 1.0 - float(sizes.sum()) / (len(labels) ** 2)


def oracle_cls(adjacency):
    n = adjacency.shape[0]
    dense = adjacency.astype(np.float32)
    degrees = dense.sum(axis=1)
    triangles = ((dense @ dense) * dense).sum(axis=1) / 2.0
    wedges = degrees * (degrees - 1.0) / 2.0
    coefficients = np.divide(
        triangles, wedges, out=np.zeros(n, dtype=np.float64), where=wedges > 0
    )
    return 1.0 - float(coefficients.mean())


# -- parity --------------------------------------------------------------------


@st.composite
def complexity_data(draw):
    """Features on a coarse grid (duplicate rows, zero distances, ties).

    Jitter of order 1e-8 puts distances on both sides of scipy's "no
    edge" tolerance. Sizes cross the row block (``BLOCK_ROWS`` is drawn
    too); the minority class may have exactly two members.
    """
    n_samples = draw(st.integers(min_value=4, max_value=300))
    n_features = draw(st.integers(min_value=1, max_value=3))
    levels = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    minority = draw(st.integers(min_value=2, max_value=n_samples // 2))
    rng = np.random.default_rng(seed)
    features = rng.integers(0, levels + 1, size=(n_samples, n_features)) / max(
        levels, 1
    )
    if draw(st.booleans()):
        features = features + rng.choice(
            [0.0, 3e-9, 1e-8, 2e-8, 4e-8], size=features.shape
        )
    labels = np.zeros(n_samples, dtype=np.int64)
    labels[rng.choice(n_samples, size=minority, replace=False)] = 1
    block_rows = draw(st.sampled_from([1, 7, 64, 256]))
    return features.astype(np.float64), labels, block_rows


@settings(max_examples=60, deadline=None)
@given(complexity_data())
def test_rewritten_measures_equal_the_n_by_n_formulas(data):
    features, labels, block_rows = data
    inputs = ComplexityInputs(features=features, labels=labels)
    expected_gower = oracle_gower(features)
    assert np.array_equal(inputs.distances, expected_gower)
    distances = expected_gower
    with mock.patch.object(neighborhood, "BLOCK_ROWS", block_rows):
        assert n1_borderline_fraction(inputs) == oracle_n1(distances, labels)
        assert n2_intra_extra_ratio(inputs) == oracle_n2(distances, labels)
        assert n3_nearest_neighbor_error(inputs) == oracle_n3(distances, labels)
        assert t1_hypersphere_fraction(inputs) == oracle_t1(distances, labels)
        assert lsc_local_set_cardinality(inputs) == oracle_lsc(distances, labels)
    for chunk_elements in (1, neighborhood.N4_CHUNK_ELEMENTS):
        with mock.patch.object(neighborhood, "N4_CHUNK_ELEMENTS", chunk_elements):
            assert n4_nearest_neighbor_nonlinearity(inputs) == oracle_n4(
                features, labels
            )
    adjacency = epsilon_adjacency(inputs)
    expected_adjacency = (distances < 0.15) & (labels[:, None] == labels[None, :])
    np.fill_diagonal(expected_adjacency, False)
    assert np.array_equal(adjacency, expected_adjacency)
    assert cls_clustering_coefficient(inputs, adjacency) == oracle_cls(adjacency)


def test_distance_graph_equals_scipys_dense_conversion():
    from scipy.sparse.csgraph import csgraph_from_dense

    rng = np.random.default_rng(3)
    features = rng.integers(0, 4, size=(300, 2)) / 3.0
    features += rng.choice([0.0, 5e-9, 1e-8, 2e-8], size=features.shape)
    inputs = ComplexityInputs(
        features=features, labels=rng.integers(0, 2, size=300)
    )
    with mock.patch.object(neighborhood, "BLOCK_ROWS", 37):
        graph = neighborhood._distance_graph(inputs)
    reference = csgraph_from_dense(inputs.distances, null_value=0)
    assert np.array_equal(graph.indptr, reference.indptr)
    assert np.array_equal(graph.indices, reference.indices)
    assert np.array_equal(graph.data, reference.data)


def test_linearity_measures_share_one_fit():
    rng = np.random.default_rng(5)
    inputs = ComplexityInputs(
        features=rng.uniform(size=(200, 2)), labels=rng.integers(0, 2, size=200)
    )
    fresh = ComplexityInputs(features=inputs.features, labels=inputs.labels)
    l1, l2 = l1_error_distance(inputs), l2_error_rate(inputs)
    svm, __ = inputs.linear_svm
    assert inputs.linear_svm[0] is svm
    # The shared fit gives what a fit of its own gives each measure.
    assert l2_error_rate(fresh) == l2
    assert l1_error_distance(
        ComplexityInputs(features=inputs.features, labels=inputs.labels)
    ) == l1


# -- memory bounds -----------------------------------------------------------

N_BOUND = 1000
NN_BYTES = N_BOUND * N_BOUND * 8  # one n x n float64 array
SLACK = 512 * 1024


@pytest.fixture(scope="module")
def bound_inputs() -> ComplexityInputs:
    """[CS, JS]-like features with duplicates, Gower matrix precomputed."""
    rng = np.random.default_rng(11)
    features = np.round(rng.uniform(size=(N_BOUND, 2)), 2)
    features[:200] = features[200:400]
    labels = (rng.uniform(size=N_BOUND) < 0.3).astype(np.int64)
    inputs = ComplexityInputs(features=features, labels=labels)
    inputs.distances  # noqa: B018  (build the shared matrix outside the trace)
    return inputs


def transient_bytes(fn) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before


#: Allowed transient per measure at n = 1000, in n x n float64 arrays. A
#: row block is 256 of the 1000 rows; n3 and n4 briefly hold two chunks.
MEASURE_BOUNDS = {
    "n2": (n2_intra_extra_ratio, 0.25),
    "n3": (n3_nearest_neighbor_error, 0.75),
    "n4": (n4_nearest_neighbor_nonlinearity, 0.75),
    "t1": (t1_hypersphere_fraction, 0.25),
    "lsc": (lsc_local_set_cardinality, 0.25),
    "adjacency": (epsilon_adjacency, 0.3),
    # scipy's Kruskal needs ~24 bytes per edge at its peak (data, indices,
    # a stable argsort and its int32 copy): 3 arrays when almost no
    # distance is zero, against 3.26 through its dense conversion here.
    "n1": (n1_borderline_fraction, 3.1),
}


@pytest.mark.parametrize("name", sorted(MEASURE_BOUNDS))
def test_measure_transient_is_bounded(bound_inputs, name):
    fn, arrays = MEASURE_BOUNDS[name]
    used = transient_bytes(lambda: fn(bound_inputs))
    assert used <= arrays * NN_BYTES + SLACK, f"{name}: {used / 1e6:.1f} MB"


@pytest.mark.parametrize("fn", [cls_clustering_coefficient, hub_score])
def test_network_measure_transient_is_one_array(bound_inputs, fn):
    adjacency = epsilon_adjacency(bound_inputs)
    used = transient_bytes(lambda: fn(bound_inputs, adjacency))
    assert used <= NN_BYTES + SLACK, f"{used / 1e6:.1f} MB"


def test_gower_build_holds_one_scratch_array(bound_inputs):
    features = bound_inputs.features
    used = transient_bytes(lambda: gower_distance_matrix(features))
    # The result plus one scratch array.
    assert used <= 2 * NN_BYTES + SLACK, f"{used / 1e6:.1f} MB"
