"""Shared preparation for the complexity measures.

All measures receive a :class:`ComplexityInputs` bundle: the validated
feature matrix, labels, and the (lazily computed) Gower distance matrix that
the neighbourhood and network measures share. Because several measures are
O(n^2), inputs can be stratified-subsampled to a size cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.complexity.gower import gower_distance_matrix
from repro.data.pairs import LabeledPairSet
from repro.ml.base import check_features, check_labels
from repro.ml.scaling import StandardScaler
from repro.ml.svm import LinearSVM
from repro.text.similarity import cosine_similarity, jaccard_similarity

#: Default instance cap for the O(n^2) measures; stratified, seeded.
DEFAULT_MAX_INSTANCES = 1500


@dataclass
class ComplexityInputs:
    """Validated features/labels plus the shared distance matrix and SVM."""

    features: np.ndarray
    labels: np.ndarray
    _distances: np.ndarray | None = field(default=None, repr=False)
    _linear_svm: tuple[LinearSVM, np.ndarray] | None = field(
        default=None, repr=False
    )

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    @property
    def distances(self) -> np.ndarray:
        """The Gower distance matrix, computed on first use."""
        if self._distances is None:
            self._distances = gower_distance_matrix(self.features)
        return self._distances

    @property
    def linear_svm(self) -> tuple[LinearSVM, np.ndarray]:
        """The linear SVM l1 and l2 share, with the standardized features
        it was fitted on; fitted on first use."""
        if self._linear_svm is None:
            features = StandardScaler().fit_transform(self.features)
            # 15 Pegasos epochs converge comfortably on the 2-d similarity
            # features these measures run on; more epochs only cost time.
            svm = LinearSVM(regularization=1e-3, epochs=15, balanced=False, seed=7)
            svm.fit(features, self.labels)
            self._linear_svm = (svm, features)
        return self._linear_svm

    def class_mask(self, label: int) -> np.ndarray:
        return self.labels == label


def pair_feature_matrix(pairs: LabeledPairSet) -> np.ndarray:
    """The paper's two-dimensional representation: [CS, JS] per pair."""
    rows = []
    for pair, __ in pairs:
        left_tokens = pair.left.tokens()
        right_tokens = pair.right.tokens()
        rows.append(
            (
                cosine_similarity(left_tokens, right_tokens),
                jaccard_similarity(left_tokens, right_tokens),
            )
        )
    return np.asarray(rows, dtype=np.float64)


def schema_aware_feature_matrix(
    pairs: LabeledPairSet, attributes: tuple[str, ...]
) -> np.ndarray:
    """The schema-aware variant: [CS, JS] per attribute (2|A| features).

    Section III reports the schema-aware complexity setting showed no
    significant difference from the schema-agnostic one; this builder makes
    that claim checkable (``benchmarks/bench_ablation_schema.py``).
    """
    if not attributes:
        raise ValueError("schema-aware features need at least one attribute")
    rows = []
    for pair, __ in pairs:
        values: list[float] = []
        for attribute in attributes:
            left_tokens = pair.left.attribute_tokens(attribute)
            right_tokens = pair.right.attribute_tokens(attribute)
            values.append(cosine_similarity(left_tokens, right_tokens))
            values.append(jaccard_similarity(left_tokens, right_tokens))
        rows.append(values)
    return np.asarray(rows, dtype=np.float64)


def prepare_inputs(
    features: np.ndarray,
    labels: np.ndarray,
    max_instances: int | None = DEFAULT_MAX_INSTANCES,
    seed: int = 0,
) -> ComplexityInputs:
    """Validate and (if needed) stratified-subsample the inputs.

    Subsampling keeps the class proportions: each class is downsampled by
    the same global factor, with at least two instances per present class so
    every measure stays well-defined.
    """
    array = check_features(features)
    target = check_labels(labels, array.shape[0])
    if len(np.unique(target)) < 2:
        raise ValueError("complexity measures need both classes present")

    n_samples = array.shape[0]
    if max_instances is not None and n_samples > max_instances:
        rng = np.random.default_rng(seed)
        keep: list[int] = []
        factor = max_instances / n_samples
        for cls in (0, 1):
            members = np.flatnonzero(target == cls)
            n_keep = max(2, int(round(len(members) * factor)))
            n_keep = min(n_keep, len(members))
            keep.extend(
                rng.choice(members, size=n_keep, replace=False).tolist()
            )
        keep_array = np.sort(np.asarray(keep))
        array = array[keep_array]
        target = target[keep_array]
    return ComplexityInputs(features=array, labels=target)
