"""Linearity complexity measures: l1, l2 (Table I-b).

Both rest on one linear SVM fitted to the (standardized) data
(:attr:`ComplexityInputs.linear_svm`): l1 aggregates the margin-violation
distances, l2 is the plain training error rate.
"""

from __future__ import annotations

import numpy as np

from repro.core.complexity.base import ComplexityInputs


def l1_error_distance(inputs: ComplexityInputs) -> float:
    """Sum of the error distances of margin violators, mapped to [0, 1).

    l1 = 1 - 1/(1 + mean hinge loss): zero when the classes are separated
    with margin, approaching 1 as violations grow.
    """
    svm, features = inputs.linear_svm
    violations = svm.margin_violations(features, inputs.labels)
    # Only count actual errors (hinge > 1 means misclassified); following
    # Lorena et al. the distances of incorrectly classified points are
    # averaged over the dataset.
    predictions = svm.predict(features)
    errors = violations[predictions != inputs.labels]
    mean_distance = float(errors.sum()) / inputs.n_samples
    return 1.0 - 1.0 / (1.0 + mean_distance)


def l2_error_rate(inputs: ComplexityInputs) -> float:
    """Training error rate of the linear SVM."""
    svm, features = inputs.linear_svm
    predictions = svm.predict(features)
    return float(np.mean(predictions != inputs.labels))
