"""ComplexityProfile: run all 17 measures on a benchmark.

This is the engine behind Figures 2 and 5 of the paper. The profile exposes
the individual scores, the per-group view of Table I and the mean score the
paper uses as the easy/challenging cut (mean < 0.40 = easy).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.complexity.base import (
    DEFAULT_MAX_INSTANCES,
    ComplexityInputs,
    pair_feature_matrix,
    prepare_inputs,
)
from repro.core.complexity.class_balance import c1_entropy, c2_imbalance
from repro.core.complexity.feature_based import (
    f1_fisher,
    f1v_directional_fisher,
    f2_overlap_volume,
    f3_feature_efficiency,
)
from repro.core.complexity.linearity import l1_error_distance, l2_error_rate
from repro.core.complexity.neighborhood import (
    lsc_local_set_cardinality,
    n1_borderline_fraction,
    n2_intra_extra_ratio,
    n3_nearest_neighbor_error,
    n4_nearest_neighbor_nonlinearity,
    t1_hypersphere_fraction,
)
from repro.core.complexity.network import (
    cls_clustering_coefficient,
    den_density,
    epsilon_adjacency,
    hub_score,
)
from repro.data.task import MatchingTask

MeasureFn = Callable[[ComplexityInputs], float]

#: All 17 measures in Table I order.
MEASURE_NAMES: tuple[str, ...] = (
    "f1", "f1v", "f2", "f3",
    "l1", "l2",
    "n1", "n2", "n3", "n4", "t1", "lsc",
    "den", "cls", "hub",
    "c1", "c2",
)

#: Table I grouping.
MEASURE_GROUPS: dict[str, tuple[str, ...]] = {
    "feature_based": ("f1", "f1v", "f2", "f3"),
    "linearity": ("l1", "l2"),
    "neighborhood": ("n1", "n2", "n3", "n4", "t1", "lsc"),
    "network": ("den", "cls", "hub"),
    "class_balance": ("c1", "c2"),
}

#: The paper's cut: mean complexity below this marks an easy benchmark.
EASY_MEAN_THRESHOLD = 0.40

_MEASURES: dict[str, MeasureFn] = {
    "f1": f1_fisher,
    "f1v": f1v_directional_fisher,
    "f2": f2_overlap_volume,
    "f3": f3_feature_efficiency,
    "l1": l1_error_distance,
    "l2": l2_error_rate,
    "n1": n1_borderline_fraction,
    "n2": n2_intra_extra_ratio,
    "n3": n3_nearest_neighbor_error,
    "n4": n4_nearest_neighbor_nonlinearity,
    "t1": t1_hypersphere_fraction,
    "lsc": lsc_local_set_cardinality,
    "c1": c1_entropy,
    "c2": c2_imbalance,
}


@dataclass(frozen=True)
class ComplexityProfile:
    """All 17 complexity scores for one benchmark."""

    scores: dict[str, float]

    def __post_init__(self) -> None:
        missing = set(MEASURE_NAMES) - set(self.scores)
        if missing:
            raise ValueError(f"profile is missing measures: {sorted(missing)}")

    @property
    def mean(self) -> float:
        return float(np.mean([self.scores[name] for name in MEASURE_NAMES]))

    def group_means(self) -> dict[str, float]:
        """Mean score per Table I group."""
        return {
            group: float(np.mean([self.scores[name] for name in names]))
            for group, names in MEASURE_GROUPS.items()
        }

    def is_easy(self, threshold: float = EASY_MEAN_THRESHOLD) -> bool:
        """The paper's a-priori verdict from complexity alone."""
        return self.mean < threshold

    def __getitem__(self, name: str) -> float:
        return self.scores[name]


def compute_profile(inputs: ComplexityInputs) -> ComplexityProfile:
    """Run all 17 measures on prepared inputs."""
    scores = {name: float(fn(inputs)) for name, fn in _MEASURES.items()}
    # Network measures share one adjacency build.
    adjacency = epsilon_adjacency(inputs)
    scores["den"] = float(den_density(inputs, adjacency))
    scores["cls"] = float(cls_clustering_coefficient(inputs, adjacency))
    scores["hub"] = float(hub_score(inputs, adjacency))
    clipped = {name: min(1.0, max(0.0, value)) for name, value in scores.items()}
    return ComplexityProfile(scores=clipped)


def complexity_profile(
    task: MatchingTask,
    max_instances: int | None = DEFAULT_MAX_INSTANCES,
    seed: int = 0,
    schema_aware: bool = False,
) -> ComplexityProfile:
    """Compute the profile of a matching task.

    The default (schema-agnostic) representation is the paper's [CS, JS]
    pair; ``schema_aware=True`` switches to per-attribute [CS, JS] features
    (2|A| dimensions), the variant Section III explored and dropped for
    showing no significant difference. All labeled pairs (T | V | C) are
    used, subsampled (stratified) to ``max_instances`` because half the
    measures are O(n^2).
    """
    from repro.core.complexity.base import schema_aware_feature_matrix

    with obs.span("core.complexity"):
        pairs = task.all_pairs()
        if schema_aware:
            features = schema_aware_feature_matrix(pairs, task.attributes)
        else:
            features = pair_feature_matrix(pairs)
        inputs = prepare_inputs(
            features, pairs.labels, max_instances=max_instances, seed=seed
        )
        return compute_profile(inputs)
