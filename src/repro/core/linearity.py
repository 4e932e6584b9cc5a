"""Degree of linearity — Algorithm 1 of the paper.

For every labeled pair in T | V | C the schema-agnostic token similarity is
computed (cosine or Jaccard over the distinct lower-cased tokens of all
attribute values); a threshold sweep over [0.01, 0.99] step 0.01 finds the
F1-optimal linear separation. The maximum F1 is the dataset's degree of
linearity; high values mean a linear classifier already solves the
benchmark, so it cannot differentiate complex matchers.
"""

from __future__ import annotations

from collections.abc import Callable, Set
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.data.pairs import LabeledPairSet
from repro.data.task import MatchingTask
from repro.text.feature_store import FeatureStore, store_for_task
from repro.text.similarity import cosine_similarity, jaccard_similarity

SimilarityFn = Callable[[Set[str], Set[str]], float]

#: The two similarity measures considered by the paper (Dice and overlap are
#: monotone in these and add no information, as Section III-A notes).
SIMILARITIES: dict[str, SimilarityFn] = {
    "cosine": cosine_similarity,
    "jaccard": jaccard_similarity,
}

#: Kernel measure name per known similarity callable — these dispatch to
#: the vectorized path of :mod:`repro.text.kernels`; any other callable
#: falls back to the per-pair scalar loop (the parity oracle).
_VECTOR_MEASURES: dict[SimilarityFn, str] = {
    cosine_similarity: "cosine",
    jaccard_similarity: "jaccard",
}

#: Threshold returned when *no* threshold in the sweep produces a single
#: true positive (an all-negative fold, or scores entirely below the
#: grid). It sits above every attainable score, so a matcher fitted on a
#: degenerate fold predicts all-negative — ``score >= inf`` is never
#: true — instead of the old 0.0 sentinel, which made ``scores >= 0.0``
#: classify *everything* as a match.
DEGENERATE_THRESHOLD: float = float("inf")


@dataclass(frozen=True)
class LinearityResult:
    """Output of Algorithm 1 for one (dataset, similarity) combination."""

    similarity: str
    max_f1: float
    best_threshold: float


def best_threshold_f1(
    scores: np.ndarray,
    labels: np.ndarray,
    thresholds: np.ndarray | None = None,
) -> tuple[float, float]:
    """Sweep thresholds and return (max F1, best threshold).

    Vectorized equivalent of lines 5-12 of Algorithm 1: scores are sorted
    once, and for every threshold the confusion counts follow from the
    number of positives/negatives above it. Ties keep the lowest threshold,
    like the sequential sweep of the paper (strict improvement check).

    When every threshold degenerates (no positives in *labels*, or no
    score reaches the grid) the result is
    ``(0.0, DEGENERATE_THRESHOLD)`` — a threshold above the score range,
    so thresholding with it predicts all-negative.
    """
    if thresholds is None:
        thresholds = np.round(np.arange(0.01, 1.00, 0.01), 2)
    score_array = np.asarray(scores, dtype=np.float64)
    label_array = np.asarray(labels)
    if score_array.shape != label_array.shape:
        raise ValueError(
            f"scores and labels differ in shape: "
            f"{score_array.shape} vs {label_array.shape}"
        )
    total_positives = int(label_array.sum())

    order = np.argsort(score_array, kind="stable")
    sorted_scores = score_array[order]
    sorted_labels = label_array[order]
    # positives with score >= t  =  total_positives - positives below t
    cumulative_positives = np.concatenate(([0], np.cumsum(sorted_labels)))

    best_f1 = 0.0
    best_threshold: float | None = None
    for threshold in thresholds:
        cut = int(np.searchsorted(sorted_scores, threshold, side="left"))
        predicted_positive = len(score_array) - cut
        true_positive = total_positives - int(cumulative_positives[cut])
        if predicted_positive == 0 or total_positives == 0:
            continue
        precision = true_positive / predicted_positive
        recall = true_positive / total_positives
        if precision + recall == 0:
            continue
        # Any threshold reaching this point has f1 > 0, so the strict
        # improvement below always selects at least one of them.
        f1 = 2.0 * precision * recall / (precision + recall)
        if f1 > best_f1:
            best_f1 = f1
            best_threshold = float(threshold)
    if best_threshold is None:
        return 0.0, DEGENERATE_THRESHOLD
    return best_f1, best_threshold


def _batch_scores(
    store: FeatureStore,
    pairs: LabeledPairSet,
    measure: str,
    attribute: str | None = None,
) -> np.ndarray:
    """One similarity column over *pairs*, batched through *store*."""
    pair_list = pairs.pairs
    spec = f"pairsim:{measure}" if attribute is None else (
        f"pairsim:{measure}:{attribute}"
    )
    view = ("tokens", attribute)
    column = store.matrix(
        spec=spec,
        pairs=pair_list,
        names=(spec,),
        compute=lambda: store.set_similarities(
            pair_list, view, measures=(measure,)
        ),
    )
    return column.reshape(len(pair_list))


def pair_similarities(
    pairs: LabeledPairSet,
    similarity: SimilarityFn,
    store: FeatureStore | None = None,
) -> np.ndarray:
    """Schema-agnostic token similarity per labeled pair (lines 2-4).

    The paper's two measures dispatch to the vectorized kernels (pass the
    task's *store* to reuse its token rows); any other callable runs the
    per-pair scalar loop, which doubles as the parity oracle.
    """
    measure = _VECTOR_MEASURES.get(similarity)
    if measure is not None:
        return _batch_scores(store or FeatureStore(), pairs, measure)
    return np.asarray(
        [
            similarity(pair.left.tokens(), pair.right.tokens())
            for pair, __ in pairs
        ],
        dtype=np.float64,
    )


def degree_of_linearity(
    task: MatchingTask, similarity: str = "cosine"
) -> LinearityResult:
    """Run Algorithm 1 on a matching task.

    Parameters
    ----------
    task:
        The benchmark; all of T | V | C is used (the measure characterizes
        the dataset, not a trained model).
    similarity:
        ``"cosine"`` or ``"jaccard"``.
    """
    if similarity not in SIMILARITIES:
        raise KeyError(
            f"unknown similarity {similarity!r}; known: {sorted(SIMILARITIES)}"
        )
    merged = task.all_pairs()
    scores = pair_similarities(
        merged, SIMILARITIES[similarity], store=store_for_task(task)
    )
    max_f1, threshold = best_threshold_f1(scores, merged.labels)
    return LinearityResult(
        similarity=similarity, max_f1=max_f1, best_threshold=threshold
    )


def linearity_profile(task: MatchingTask) -> dict[str, LinearityResult]:
    """Both degrees of linearity (the two bars of Figure 1 per dataset)."""
    with obs.span("core.linearity"):
        return {
            name: degree_of_linearity(task, name) for name in SIMILARITIES
        }


def schema_aware_linearity(
    task: MatchingTask, similarity: str = "cosine"
) -> dict[str, LinearityResult]:
    """Per-attribute degree of linearity (the schema-aware setting).

    Section III reports that schema-aware variants of the theoretical
    measures showed no significant difference from the schema-agnostic
    setting; this function computes them anyway — one threshold sweep per
    attribute, over that attribute's token similarity — so the claim can be
    checked (see ``benchmarks/bench_ablation_schema.py``).

    Returns a mapping attribute -> :class:`LinearityResult`; the *best*
    attribute's F1 is the schema-aware degree of linearity.
    """
    if similarity not in SIMILARITIES:
        raise KeyError(
            f"unknown similarity {similarity!r}; known: {sorted(SIMILARITIES)}"
        )
    measure = _VECTOR_MEASURES[SIMILARITIES[similarity]]
    store = store_for_task(task)
    merged = task.all_pairs()
    labels = merged.labels
    results: dict[str, LinearityResult] = {}
    for attribute in task.attributes:
        scores = _batch_scores(store, merged, measure, attribute)
        max_f1, threshold = best_threshold_f1(scores, labels)
        results[attribute] = LinearityResult(
            similarity=f"{similarity}:{attribute}",
            max_f1=max_f1,
            best_threshold=threshold,
        )
    return results
