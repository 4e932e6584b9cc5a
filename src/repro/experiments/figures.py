"""Builders for the figure series (Figures 1-6).

Figures are returned as mappings ``dataset -> series`` of named float
values — the exact numbers behind the paper's bar charts — so they can be
asserted on, rendered as text, or plotted by downstream users.
"""

from __future__ import annotations

from repro.core.complexity.profile import MEASURE_NAMES
from repro.datasets.registry import (
    ESTABLISHED_DATASET_IDS,
    NEW_BENCHMARK_LABELS,
    SOURCE_DATASET_IDS,
)
from repro.experiments.runner import ExperimentRunner

FigureSeries = dict[str, dict[str, float]]


def _linearity_series(
    runner: ExperimentRunner, dataset_ids: tuple[str, ...]
) -> FigureSeries:
    figure: FigureSeries = {}
    for dataset_id in dataset_ids:
        linearity = runner.linearity(dataset_id)
        label = NEW_BENCHMARK_LABELS.get(dataset_id, dataset_id)
        figure[label] = {
            "f1_cosine": linearity["cosine"].max_f1,
            "threshold_cosine": linearity["cosine"].best_threshold,
            "f1_jaccard": linearity["jaccard"].max_f1,
            "threshold_jaccard": linearity["jaccard"].best_threshold,
        }
    return figure


def _complexity_series(
    runner: ExperimentRunner, dataset_ids: tuple[str, ...]
) -> FigureSeries:
    figure: FigureSeries = {}
    for dataset_id in dataset_ids:
        profile = runner.assessment(dataset_id, with_practical=False).complexity
        label = NEW_BENCHMARK_LABELS.get(dataset_id, dataset_id)
        series = {name: profile[name] for name in MEASURE_NAMES}
        series["mean"] = profile.mean
        figure[label] = series
    return figure


def _practical_series(
    runner: ExperimentRunner, dataset_ids: tuple[str, ...]
) -> FigureSeries:
    figure: FigureSeries = {}
    for dataset_id in dataset_ids:
        practical = runner.practical(dataset_id)
        label = NEW_BENCHMARK_LABELS.get(dataset_id, dataset_id)
        figure[label] = {
            "nlb": practical.non_linear_boost,
            "lbm": practical.learning_based_margin,
            "best_linear_f1": practical.best_linear_f1,
            "best_non_linear_f1": practical.best_non_linear_f1,
        }
    return figure


def figure1(runner: ExperimentRunner) -> FigureSeries:
    """Degree of linearity per established benchmark."""
    return _linearity_series(runner, ESTABLISHED_DATASET_IDS)


def figure2(runner: ExperimentRunner) -> FigureSeries:
    """Complexity measures per established benchmark."""
    return _complexity_series(runner, ESTABLISHED_DATASET_IDS)


def figure3(runner: ExperimentRunner) -> FigureSeries:
    """NLB and LBM per established benchmark."""
    return _practical_series(runner, ESTABLISHED_DATASET_IDS)


def figure4(runner: ExperimentRunner) -> FigureSeries:
    """Degree of linearity per new benchmark (Figure 4a of the paper)."""
    return _linearity_series(runner, SOURCE_DATASET_IDS)


def figure5(runner: ExperimentRunner) -> FigureSeries:
    """Complexity measures per new benchmark."""
    return _complexity_series(runner, SOURCE_DATASET_IDS)


def figure6(runner: ExperimentRunner) -> FigureSeries:
    """NLB and LBM per new benchmark.

    The paper's text reports these alongside Figure 5 ("Figure 5 reports
    the corresponding non-linear boost ... and learning-based margin");
    they get their own series here.
    """
    return _practical_series(runner, SOURCE_DATASET_IDS)
