"""Builders for Tables III, IV, V, VI and VII.

Each builder returns (headers, rows) where rows are lists of strings, ready
for :func:`repro.experiments.report.render`. Data comes exclusively
from an :class:`ExperimentRunner`, so the expensive sweeps are shared with
the figure builders.
"""

from __future__ import annotations

from repro.datasets.registry import (
    ESTABLISHED_DATASET_IDS,
    NEW_BENCHMARK_LABELS,
    SOURCE_DATASET_IDS,
)
from repro.experiments.matcher_suite import family_of
from repro.experiments.runner import ExperimentRunner

Table = tuple[list[str], list[list[str]]]

#: Table VII's (existing, new) juxtaposition pairs: same-origin benchmarks.
TABLE7_PAIRS: tuple[tuple[str, str], ...] = (
    ("Dt1", "abt_buy"),
    ("Ds1", "dblp_acm"),
    ("Ds2", "dblp_scholar"),
    ("Ds4", "walmart_amazon"),
    ("Ds6", "amazon_google"),
)


#: Cell text for a matcher that failed and was degraded (see
#: ``MatcherResult.degraded``): explicitly marked, never a silent zero.
DEGRADED_CELL = "FAIL"

#: Cell text for a matcher with no result at all (sweep-level failure).
MISSING_CELL = "-"


def _fmt(value: float, digits: int = 2) -> str:
    return f"{value:.{digits}f}"


def _f1_cell(result) -> str:
    if result is None:
        return MISSING_CELL
    if result.degraded:
        return DEGRADED_CELL
    return _fmt(result.f1_percent)


def table3(runner: ExperimentRunner) -> Table:
    """Table III: characteristics of the established benchmarks."""
    headers = [
        "dataset", "|D1|", "|D2|", "|A|",
        "|Itr|", "|Ptr|", "|Ntr|", "|Ite|", "|Pte|", "|Nte|", "IR",
    ]
    rows = []
    for dataset_id in ESTABLISHED_DATASET_IDS:
        stats = runner.established_task(dataset_id).statistics()
        rows.append(
            [
                dataset_id,
                str(stats.left_size),
                str(stats.right_size),
                str(stats.n_attributes),
                str(stats.training_instances),
                str(stats.training_positives),
                str(stats.training_negatives),
                str(stats.testing_instances),
                str(stats.testing_positives),
                str(stats.testing_negatives),
                f"{100 * stats.imbalance_ratio:.1f}%",
            ]
        )
    return headers, rows


def _f1_table(runner: ExperimentRunner, dataset_ids: tuple[str, ...]) -> Table:
    labels = [
        NEW_BENCHMARK_LABELS.get(dataset_id, dataset_id)
        for dataset_id in dataset_ids
    ]
    headers = ["matcher", "family", *labels]
    all_results = {
        dataset_id: runner.matcher_results(dataset_id)
        for dataset_id in dataset_ids
    }
    # A sweep that failed entirely yields an empty dict; take the roster
    # from the first dataset that has one so the table still renders.
    matcher_names: list[str] = []
    for results in all_results.values():
        if results:
            matcher_names = list(results)
            break
    rows = []
    for name in matcher_names:
        row = [name, family_of(name)]
        for dataset_id in dataset_ids:
            row.append(_f1_cell(all_results[dataset_id].get(name)))
        rows.append(row)
    return headers, rows


def table4(
    runner: ExperimentRunner, dataset_ids: tuple[str, ...] | None = None
) -> Table:
    """Table IV: F1 of every matcher on the 13 established benchmarks.

    *dataset_ids* restricts the columns (the CLI's ``--datasets`` filter
    and the chaos/crash checkers' way of sweeping a small subset).
    """
    return _f1_table(
        runner,
        tuple(dataset_ids) if dataset_ids is not None else ESTABLISHED_DATASET_IDS,
    )


def table5(runner: ExperimentRunner) -> Table:
    """Table V: the new benchmarks and their tuned DeepBlocker provenance."""
    headers = [
        "dataset", "origin", "|D1|", "|D2|", "|M|", "|A|",
        "PC", "PQ", "|C|", "|P|", "config",
        "|Itr|", "|Ite|", "|Ptr|", "|Pte|", "IR",
    ]
    rows = []
    for source_id in SOURCE_DATASET_IDS:
        benchmark = runner.new_benchmark(source_id)
        task = benchmark.task
        stats = task.statistics()
        rows.append(
            [
                benchmark.label,
                source_id,
                str(len(benchmark.sources.left)),
                str(len(benchmark.sources.right)),
                str(benchmark.sources.n_matches),
                str(stats.n_attributes),
                _fmt(benchmark.blocking.pair_completeness, 3),
                _fmt(benchmark.blocking.pairs_quality, 3),
                str(benchmark.blocking.result.n_candidates),
                str(benchmark.blocking.result.n_matching_candidates),
                benchmark.blocking.config.describe(),
                str(stats.training_instances),
                str(stats.testing_instances),
                str(stats.training_positives),
                str(stats.testing_positives),
                f"{100 * benchmark.imbalance_ratio:.1f}%",
            ]
        )
    return headers, rows


def table6(runner: ExperimentRunner) -> Table:
    """Table VI: F1 of every matcher on the 8 new benchmarks."""
    return _f1_table(runner, SOURCE_DATASET_IDS)


def blocking_provenance_table(
    runner: ExperimentRunner, dataset_ids: tuple[str, ...] | None = None
) -> Table:
    """Table V companion: blocking recall/CSSR per backend per source.

    One row per (source, backend): the exhaustive q-gram baseline next
    to the tuned LSH and small-world graph ANN backends, with pair
    completeness, pairs quality, candidate count, CSSR (the fraction of
    the cross product kept) and wall time — the provenance behind the
    ``--blocker ann`` path.
    """
    if dataset_ids is None:
        dataset_ids = SOURCE_DATASET_IDS
    headers = [
        "dataset", "backend", "PC", "PQ", "|C|", "CSSR", "seconds", "config",
    ]
    rows = []
    for source_id in dataset_ids:
        sweep = runner.blocking_provenance(source_id)
        label = NEW_BENCHMARK_LABELS.get(source_id, source_id)
        for backend in ("exhaustive", "lsh", "graph"):
            provenance = sweep.get(backend)
            if provenance is None:
                continue
            rows.append(
                [
                    label,
                    backend,
                    _fmt(provenance.result.pair_completeness, 3),
                    _fmt(provenance.result.pairs_quality, 3),
                    str(provenance.result.n_candidates),
                    f"{100 * provenance.cssr:.2f}%",
                    _fmt(provenance.seconds, 2),
                    provenance.config,
                ]
            )
    return headers, rows


def _established_provenance(runner: ExperimentRunner, dataset_id: str) -> tuple[float, float, float]:
    """(PC, PQ, IR) of an established benchmark from its generation metadata."""
    task = runner.established_task(dataset_id)
    pairs = task.all_pairs()
    n_source_matches = task.metadata.get("n_source_matches")
    if isinstance(n_source_matches, int) and n_source_matches > 0:
        pair_completeness = pairs.positive_count / n_source_matches
    else:
        pair_completeness = float("nan")
    imbalance = pairs.imbalance_ratio
    # For a labeled candidate set, PQ (matches / candidates) equals IR.
    return pair_completeness, imbalance, imbalance


def verdict_table(
    runner: ExperimentRunner, dataset_ids: tuple[str, ...] | None = None
) -> Table:
    """The paper's conclusion as a table: four gates + final verdict.

    Defaults to the 13 established benchmarks; pass
    ``SOURCE_DATASET_IDS`` for the new ones. This is the view behind
    Section V's "only D_s4, D_s6, D_d4 and D_t1 are challenging".
    """
    if dataset_ids is None:
        dataset_ids = ESTABLISHED_DATASET_IDS
    headers = [
        "dataset", "linearity", "complexity", "NLB", "LBM",
        "easy:lin", "easy:cmplx", "easy:pract", "verdict",
    ]
    rows = []
    for dataset_id in dataset_ids:
        assessment = runner.assessment(dataset_id, with_practical=True)
        practical = assessment.practical
        # A failed sweep yields unmeasured (NaN) practical measures: the
        # gate renders as unknown ("-"/"?"), never as a fabricated "yes".
        measured = assessment.has_practical
        rows.append(
            [
                NEW_BENCHMARK_LABELS.get(dataset_id, dataset_id),
                _fmt(assessment.max_linearity, 3),
                _fmt(assessment.complexity.mean, 3),
                f"{100 * practical.non_linear_boost:+.1f}%" if measured else MISSING_CELL,
                f"{100 * practical.learning_based_margin:.1f}%" if measured else MISSING_CELL,
                "yes" if assessment.easy_by_linearity else "no",
                "yes" if assessment.easy_by_complexity else "no",
                ("yes" if assessment.easy_by_practical else "no") if measured else "?",
                "CHALLENGING" if assessment.is_challenging else "easy",
            ]
        )
    return headers, rows


def table7(runner: ExperimentRunner) -> Table:
    """Table VII: existing vs new benchmarks of the same origin."""
    headers = [
        "existing", "PC", "PQ", "IR",
        "new", "PC'", "PQ'", "IR'",
    ]
    rows = []
    for established_id, source_id in TABLE7_PAIRS:
        pair_completeness, pairs_quality, imbalance = _established_provenance(
            runner, established_id
        )
        benchmark = runner.new_benchmark(source_id)
        rows.append(
            [
                established_id,
                _fmt(pair_completeness, 3),
                _fmt(pairs_quality, 3),
                f"{100 * imbalance:.2f}%",
                benchmark.label,
                _fmt(benchmark.blocking.pair_completeness, 3),
                _fmt(benchmark.blocking.pairs_quality, 3),
                f"{100 * benchmark.imbalance_ratio:.2f}%",
            ]
        )
    return headers, rows
