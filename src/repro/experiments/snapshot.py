"""Full experiment snapshot: every table and figure as one JSON document.

``take_snapshot`` runs (or loads from cache) all experiments of the
reproduction — Tables III-VII, Figures 1-6, and the paper-vs-measured
comparison — and returns them as a JSON-serializable dict. This is what
EXPERIMENTS.md records and what downstream tooling (plots, CI dashboards)
can consume without re-running anything.

The snapshot document also carries the run's ``failures`` (every
:class:`~repro.runtime.FailureRecord` the runner absorbed while degrading
gracefully), and ``save_snapshot`` writes atomically. Because the runner
journals and disk-caches every per-dataset unit, a snapshot interrupted
by a kill resumes from completed units when rerun with the same cache
directory.

``sweep_state`` is the smaller, diffable state of a sweep, and
``diff_sweep_states`` / ``count_unexplained_degradations`` are the oracle
that holds a faulted or resumed sweep to a fault-free one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.experiments import figures, tables
from repro.experiments.paper_comparison import compare_all
from repro.experiments.runner import ExperimentRunner
from repro.runtime import atomic_write_text


def take_snapshot(runner: ExperimentRunner) -> dict[str, object]:
    """Collect every experiment's data through *runner*."""
    table_entries = {}
    for name, builder in (
        ("table3", tables.table3),
        ("table4", tables.table4),
        ("table5", tables.table5),
        ("table6", tables.table6),
        ("table7", tables.table7),
    ):
        headers, rows = builder(runner)
        table_entries[name] = {"headers": headers, "rows": rows}

    figure_entries = {
        name: builder(runner)
        for name, builder in (
            ("fig1", figures.figure1),
            ("fig2", figures.figure2),
            ("fig3", figures.figure3),
            ("fig4", figures.figure4),
            ("fig5", figures.figure5),
            ("fig6", figures.figure6),
        )
    }

    established, new = compare_all(runner)
    comparisons = {
        "established": [vars(c) | {
            "paper_nlb": c.paper_nlb,
            "measured_nlb": c.measured_nlb,
            "verdict_agrees": c.verdict_agrees,
        } for c in established],
        "new": [vars(c) | {
            "paper_nlb": c.paper_nlb,
            "measured_nlb": c.measured_nlb,
            "verdict_agrees": c.verdict_agrees,
        } for c in new],
    }

    verdicts = {}
    for dataset_id in (
        *["Ds1", "Ds2", "Ds3", "Ds4", "Ds5", "Ds6", "Ds7",
          "Dd1", "Dd2", "Dd3", "Dd4", "Dt1", "Dt2"],
    ):
        assessment = runner.assessment(dataset_id, with_practical=True)
        verdicts[dataset_id] = assessment.summary()

    from repro.datasets.established import ESTABLISHED_ORDER, effective_scale

    return {
        "size_factor": runner.size_factor,
        # Scale provenance per dataset: tiny size factors are clamped by
        # the generation minimums, so the effective factor can exceed the
        # requested one (the "clamped" flag marks exactly when).
        "effective_scales": {
            dataset_id: effective_scale(dataset_id, runner.size_factor)
            for dataset_id in ESTABLISHED_ORDER
        },
        "seed": runner.seed,
        "tables": table_entries,
        "figures": figure_entries,
        "comparisons": comparisons,
        "verdicts_established": verdicts,
        "failures": [
            failure.to_dict() for failure in runner.failure_records()
        ],
        # Counters/gauges/timers accumulated while producing the snapshot
        # (cache hits, matcher timings, ...) — dashboards read them from
        # here instead of re-running anything.
        "metrics": runner.obs.snapshot(),
    }


def save_snapshot(runner: ExperimentRunner, path: Path | str) -> dict[str, object]:
    """Take a snapshot and atomically write it as JSON; returns the snapshot."""
    snapshot = take_snapshot(runner)
    atomic_write_text(Path(path), json.dumps(snapshot, indent=1))
    return snapshot


def sweep_state(
    runner: ExperimentRunner, dataset_ids: tuple[str, ...]
) -> dict[str, object]:
    """The *diffable* state of a sweep: scores and verdicts, no wall-clock.

    The comparison surface of the fault-injection and crash-consistency
    tests (:func:`diff_sweep_states`). Per dataset it records each matcher's
    scores and degraded flag, the practical measures (NLB/LBM) when
    measured, and the practical verdict — but deliberately no timings,
    pids or trace ids, which legitimately differ between runs. Two runs
    of the same ``(datasets, scale, seed)`` must produce equal states
    regardless of faults survived, kills resumed, or cache state.
    """
    state: dict[str, object] = {"datasets": {}}
    for dataset_id in dataset_ids:
        results = runner.matcher_results(dataset_id)
        practical = runner.practical(dataset_id)
        measured = practical.is_measured
        state["datasets"][dataset_id] = {
            "results": {
                name: {
                    "f1": result.f1,
                    "precision": result.precision,
                    "recall": result.recall,
                    "degraded": result.degraded,
                }
                for name, result in sorted(results.items())
            },
            "measured": measured,
            "nlb": practical.non_linear_boost if measured else None,
            "lbm": practical.learning_based_margin if measured else None,
            "practical_challenging": (
                practical.is_challenging() if measured else None
            ),
            "journal_units": sorted(
                unit
                for unit in (
                    runner.journal.completed if runner.journal else ()
                )
                if unit == f"sweep:{dataset_id}"
            ),
        }
    return state


def diff_sweep_states(baseline: dict, observed: dict) -> list[str]:
    """Divergences of ``observed`` from ``baseline`` (empty = consistent).

    The contract a faulted or resumed sweep must keep:

    * a cell the observed run reports as *non-degraded* must score exactly
      the baseline's score — a degraded cell silently promoted to a real
      (zeroed or fabricated) score diverges here;
    * a degraded or missing cell is *surviving data loss*, not divergence;
    * when the observed run's practical measures are measured, NLB/LBM
      and the practical verdict must equal the baseline's.
    """
    divergences: list[str] = []
    for dataset_id, base in baseline["datasets"].items():
        seen = observed["datasets"].get(dataset_id)
        if seen is None:
            divergences.append(f"{dataset_id}: missing from observed state")
            continue
        for matcher, base_cell in base["results"].items():
            cell = seen["results"].get(matcher)
            if cell is None or cell["degraded"]:
                continue  # lost or degraded, visibly — not a divergence
            if base_cell["degraded"]:
                divergences.append(
                    f"{dataset_id}/{matcher}: degraded in baseline but "
                    f"scored {cell['f1']:.6f} under faults"
                )
                continue
            for measure in ("f1", "precision", "recall"):
                if cell[measure] != base_cell[measure]:
                    divergences.append(
                        f"{dataset_id}/{matcher}: {measure} "
                        f"{cell[measure]:.6f} != baseline "
                        f"{base_cell[measure]:.6f}"
                    )
        if seen["measured"] and base["measured"]:
            for measure in ("nlb", "lbm"):
                if seen[measure] != base[measure]:
                    divergences.append(
                        f"{dataset_id}: {measure} {seen[measure]:.6f} != "
                        f"baseline {base[measure]:.6f}"
                    )
            if seen["practical_challenging"] != base["practical_challenging"]:
                divergences.append(
                    f"{dataset_id}: practical verdict "
                    f"{seen['practical_challenging']} != baseline "
                    f"{base['practical_challenging']}"
                )
    return divergences


def count_unexplained_degradations(state: dict, failures: Iterable) -> int:
    """Degraded cells with no matching :class:`FailureRecord` (should be 0).

    Every degraded cell must be *explained* — either its own matcher
    failure record or a sweep/cache-level record for its dataset. A
    degraded cell with no record at all was silently degraded.
    """
    unit_ids = {record.unit_id for record in failures}
    unexplained = 0
    for dataset_id, entry in state["datasets"].items():
        dataset_units = {
            unit
            for unit in unit_ids
            if unit == f"sweep:{dataset_id}" or unit.startswith(f"{dataset_id}/")
        }
        for matcher, cell in entry["results"].items():
            if not cell["degraded"]:
                continue
            if (
                f"{dataset_id}/{matcher}" not in unit_ids
                and not dataset_units
            ):
                unexplained += 1
    return unexplained
