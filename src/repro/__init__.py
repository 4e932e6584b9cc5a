"""repro — reproduction of "A Critical Re-evaluation of Record Linkage
Benchmarks for Learning-Based Matching Algorithms" (ICDE 2024).

The package implements the paper's full apparatus:

* :mod:`repro.core` — the four difficulty measures (degree of linearity,
  the 17 complexity measures, non-linear boost, learning-based margin), the
  combined assessment verdict, the Section VI benchmark-construction
  methodology, and extensions (difficulty continuum, leakage analysis);
* :mod:`repro.matchers` — the evaluation roster: 6 linear ESDE variants,
  Magellan (4 heads), ZeroER, and five deep-matcher stand-ins;
* :mod:`repro.blocking` — token/q-gram/sorted-neighborhood blocking, the
  DeepBlocker equivalent, PC/PQ evaluation and the recall-targeted tuner;
* :mod:`repro.datasets` — synthetic equivalents of the 13 established
  benchmarks and the 8 Table V source pairs;
* :mod:`repro.embeddings` — the synthetic pre-trained language model
  (static / contextual / sentence embedders);
* :mod:`repro.ml` — from-scratch numpy estimators;
* :mod:`repro.data` — records, pair sets, matching tasks, CSV round-trip;
* :mod:`repro.experiments` — the table/figure harness, paper comparison,
  SVG rendering and the ``python -m repro`` CLI.

* :mod:`repro.obs` — zero-dependency observability: trace spans and a
  metrics registry, shared by every layer above;
* :mod:`repro.runtime` — fault-tolerant execution (policies, cache
  envelopes, checkpoint journal, resource guard);
* :mod:`repro.serve` — resident matching sessions: a fitted matcher plus
  an incremental ANN index answering queries online (``python -m repro
  serve``).

Quickstart::

    from repro import default_runner, render
    from repro.experiments.tables import table3

    print(render(table3(default_runner()), title="Table III"))

or, assessing one dataset directly::

    from repro.datasets import load_established_task
    from repro.core import assess_benchmark

    task = load_established_task("Ds4")
    print(assess_benchmark(task).summary())

The facade below re-exports the runner/reporting surface so common use
needs only ``from repro import ...``.
"""

__version__ = "1.0.0"

# The obs package is stdlib-only and imported by low-level modules
# (runtime.cache, matchers.base); importing it first keeps the facade's
# heavier imports below free of partially-initialised-package surprises.
from repro import obs
from repro.obs import Observability
from repro.experiments.report import render
from repro.experiments.runner import (
    ExperimentRunner,
    RunnerConfig,
    default_runner,
)
from repro.runtime import ExecutionPolicy
from repro.serve import MatcherSession, SessionConfig, open_session

__all__ = [
    "ExecutionPolicy",
    "ExperimentRunner",
    "MatcherSession",
    "Observability",
    "RunnerConfig",
    "SessionConfig",
    "__version__",
    "default_runner",
    "obs",
    "open_session",
    "render",
]
