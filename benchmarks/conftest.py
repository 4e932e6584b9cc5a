"""Shared fixtures for the benchmark harness.

One :class:`ExperimentRunner` serves every bench in the session, so heavy
intermediates (datasets, matcher sweeps, tuned blocking) are computed once.
Matcher sweeps additionally persist to ``.benchcache/`` in the repository
root — delete that directory to force a full re-run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.runner import ExperimentRunner, RunnerConfig

#: Scale of all benchmark runs: 1.0 = the CI-scale dataset sizes.
BENCH_SIZE_FACTOR = 1.0


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    cache_dir = Path(__file__).resolve().parent.parent / ".benchcache"
    return ExperimentRunner(
        RunnerConfig(scale=BENCH_SIZE_FACTOR, seed=0, cache_dir=cache_dir)
    )


def run_once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
