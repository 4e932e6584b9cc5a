"""Healthy-path overhead of the runner's optional layers: ≤2% each.

Times the same fresh matcher sweep with one layer switched on and off,
and prints the measurement:

* ``obs`` — the active :class:`~repro.obs.Observability` enabled vs
  disabled (DESIGN.md §8). Both sides sweep into a fresh temporary cache
  directory, so the enabled side pays the ``trace.jsonl`` append of
  every span and both pay the same envelope and journal writes;
* ``breakers`` — per-unit circuit breakers attached to the execution
  policy vs none (DESIGN.md §7): one registry lookup plus one success
  record per unit;
* ``guard`` — the full supervision stack armed (memory and disk budgets,
  adaptive deadlines) vs none (DESIGN.md §7): one rate-limited resource
  probe per unit plus a deadline-model append.

A warm-up sweep pays dataset generation and allocator warm-up; then the
two modes interleave ``REPS`` times, so slow drift hits both, and the
best of each is compared. The budget is ``OVERHEAD_BUDGET_PCT``, with an
absolute ``NOISE_FLOOR_SECONDS`` guard so sub-100ms timing jitter cannot
fail a run that is within noise. These budgets are far below what a
perfbench run resolves (its bounds are 25%), so this bench is their
gate::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_overhead.py
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import pytest

from repro import obs as obs_module
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.obs import Observability

SCALE = 0.3
DATASETS = ("Ds5", "Ds7")
REPS = 3
OVERHEAD_BUDGET_PCT = 2.0
#: Absolute slack: differences below this are timing noise, not overhead.
NOISE_FLOOR_SECONDS = 0.1

#: The runner options that switch each layer on (``obs`` is switched by
#: enabling the active instance instead).
LAYER_OPTIONS = {
    "obs": {},
    "breakers": {"breaker_threshold": 5},
    "guard": {
        "memory_budget_mb": 1_000_000.0,
        "disk_reserve_mb": 1.0,
        "adaptive_deadlines": True,
    },
}


def _timed(layer: str, on: bool) -> float:
    """Wall seconds of fresh sweeps with ``layer`` on or off.

    Only the ``obs`` case gets a cache directory (a new one per sweep).
    """
    enabled = on or layer != "obs"
    options = dict(LAYER_OPTIONS[layer]) if on else {}
    with tempfile.TemporaryDirectory() as cache_dir, obs_module.use(
        Observability(enabled=enabled)
    ):
        if layer == "obs":
            options["cache_dir"] = cache_dir
        runner = ExperimentRunner(
            config=RunnerConfig(scale=SCALE, **options)
        )
        start = time.perf_counter()
        runner.sweep_all(DATASETS)
        return time.perf_counter() - start


@pytest.mark.parametrize("layer", sorted(LAYER_OPTIONS))
def test_layer_overhead(layer):
    _timed(layer, on=False)
    off_seconds = float("inf")
    on_seconds = float("inf")
    for _ in range(REPS):
        off_seconds = min(off_seconds, _timed(layer, on=False))
        on_seconds = min(on_seconds, _timed(layer, on=True))
    delta = on_seconds - off_seconds
    overhead_pct = 100.0 * delta / off_seconds
    within_budget = (
        overhead_pct <= OVERHEAD_BUDGET_PCT or delta <= NOISE_FLOOR_SECONDS
    )

    record = {
        "layer": layer,
        "scale": SCALE,
        "datasets": list(DATASETS),
        "reps": REPS,
        "cpu_count": os.cpu_count(),
        "off_seconds": round(off_seconds, 4),
        "on_seconds": round(on_seconds, 4),
        "delta_seconds": round(delta, 4),
        "overhead_pct": round(overhead_pct, 3),
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "noise_floor_seconds": NOISE_FLOOR_SECONDS,
        "within_budget": within_budget,
    }
    print()
    print(json.dumps(record, indent=2))

    assert within_budget, (
        f"{layer} overhead {overhead_pct:.2f}% ({delta:.3f}s) exceeds the "
        f"{OVERHEAD_BUDGET_PCT}% budget"
    )
