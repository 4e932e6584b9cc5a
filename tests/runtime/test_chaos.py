"""Faulted sweeps reach the fault-free scores: the oracle and its property.

:func:`diff_sweep_states` and :func:`count_unexplained_degradations` are
the oracle, unit-tested on hand-built states first. The property then
arms any set of distinct fault sites (errors, corrupt reads, torn
writes, injected memory and disk pressure, a stolen lease, always-failing
matchers), sweeps Ds5 twice into one fresh directory — the first pass
exercises the write paths, the second the read and resume paths — and
holds both sweeps to one fault-free baseline: a non-degraded cell scores
exactly the baseline's score, every degraded cell carries a
``FailureRecord``, and ``repro doctor`` repairs what the faults left so
the directory audits clean. Process kills are covered by
``test_crash_consistency.py``.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.experiments.cli import main
from repro.experiments.matcher_suite import MATCHER_ERRORS
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.snapshot import (
    count_unexplained_degradations,
    diff_sweep_states,
    sweep_state,
)
from repro.runtime import BreakerRegistry, ExecutionPolicy, faults
from repro.runtime.guard import reset_global_degradations

DATASETS = ("Ds5",)

#: The fault menu, one ``(site, kind, times, probability)`` per entry;
#: ``times=None`` fires on every pass.
SITES = (
    ("matcher:*", "error", 2, 1.0),
    ("cache:read", "corrupt", None, 0.5),
    ("cache:read", "error", 1, 1.0),
    ("cache:write", "error", 1, 1.0),
    ("cache:torn-write", "torn", 1, 1.0),
    ("journal:append", "torn", 1, 1.0),
    ("io:write", "error", 1, 1.0),
    # Supervision: memory pressure walking the degradation ladder, a full
    # disk mid-envelope and a competing (dead-owner) lease on the dir.
    ("guard:oom", "error", 2, 1.0),
    ("io:enospc", "error", 1, 1.0),
    ("lease:steal", "error", 1, 1.0),
    ("matcher:DITTO (15)", "error", None, 1.0),
    ("matcher:ZeroER", "error", None, 1.0),
    ("matcher:SA-ESDE", "error", None, 1.0),
    ("sweep:Ds5", "error", 1, 1.0),
    ("dataset:Ds5", "error", 1, 1.0),
)


def _cell(f1=0.5, degraded=False):
    return {"f1": f1, "precision": f1, "recall": f1, "degraded": degraded}


def _dataset(cells, measured=True, nlb=0.10, lbm=0.20, challenging=True):
    return {
        "results": cells,
        "measured": measured,
        "nlb": nlb if measured else None,
        "lbm": lbm if measured else None,
        "practical_challenging": challenging if measured else None,
        "journal_units": [],
    }


def _state(**datasets):
    return {"datasets": datasets}


class TestDiffSweepStates:
    def test_identical_states_have_no_divergences(self):
        state = _state(Ds5=_dataset({"A": _cell(), "B": _cell(0.7)}))
        assert diff_sweep_states(state, state) == []

    def test_degraded_or_missing_observed_cell_is_survived_loss(self):
        baseline = _state(Ds5=_dataset({"A": _cell(), "B": _cell()}))
        observed = _state(
            Ds5=_dataset({"A": _cell(0.0, degraded=True)}, measured=False)
        )
        assert diff_sweep_states(baseline, observed) == []

    def test_score_mismatch_diverges(self):
        baseline = _state(Ds5=_dataset({"A": _cell(0.5)}))
        observed = _state(Ds5=_dataset({"A": _cell(0.6)}))
        divergences = diff_sweep_states(baseline, observed)
        assert len(divergences) == 3  # f1, precision, recall
        assert "Ds5/A" in divergences[0]

    def test_silent_promotion_is_caught(self):
        # Baseline says the cell failed; a faulted run reporting a real
        # score for it fabricated data. This is the scenario the whole
        # campaign exists to catch.
        baseline = _state(Ds5=_dataset({"A": _cell(0.0, degraded=True)}))
        observed = _state(Ds5=_dataset({"A": _cell(0.0, degraded=False)}))
        divergences = diff_sweep_states(baseline, observed)
        assert any("degraded in baseline" in text for text in divergences)

    def test_practical_measure_mismatch_diverges(self):
        baseline = _state(Ds5=_dataset({"A": _cell()}, nlb=0.10))
        observed = _state(Ds5=_dataset({"A": _cell()}, nlb=0.11))
        assert any(
            "nlb" in text for text in diff_sweep_states(baseline, observed)
        )

    def test_practical_verdict_mismatch_diverges(self):
        baseline = _state(Ds5=_dataset({"A": _cell()}, challenging=True))
        observed = _state(Ds5=_dataset({"A": _cell()}, challenging=False))
        assert any(
            "verdict" in text for text in diff_sweep_states(baseline, observed)
        )

    def test_unmeasured_observed_skips_practical_checks(self):
        baseline = _state(Ds5=_dataset({"A": _cell()}, nlb=0.10))
        observed = _state(Ds5=_dataset({"A": _cell()}, measured=False))
        assert diff_sweep_states(baseline, observed) == []

    def test_missing_dataset_diverges(self):
        baseline = _state(Ds5=_dataset({"A": _cell()}))
        assert diff_sweep_states(baseline, _state()) == [
            "Ds5: missing from observed state"
        ]


class TestUnexplainedDegradations:
    def _failures(self, *unit_ids):
        return [SimpleNamespace(unit_id=unit_id) for unit_id in unit_ids]

    def test_matcher_record_explains_its_cell(self):
        state = _state(Ds5=_dataset({"A": _cell(0.0, degraded=True)}))
        assert count_unexplained_degradations(
            state, self._failures("Ds5/A")
        ) == 0

    def test_sweep_record_explains_every_cell_of_its_dataset(self):
        state = _state(
            Ds5=_dataset(
                {"A": _cell(0.0, degraded=True), "B": _cell(0.0, degraded=True)}
            )
        )
        assert count_unexplained_degradations(
            state, self._failures("sweep:Ds5")
        ) == 0

    def test_degraded_cell_without_record_is_flagged(self):
        state = _state(Ds5=_dataset({"A": _cell(0.0, degraded=True)}))
        assert count_unexplained_degradations(state, self._failures()) == 1
        # A record for a different dataset does not explain it.
        assert count_unexplained_degradations(
            state, self._failures("sweep:Ds7")
        ) == 1


def _sweep(cache_dir, **options):
    """One Ds5 sweep at scale 0.3: (diffable state, runner)."""
    policy = ExecutionPolicy(
        max_attempts=2,
        backoff_base=0.0,
        retry_on=MATCHER_ERRORS,
        breakers=BreakerRegistry(failure_threshold=5),
    )
    runner = ExperimentRunner(
        config=RunnerConfig(
            scale=0.3, seed=0, cache_dir=cache_dir, policy=policy, **options
        )
    )
    return sweep_state(runner, DATASETS), runner


@functools.cache
def _baseline() -> dict:
    """The fault-free, cache-less state every faulted sweep is held to."""
    return _sweep(None)[0]


def _degraded_cells(state) -> int:
    return sum(
        cell["degraded"]
        for entry in state["datasets"].values()
        for cell in entry["results"].values()
    )


def _assert_faulted_sweeps_reach_the_baseline(armed, fault_seed, workdir):
    """Arm ``armed``, sweep twice into ``workdir`` and hold both sweeps to
    the fault-free baseline; ``repro doctor`` must then audit clean."""
    baseline = _baseline()
    for site, kind, times, probability in armed:
        faults.arm(site, kind, times=times, probability=probability, seed=fault_seed)
    # guard:oom needs an armed guard; a budget no real run reaches keeps
    # the injected probe the only pressure.
    options = (
        {"memory_budget_mb": 1_000_000.0}
        if any(site == "guard:oom" for site, *_ in armed)
        else {}
    )
    try:
        first, runner = _sweep(workdir, **options)
        resumed, _ = _sweep(workdir, **options)
    finally:
        faults.reset()
        reset_global_degradations()
    assert diff_sweep_states(baseline, first) == []
    assert diff_sweep_states(baseline, resumed) == []
    # Only the first sweep records failures: the second loads degraded
    # cells from the cache (a promotion there still fails the score diff,
    # since a degraded cell caches zero scores).
    failures = runner.failure_records()
    assert count_unexplained_degradations(first, failures) == 0
    always_failing = [
        site
        for site, _, times, _ in armed
        if site.startswith("matcher:") and times is None
    ]
    if always_failing:
        assert _degraded_cells(first) >= 1
        assert len(failures) >= 1
    assert main(["doctor", "--cache", str(workdir)]) == 0
    assert main(["doctor", "--check", "--cache", str(workdir)]) == 0


@pytest.mark.fault_smoke
class TestCampaignSmoke:
    @seed(20240401)
    @settings(
        max_examples=10,
        deadline=None,
        # The autouse fault reset is function-scoped; every example resets
        # the fault registry and the degradation ladder itself.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        armed=st.lists(
            st.sampled_from(SITES), min_size=1, max_size=3, unique_by=lambda f: f[0]
        ),
        fault_seed=st.integers(0, 2**31 - 1),
    )
    def test_small_campaign_survives_with_zero_divergences(
        self, armed, fault_seed, tmp_path_factory
    ):
        """The property: any 1-3 distinct fault sites, drawn 10 times."""
        _assert_faulted_sweeps_reach_the_baseline(
            armed, fault_seed, tmp_path_factory.mktemp("faulted")
        )

    def test_always_failing_matcher_degrades_but_never_diverges(self, tmp_path):
        _assert_faulted_sweeps_reach_the_baseline(
            [("matcher:DITTO (15)", "error", None, 1.0)], 0, tmp_path
        )
