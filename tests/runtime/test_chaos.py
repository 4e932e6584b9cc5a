"""Tests for chaos campaigns and state diffing.

The cheap parts (plan generation, diffing) run everywhere.
The in-process campaign smoke is marked ``fault_smoke``; the full
20-plan acceptance campaign is marked ``chaos`` and excluded from the
default test run — invoke it with ``pytest -m chaos``. Process kills are
covered by ``test_crash_consistency.py``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.runtime.chaos import (
    ChaosCampaign,
    FaultPlan,
    PlannedFault,
    count_unexplained_degradations,
    default_site_pool,
    diff_sweep_states,
    generate_plans,
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


class TestGeneratePlans:
    POOL = default_site_pool(("Ds5", "Ds7"))

    def test_same_seed_same_schedule(self):
        first = generate_plans(8, 42, self.POOL)
        assert generate_plans(8, 42, self.POOL) == first
        assert generate_plans(8, 43, self.POOL) != first

    def test_plan_shape(self):
        plans = generate_plans(10, 0, self.POOL, max_faults_per_plan=3)
        assert len(plans) == 10
        for plan in plans:
            assert 1 <= len(plan.faults) <= 3
            sites = [planned.site for planned in plan.faults]
            assert len(sites) == len(set(sites))  # distinct sites per plan

    def test_describe_is_replayable_text(self):
        plan = FaultPlan(
            plan_id=3,
            seed=7,
            faults=(PlannedFault("cache:read", "corrupt", times=None, probability=0.5),),
        )
        assert "plan 3 (seed 7)" in plan.describe()
        assert "cache:read=corrupt:*@p0.50" in plan.describe()


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


class TestCampaignSmoke:
    @pytest.mark.fault_smoke
    def test_small_campaign_survives_with_zero_divergences(self, tmp_path):
        campaign = ChaosCampaign(
            datasets=("Ds5",),
            scale=0.3,
            seed=0,
            n_plans=2,
            workdir=tmp_path / "campaign",
        )
        report = campaign.run()
        assert report.ok, report.divergent
        assert len(report.results) == 2
        headers, rows = report.to_table()
        assert headers[0] == "plan"
        assert len(rows) == 2
        assert all(row[-1] == "match" for row in rows)

    @pytest.mark.fault_smoke
    def test_always_failing_matcher_degrades_but_never_diverges(self, tmp_path):
        campaign = ChaosCampaign(
            datasets=("Ds5",),
            scale=0.3,
            seed=0,
            n_plans=1,
            workdir=tmp_path / "campaign",
        )
        plan = FaultPlan(
            plan_id=0,
            seed=0,
            faults=(PlannedFault("matcher:DITTO (15)", "error", times=None),),
        )
        result = campaign.run_plan(plan)
        assert result.ok, result.divergences
        assert result.degraded_cells >= 1
        assert result.failures_absorbed >= 1


@pytest.mark.chaos
class TestAcceptanceCampaign:
    """A 20-plan seeded campaign with zero verdict divergences. Minutes
    of wall-clock — run with ``pytest -m chaos``."""

    def test_twenty_plan_campaign(self):
        campaign = ChaosCampaign()  # defaults: 20 plans
        report = campaign.run()
        assert len(report.results) == 20
        assert report.ok, "\n".join(
            f"{result.plan.describe()}: {result.divergences}"
            for result in report.divergent
        )
