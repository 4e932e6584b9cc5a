"""Chaos campaigns: prove that verdicts survive faults and corruption.

The reproduction's central claim — benchmark verdicts are stable
properties of dataset difficulty — only holds operationally if a sweep
that crashes or hits corrupted state resumes to the *same* verdicts as a
clean run. :class:`ChaosCampaign` turns that property into an executable
assertion: it runs a seeded schedule of randomized multi-site
:class:`FaultPlan`\\ s (drawn from the experiment layer's fault sites,
including the torn-write sites ``journal:append`` and
``cache:torn-write``) against real sweeps and diffs every plan's
surviving state against a fault-free baseline: a non-degraded cell must
score exactly what the baseline scored, a degraded cell must be marked
degraded and carry a :class:`~repro.runtime.policy.FailureRecord`
(never silently promoted to a real score), and measured practical
verdicts must agree.

Process kills are not campaign plans: the crash-consistency test
(``tests/runtime/test_crash_consistency.py``) SIGKILLs each durable-state
writer at its fault sites, runs ``repro doctor`` and resumes against an
uninterrupted control.

Everything is seeded: the same ``(seed, n_plans, sites)`` generates the
same schedule, and each plan's faults use seeded pass probabilities, so a
campaign failure is replayable from its plan description alone.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro import obs
from repro.runtime import faults
from repro.runtime import guard as guard_module
from repro.runtime.breaker import BreakerRegistry
from repro.runtime.policy import ExecutionPolicy

#: Default datasets for campaigns: two small established benchmarks.
DEFAULT_DATASETS = ("Ds5", "Ds7")

#: Default size factor for campaign sweeps (kept small — a campaign runs
#: dozens of them).
DEFAULT_SCALE = 0.3


@dataclass(frozen=True)
class PlannedFault:
    """One armed site of a fault plan."""

    site: str
    kind: str  # "error" | "corrupt" | "torn"
    times: int | None = 1
    probability: float = 1.0

    def describe(self) -> str:
        times = "*" if self.times is None else str(self.times)
        text = f"{self.site}={self.kind}:{times}"
        if self.probability < 1.0:
            text += f"@p{self.probability:.2f}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults to arm for one campaign pass."""

    plan_id: int
    seed: int
    faults: tuple[PlannedFault, ...]

    def arm(self) -> None:
        for planned in self.faults:
            faults.arm(
                planned.site,
                planned.kind,
                times=planned.times,
                probability=planned.probability,
                seed=self.seed,
            )

    def describe(self) -> str:
        parts = [planned.describe() for planned in self.faults]
        body = ", ".join(parts) if parts else "no faults"
        return f"plan {self.plan_id} (seed {self.seed}): {body}"


@dataclass(frozen=True)
class PlanResult:
    """One executed plan: its divergences (empty = verdicts survived)."""

    plan: FaultPlan
    divergences: tuple[str, ...]
    degraded_cells: int
    failures_absorbed: int

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass(frozen=True)
class CampaignReport:
    """Everything a finished campaign asserts on."""

    seed: int
    datasets: tuple[str, ...]
    scale: float
    results: tuple[PlanResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def divergent(self) -> tuple[PlanResult, ...]:
        return tuple(result for result in self.results if not result.ok)

    def to_table(self) -> tuple[list[str], list[list[str]]]:
        """(headers, rows) for :func:`repro.experiments.report.render`."""
        headers = ["plan", "faults", "degraded", "absorbed", "verdicts"]
        rows = []
        for result in self.results:
            faults_text = ", ".join(
                planned.describe() for planned in result.plan.faults
            )
            rows.append(
                [
                    str(result.plan.plan_id),
                    faults_text or "-",
                    str(result.degraded_cells),
                    str(result.failures_absorbed),
                    "match" if result.ok else f"DIVERGED x{len(result.divergences)}",
                ]
            )
        return headers, rows


# -- plan generation -------------------------------------------------------


def default_site_pool(
    dataset_ids: Sequence[str],
    matcher_names: Sequence[str] = ("DITTO (15)", "ZeroER", "SA-ESDE"),
) -> tuple[PlannedFault, ...]:
    """The fault menu a campaign draws from, covering every site family."""
    pool: list[PlannedFault] = [
        PlannedFault("matcher:*", "error", times=2),
        PlannedFault("cache:read", "corrupt", times=None, probability=0.5),
        PlannedFault("cache:read", "error", times=1),
        PlannedFault("cache:write", "error", times=1),
        PlannedFault("cache:torn-write", "torn", times=1),
        PlannedFault("journal:append", "torn", times=1),
        PlannedFault("io:write", "error", times=1),
        # Supervision sites: simulated memory pressure driving the
        # degradation ladder, a full disk mid-envelope, and a competing
        # (dead-owner) lease planted on the cache dir.
        PlannedFault("guard:oom", "error", times=2),
        PlannedFault("io:enospc", "error", times=1),
        PlannedFault("lease:steal", "error", times=1),
    ]
    for name in matcher_names:
        pool.append(PlannedFault(f"matcher:{name}", "error", times=None))
    for dataset_id in dataset_ids:
        pool.append(PlannedFault(f"sweep:{dataset_id}", "error", times=1))
        pool.append(PlannedFault(f"dataset:{dataset_id}", "error", times=1))
    return tuple(pool)


def frontend_site_pool() -> tuple[PlannedFault, ...]:
    """The fault menu for socket front-end campaigns (PR-9).

    All bounded (``times=1``) error-kind faults: the front end's contract
    is that any of these degrades one connection or one request — never
    the daemon — so a scripted client retrying with backoff must converge
    to answers bit-identical to the fault-free baseline. Hang kinds are
    deliberately absent (they only stretch wall-clock; the deadline model
    covers them), and ``kill`` at ``frontend:batch`` is reserved for the
    subprocess crash-consistency path.
    """
    return (
        PlannedFault("frontend:accept", "error", times=1),
        PlannedFault("frontend:read", "error", times=1),
        PlannedFault("frontend:write", "error", times=1),
        PlannedFault("frontend:disconnect", "error", times=1),
        PlannedFault("frontend:batch", "error", times=1),
        PlannedFault("serve:request", "error", times=1),
    )


def generate_frontend_plans(
    n_plans: int,
    seed: int,
    *,
    max_faults_per_plan: int = 2,
) -> tuple[FaultPlan, ...]:
    """A seeded schedule over the socket front-end fault sites."""
    return generate_plans(
        n_plans,
        seed,
        frontend_site_pool(),
        max_faults_per_plan=max_faults_per_plan,
    )


def generate_plans(
    n_plans: int,
    seed: int,
    site_pool: Sequence[PlannedFault],
    *,
    max_faults_per_plan: int = 3,
) -> tuple[FaultPlan, ...]:
    """A seeded schedule of ``n_plans`` plans over ``site_pool``.

    Each plan arms 1..``max_faults_per_plan`` distinct-site faults. Pure
    function of its arguments.
    """
    rng = random.Random(seed)
    plans: list[FaultPlan] = []
    for plan_id in range(n_plans):
        plan_seed = rng.randrange(2**31)
        n_faults = rng.randint(1, max(1, max_faults_per_plan))
        chosen: dict[str, PlannedFault] = {}
        for planned in rng.sample(list(site_pool), k=min(n_faults, len(site_pool))):
            chosen.setdefault(planned.site, planned)
        plans.append(
            FaultPlan(
                plan_id=plan_id,
                seed=plan_seed,
                faults=tuple(chosen.values()),
            )
        )
    return tuple(plans)


# -- sweep state collection and diffing ------------------------------------


def collect_sweep_state(runner, dataset_ids: Sequence[str]) -> dict:
    """Diffable sweep state: cells + practical measures, no wall-clock.

    Thin wrapper over :func:`repro.experiments.snapshot.sweep_state`
    (imported lazily: runtime must stay importable without the
    experiments layer).
    """
    from repro.experiments.snapshot import sweep_state

    return sweep_state(runner, tuple(dataset_ids))


def diff_sweep_states(baseline: dict, observed: dict) -> list[str]:
    """Divergences of ``observed`` from ``baseline`` (empty = consistent).

    The contract enforced on every chaos plan:

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
                if not math.isclose(
                    seen[measure], base[measure], rel_tol=0, abs_tol=0
                ):
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


def count_unexplained_degradations(state: dict, failures) -> int:
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


# -- the campaign engine ---------------------------------------------------


@dataclass
class ChaosCampaign:
    """Seeded schedule of fault plans asserted against a clean baseline.

    ``run()`` computes the fault-free baseline once (fresh cache
    directory, no faults armed), then executes every plan with its faults
    armed in an isolated cache directory and records divergences.
    ``breaker_threshold`` arms circuit breakers on
    the plan policies, so a matcher that fails on every pass
    short-circuits instead of burning retries across the whole campaign.
    """

    datasets: tuple[str, ...] = DEFAULT_DATASETS
    scale: float = DEFAULT_SCALE
    seed: int = 0
    n_plans: int = 20
    max_faults_per_plan: int = 3
    retries: int = 2
    breaker_threshold: int | None = 5
    workdir: Path | None = None
    site_pool: tuple[PlannedFault, ...] = ()
    _owns_workdir: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.datasets = tuple(self.datasets)
        if not self.site_pool:
            self.site_pool = default_site_pool(self.datasets)
        if self.workdir is None:
            self.workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
            self._owns_workdir = True
        else:
            self.workdir = Path(self.workdir)
            self.workdir.mkdir(parents=True, exist_ok=True)

    # -- internals ---------------------------------------------------------

    def _policy(self) -> ExecutionPolicy:
        from repro.experiments.matcher_suite import MATCHER_ERRORS

        breakers = (
            BreakerRegistry(failure_threshold=self.breaker_threshold)
            if self.breaker_threshold is not None
            else None
        )
        return ExecutionPolicy(
            max_attempts=self.retries,
            backoff_base=0.0,
            seed=self.seed,
            retry_on=MATCHER_ERRORS,
            breakers=breakers,
        )

    def _sweep_state(self, cache_dir: Path, options: dict | None = None):
        """One sweep of the campaign datasets; (state, n_failures, runner)."""
        from repro.experiments.runner import ExperimentRunner, RunnerConfig

        runner = ExperimentRunner(
            config=RunnerConfig(
                scale=self.scale,
                seed=self.seed,
                cache_dir=cache_dir,
                policy=self._policy(),
                **(options or {}),
            )
        )
        state = collect_sweep_state(runner, self.datasets)
        return state, len(runner.failure_records()), runner

    @staticmethod
    def _plan_runner_options(plan: FaultPlan) -> dict:
        """Extra runner knobs a plan's fault sites need to be reachable.

        ``guard:oom`` needs an armed :class:`~repro.runtime.guard.ResourceGuard`;
        the absurd budget keeps *real* RSS out of the picture so only the
        injected probe drives the degradation ladder.
        """
        sites = {planned.site for planned in plan.faults}
        options: dict = {}
        if "guard:oom" in sites:
            options.update(memory_budget_mb=1_000_000.0)
        return options

    def baseline(self) -> dict:
        """The fault-free reference state (computed once, then reused)."""
        if getattr(self, "_baseline", None) is None:
            faults.reset()
            with obs.span("chaos.baseline", datasets=",".join(self.datasets)):
                state, _, _ = self._sweep_state(self.workdir / "baseline")
            self._baseline = state
        return self._baseline

    def run_plan(self, plan: FaultPlan) -> PlanResult:
        """Execute one plan against a fresh cache dir and diff the state."""
        baseline = self.baseline()
        plan_dir = self.workdir / f"plan_{plan.plan_id:03d}"
        faults.reset()
        plan.arm()
        options = self._plan_runner_options(plan)
        try:
            with obs.span("chaos.plan", plan=plan.plan_id):
                # Two passes over the same cache dir while the faults stay
                # armed: the first exercises the write paths (including
                # torn writes), the second the read/resume paths — torn
                # envelopes must quarantine and recompute, torn journal
                # tails must be dropped, and both states must still match
                # the fault-free baseline.
                state, n_failures, runner = self._sweep_state(plan_dir, options)
                resumed, n_resumed, resumed_runner = self._sweep_state(
                    plan_dir, options
                )
        finally:
            faults.reset()
            # guard:oom plans walk the global degradation ladder (kernel
            # batch size, feature cache); undo it so later plans and the
            # next baseline run full-speed paths.
            guard_module.reset_global_degradations()
        divergences = diff_sweep_states(baseline, state)
        divergences.extend(
            f"resume: {text}" for text in diff_sweep_states(baseline, resumed)
        )
        # Only the first pass is checked for unexplained degradations: a
        # resumed run loads degraded cells from cache without re-recording
        # their failures (promotion on resume is still caught by the score
        # diff, because a degraded cell caches 0.0 scores).
        del resumed_runner
        unexplained = count_unexplained_degradations(
            state, runner.failure_records()
        )
        if unexplained:
            divergences.append(
                f"{unexplained} degraded cell(s) carry no FailureRecord"
            )
        n_failures += n_resumed
        degraded = sum(
            1
            for entry in state["datasets"].values()
            for cell in entry["results"].values()
            if cell["degraded"]
        )
        obs.inc("chaos.plans")
        if divergences:
            obs.inc("chaos.divergences", len(divergences))
        return PlanResult(
            plan=plan,
            divergences=tuple(divergences),
            degraded_cells=degraded,
            failures_absorbed=n_failures,
        )

    def run(self) -> CampaignReport:
        """Run the whole seeded schedule; clean up owned scratch space."""
        plans = generate_plans(
            self.n_plans,
            self.seed,
            self.site_pool,
            max_faults_per_plan=self.max_faults_per_plan,
        )
        try:
            self.baseline()
            results = tuple(self.run_plan(plan) for plan in plans)
        finally:
            if self._owns_workdir:
                shutil.rmtree(self.workdir, ignore_errors=True)
        return CampaignReport(
            seed=self.seed,
            datasets=self.datasets,
            scale=self.scale,
            results=results,
        )
