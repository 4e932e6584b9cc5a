"""The experiment runner: one object that caches every expensive artefact.

Tables and figures share heavy intermediates — Table IV's matcher sweep
feeds Figure 3, Table V's tuned blocking feeds Tables VI/VII and Figures
4-6. The runner memoizes datasets, matcher sweeps, new benchmarks and
assessments per (size_factor, seed), so regenerating all experiments costs
one sweep of each kind.

An optional on-disk cache (JSON, keyed by a fingerprint of the dataset
profiles) makes repeated benchmark runs cheap; pass ``cache_dir=None`` to
disable.

Persistence is fault tolerant (see :mod:`repro.runtime`): every cache
entry is a versioned, checksummed envelope written atomically; corrupt or
stale entries are quarantined and recomputed instead of aborting the run;
a checkpoint journal (``checkpoint.journal`` in the cache directory)
records completed units so an interrupted full-suite regeneration resumes
where it stopped — the runner consults ``is_done`` before recomputing and
surfaces journal/cache divergence as a failure instead of silently
recomputing. Expensive units run under an :class:`ExecutionPolicy`
(retries, backoff, deadlines) and failures surface as
:class:`FailureRecord` data through :meth:`ExperimentRunner.failure_records`.

Every unit runs in this process, one after another.

The runner is configured by one frozen :class:`RunnerConfig` and is wired
into :mod:`repro.obs`: every sweep/assessment opens a trace span, cache
and journal events increment metrics, and — when a cache directory is
set — closed spans append to ``<cache_dir>/trace.jsonl`` (DESIGN.md §8).
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
import time
from dataclasses import dataclass, replace
from functools import partial, wraps
from pathlib import Path

from repro import obs as obs_module
from repro.core.assessment import BenchmarkAssessment, assess_benchmark
from repro.core.complexity.profile import ComplexityProfile
from repro.core.linearity import LinearityResult
from repro.core.methodology import NewBenchmark, create_benchmark
from repro.core.practical import PracticalMeasures
from repro.data.task import MatchingTask
from repro.datasets.registry import (
    ESTABLISHED_DATASET_IDS,
    NEW_BENCHMARK_LABELS,
    SOURCE_DATASET_IDS,
    load_established_task,
    load_source_pair,
)
from repro.experiments.matcher_suite import (
    MATCHER_ERRORS,
    evaluate_suite,
    practical_from_results,
)
from repro.matchers.base import MatcherResult
from repro.obs import Observability
from repro.runtime import (
    BreakerRegistry,
    CheckpointJournal,
    ExecutionPolicy,
    FailureRecord,
    faults,
    read_cached_payload,
    write_envelope,
)
from repro.runtime.guard import AdaptiveDeadlineModel, LeaseHeld, ResourceGuard
from repro.runtime.state import RUNNER_STATE, CommitFailed, StateDir

logger = logging.getLogger("repro.experiments.runner")


@dataclass(frozen=True, kw_only=True)
class RunnerConfig:
    """The complete configuration of an :class:`ExperimentRunner`.

    A frozen keyword-only dataclass — one value object to validate, log,
    and pass around:

    * ``scale`` — dataset size factor (``ExperimentRunner.size_factor``);
    * ``seed`` — the global experiment seed;
    * ``cache_dir`` — on-disk envelope cache + checkpoint journal + trace
      file location (``None`` disables persistence);
    * ``policy`` — the :class:`ExecutionPolicy` for every expensive unit;
    * ``obs`` — the :class:`~repro.obs.Observability` instance the runner
      reports spans/metrics to, activated around each unit of work so
      the layers' spans reach it too; defaults to the process-wide
      active one (:func:`repro.obs.active`);
    * ``breaker_threshold`` — arm per-unit circuit breakers on the
      policy: a unit that fails this many consecutive times
      short-circuits to a ``CircuitOpen`` failure instead of burning its
      retry budget (``None`` disables; ignored when the policy already
      carries a registry).

    Resource supervision (see :mod:`repro.runtime.guard`):

    * ``memory_budget_mb`` / ``disk_reserve_mb`` — arm the
      :class:`ResourceGuard`: a checkpoint past the budget sheds its
      unit as a ``BudgetExceeded`` failure;
    * ``adaptive_deadlines`` — learn per-phase deadlines from healthy
      durations (p99 × margin) instead of one fixed ``--timeout``;
    * ``lease_timeout_seconds`` — how long a write-bearing unit waits
      for the cache directory's run lease (:class:`StateDir`) before it
      fails cleanly with a ``LeaseHeld`` record; a unit that waited
      re-checks the cache, since the holder probably computed it.
    """

    scale: float = 1.0
    seed: int = 0
    cache_dir: Path | str | None = None
    policy: ExecutionPolicy | None = None
    obs: Observability | None = None
    breaker_threshold: int | None = None
    memory_budget_mb: float | None = None
    disk_reserve_mb: float | None = None
    adaptive_deadlines: bool = False
    lease_timeout_seconds: float = 60.0
    # Left from the removed process pool because perfbench/audit.py passes
    # them: ``workers`` must be 1 and ``auto_degrade_workers`` is ignored.
    workers: int = 1
    auto_degrade_workers: bool = False

    def __post_init__(self) -> None:
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.workers != 1:
            raise ValueError(
                f"workers must be 1, got {self.workers}: the process pool "
                "was removed and every unit runs sequentially"
            )
        for name in ("memory_budget_mb", "disk_reserve_mb"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.lease_timeout_seconds < 0:
            raise ValueError(
                f"lease_timeout_seconds must be >= 0, got "
                f"{self.lease_timeout_seconds}"
            )
        if isinstance(self.scale, bool) or not isinstance(
            self.scale, (int, float)
        ):
            raise TypeError(
                f"size_factor must be a number, got {type(self.scale).__name__}"
            )
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise ValueError(f"size_factor must be > 0, got {self.scale}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise TypeError(
                f"seed must be an integer, got {type(self.seed).__name__}"
            )


def _observed(method):
    """Run *method* with the runner's own observability instance active.

    Matcher and layer spans go to the active instance, so without this
    a runner handed an instance that is not active (``RunnerConfig(obs=
    ...)``) would trace only the spans it opens itself. Nested calls
    re-activate the same instance; the previous one is restored after.
    """

    @wraps(method)
    def wrapper(self, *args, **kwargs):
        with obs_module.use(self.obs):
            return method(self, *args, **kwargs)

    return wrapper


class ExperimentRunner:
    """Cached orchestration of all experiments at one scale.

    *policy* governs every expensive unit (matcher evaluations, sweeps,
    assessments); the default performs a single attempt with no deadline,
    so behaviour matches the pre-runtime runner unless a caller opts into
    retries/timeouts. All failures the runner absorbed while degrading
    gracefully are available via :meth:`failure_records`.
    """

    def __init__(self, config: RunnerConfig) -> None:
        if not isinstance(config, RunnerConfig):
            raise TypeError(
                f"ExperimentRunner takes a RunnerConfig, got "
                f"{type(config).__name__}"
            )
        self.config = config
        self.size_factor = self.config.scale
        self.seed = self.config.seed
        cache_dir = self.config.cache_dir
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.policy = self.config.policy or ExecutionPolicy(
            max_attempts=1,
            backoff_base=0.0,
            seed=self.seed,
            retry_on=MATCHER_ERRORS,
        )
        if (
            self.config.breaker_threshold is not None
            and self.policy.breakers is None
        ):
            self.policy = replace(
                self.policy,
                breakers=BreakerRegistry(
                    failure_threshold=self.config.breaker_threshold
                ),
            )
        # Adaptive deadlines: learned per-phase (p99 x margin).
        self.deadlines: AdaptiveDeadlineModel | None = (
            AdaptiveDeadlineModel() if self.config.adaptive_deadlines else None
        )
        self.obs = (
            self.config.obs
            if self.config.obs is not None
            else obs_module.active()
        )
        if self.cache_dir is not None and self.obs.enabled:
            # Every span of this run lands in <cache_dir>/trace.jsonl,
            # tagged with a fresh run id (`python -m repro trace --last`).
            self.obs.trace.attach_file(
                self.cache_dir / obs_module.TRACE_FILE_NAME,
                run_id=obs_module.new_run_id(),
            )
        # The cache directory's lease, journal and envelopes: every write
        # goes through its commit order (DESIGN.md §7, "Durable state").
        self.state: StateDir | None = (
            StateDir(self.cache_dir, RUNNER_STATE)
            if self.cache_dir is not None
            else None
        )
        # Resource budgets: RSS + cache-volume free space; preflight
        # warns before any unit runs, and a pressured checkpoint sheds.
        self.guard: ResourceGuard | None = None
        if (
            self.config.memory_budget_mb is not None
            or self.config.disk_reserve_mb is not None
        ):
            self.guard = ResourceGuard(
                memory_budget_mb=self.config.memory_budget_mb,
                disk_reserve_mb=self.config.disk_reserve_mb,
                cache_dir=self.cache_dir,
            )
            for warning in self.guard.preflight():
                logger.warning("resource preflight: %s", warning)
        self._failures: list[FailureRecord] = []
        self._matcher_results: dict[str, dict[str, MatcherResult]] = {}
        self._new_benchmarks: dict[str, NewBenchmark] = {}
        self._assessments: dict[str, BenchmarkAssessment] = {}
        self._ann_provenance: dict[str, dict[str, object]] = {}

    @property
    def scale(self) -> float:
        """Canonical name of the legacy ``size_factor`` attribute."""
        return self.size_factor

    @property
    def journal(self) -> CheckpointJournal | None:
        """The cache directory's checkpoint journal (``None`` uncached)."""
        return self.state.journal if self.state is not None else None

    # -- failure accounting ----------------------------------------------------

    def failure_records(self) -> list[FailureRecord]:
        """Every failure absorbed so far (matchers, cache, sweeps)."""
        return list(self._failures)

    def record_failure(self, failure: FailureRecord) -> None:
        self._failures.append(failure)

    def _record_cache_failure(self, unit_id: str, error: str) -> None:
        self._failures.append(
            FailureRecord(
                unit_id=unit_id,
                phase="cache",
                attempts=1,
                exception_type="CacheCorruption",
                message=error,
                elapsed_seconds=0.0,
            )
        )

    def _record_persist_failure(
        self, unit_id: str, phase: str, error: BaseException
    ) -> None:
        """Persistence is best-effort: a failed write degrades, not crashes."""
        self.obs.inc("cache.write_failed" if phase == "cache" else "journal.failed")
        self._failures.append(
            FailureRecord(
                unit_id=unit_id,
                phase=phase,
                attempts=1,
                exception_type=type(error).__name__,
                message=f"persist failed: {error}",
                elapsed_seconds=0.0,
            )
        )

    def _record_lease_failure(self, unit_id: str, error: BaseException) -> None:
        """Another live run holds the cache; this unit yields cleanly."""
        self.obs.inc("guard.lease_blocked")
        self._failures.append(
            FailureRecord(
                unit_id=unit_id,
                phase="lease",
                attempts=1,
                exception_type="LeaseHeld",
                message=str(error),
                elapsed_seconds=0.0,
            )
        )

    def _acquire_lease(self, unit_id: str) -> float | None:
        """Take the cache lease for a write-bearing unit of work.

        Returns seconds waited (0.0 when uncontended or uncached). ``None``
        means the lease could not be taken within the timeout — a
        ``LeaseHeld`` failure was recorded and the caller must not write
        to the cache directory. A wait > 0 means another run had the
        directory meanwhile: re-check the cache before recomputing.
        """
        if self.state is None:
            return 0.0
        try:
            return self.state.acquire(self.config.lease_timeout_seconds)
        except LeaseHeld as exc:
            self._record_lease_failure(unit_id, exc)
            return None

    def _release_lease(self) -> None:
        if self.state is not None:
            self.state.release()

    def _record_journal_divergence(self, unit_id: str) -> None:
        """The journal marks a unit done but its cache entry is unusable."""
        self._failures.append(
            FailureRecord(
                unit_id=unit_id,
                phase="journal",
                attempts=1,
                exception_type="JournalDivergence",
                message=(
                    "checkpoint journal marks the unit complete but no "
                    "usable cache envelope was found; recomputing"
                ),
                elapsed_seconds=0.0,
            )
        )

    # -- datasets -------------------------------------------------------------

    @_observed
    def established_task(self, dataset_id: str) -> MatchingTask:
        """One of the 13 established benchmarks (registry-cached)."""
        faults.fire(f"dataset:{dataset_id}")
        return load_established_task(dataset_id, self.size_factor)

    @_observed
    def new_benchmark(self, source_id: str) -> NewBenchmark:
        """One of the methodology-built benchmarks D_n1..D_n8."""
        if source_id not in self._new_benchmarks:
            faults.fire(f"dataset:{source_id}")
            sources = load_source_pair(source_id, self.size_factor)
            self._new_benchmarks[source_id] = create_benchmark(
                sources,
                label=NEW_BENCHMARK_LABELS[source_id],
                seed=self.seed,
            )
        return self._new_benchmarks[source_id]

    @_observed
    def blocking_provenance(self, source_id: str) -> dict[str, object]:
        """Recall/CSSR of each blocking backend on one generated pair.

        The Table V provenance companion: ``exhaustive`` q-gram blocking
        against the tuned ``lsh`` and default ``graph`` ANN backends (see
        :func:`repro.blocking.ann.provenance_sweep`), memoized per source
        id. Returns ``{backend: BackendProvenance}``.
        """
        if source_id not in self._ann_provenance:
            from repro.blocking.ann import provenance_sweep

            faults.fire(f"blocking:{source_id}")
            sources = load_source_pair(source_id, self.size_factor)
            with self.obs.span("blocking_provenance", dataset=source_id):
                self._ann_provenance[source_id] = provenance_sweep(
                    sources, seed=self.seed
                )
        return self._ann_provenance[source_id]

    def task_for(self, dataset_id: str) -> MatchingTask:
        """Resolve an established id (DsX/DdX/DtX) or source id to a task."""
        if dataset_id in ESTABLISHED_DATASET_IDS:
            return self.established_task(dataset_id)
        if dataset_id in SOURCE_DATASET_IDS:
            return self.new_benchmark(dataset_id).task
        raise KeyError(f"unknown dataset id {dataset_id!r}")

    # -- matcher sweeps ---------------------------------------------------------

    def _cache_path(self, dataset_id: str) -> Path | None:
        if self.cache_dir is None:
            return None
        # The fingerprint covers the generation profile, so editing a
        # dataset's calibration automatically invalidates its cached sweep.
        from repro.datasets.established import ESTABLISHED_PROFILES
        from repro.datasets.sources import SOURCE_PROFILES

        profile = ESTABLISHED_PROFILES.get(dataset_id) or SOURCE_PROFILES.get(
            dataset_id
        )
        fingerprint = hashlib.blake2b(
            f"{dataset_id}:{self.size_factor}:{self.seed}:{profile!r}".encode(),
            digest_size=8,
        ).hexdigest()
        return self.cache_dir / f"suite_{dataset_id}_{fingerprint}.json"

    def _load_cached_sweep(
        self, dataset_id: str, unit_id: str
    ) -> dict[str, MatcherResult] | None:
        """Journal-and-envelope consult for one sweep unit.

        Returns the cached results on a hit (journaling the unit done).
        On a miss, records corruption (quarantined entry) or — when the
        checkpoint journal claims the unit complete with no corruption
        evidence — a journal/cache divergence, so resume never *silently*
        recomputes a unit the journal says is finished.
        """
        cache_path = self._cache_path(dataset_id)
        if cache_path is None:
            return None
        try:
            read = read_cached_payload(cache_path)
        except Exception as exc:
            # The read path heals corruption itself; anything escaping it
            # (an I/O error, an injected cache:read error fault) becomes a
            # recorded miss so the sweep recomputes instead of aborting.
            self._record_cache_failure(unit_id, f"cache read failed: {exc}")
            return None
        if read.hit:
            # The skipped sweep still appears in the trace (cache="hit")
            # so the span *set* of a resumed run matches a fresh one.
            with self.obs.span("sweep", dataset=dataset_id, cache="hit"):
                if self.journal is not None and self.journal.is_done(unit_id):
                    self.obs.inc("journal.skip")
                results = _results_from_payload(read.payload)
            self._commit(unit_id, cache_path.name)
            return results
        if read.error is not None:
            # Corruption is its own record; the quarantine explains the
            # recompute, so no divergence is stacked on top of it.
            self._record_cache_failure(unit_id, read.error)
        elif self.journal is not None and self.journal.is_done(unit_id):
            self._record_journal_divergence(unit_id)
        return None

    @_observed
    def matcher_results(self, dataset_id: str) -> dict[str, MatcherResult]:
        """The full matcher sweep on one dataset (Table IV / VI columns).

        Resolution order: in-memory memo, then the checkpoint journal and
        on-disk envelope cache (corrupt entries quarantined and
        recomputed), then a fresh sweep under the runner's policy. If the
        *whole* sweep fails — e.g. the dataset cannot be generated — the
        failure is recorded and an empty result set is returned so
        dependent tables render hyphens instead of crashing.
        """
        if dataset_id in self._matcher_results:
            return self._matcher_results[dataset_id]

        unit_id = f"sweep:{dataset_id}"
        cached = self._load_cached_sweep(dataset_id, unit_id)
        if cached is not None:
            self._matcher_results[dataset_id] = cached
            return cached

        # The cache missed, so this unit will compute and write: take the
        # run lease. A failed acquire yields an empty (clean) result with
        # a LeaseHeld record; a *contended* acquire re-checks the cache —
        # the previous holder likely just finished this very sweep.
        waited = self._acquire_lease(unit_id)
        if waited is None:
            self._matcher_results[dataset_id] = {}
            return {}
        try:
            if waited > 0:
                cached = self._load_cached_sweep(dataset_id, unit_id)
                if cached is not None:
                    self._matcher_results[dataset_id] = cached
                    return cached

            def sweep() -> dict[str, MatcherResult]:
                # Span per *attempt*: a retried sweep shows up once per
                # try, with the failed attempts marked as such.
                with self.obs.span("sweep", dataset=dataset_id) as span:
                    faults.fire(unit_id)
                    if self.guard is not None:
                        self.guard.checkpoint(unit_id)
                    results = evaluate_suite(
                        self.task_for(dataset_id),
                        seed=self.seed,
                        policy=self.policy,
                        failures=self._failures,
                        guard=self.guard,
                        deadlines=self.deadlines,
                    )
                    if any(result.degraded for result in results.values()):
                        span.mark_degraded()
                    return results

            # The sweep unit aggregates ~23 deadline-guarded matcher
            # units; a per-unit deadline must not also cap their sum, so
            # the enclosing execution drops it (retries/backoff still
            # apply) — unless the adaptive model has learned a realistic
            # whole-sweep deadline of its own.
            sweep_policy = replace(self.policy, deadline_seconds=None)
            if self.deadlines is not None:
                learned = self.deadlines.learned_deadline_for("sweep")
                if learned is not None:
                    sweep_policy = replace(
                        sweep_policy, deadline_seconds=learned
                    )
            started = time.perf_counter()
            outcome = sweep_policy.execute(
                sweep, unit_id=unit_id, phase="sweep"
            )
            if outcome.ok:
                results = outcome.value
                if self.deadlines is not None:
                    self.deadlines.observe(
                        "sweep", time.perf_counter() - started
                    )
                self._persist_sweep(dataset_id, unit_id, results)
            else:
                assert outcome.failure is not None
                self._failures.append(outcome.failure)
                results = {}
        finally:
            self._release_lease()
        self._matcher_results[dataset_id] = results
        return results

    def sweep_all(
        self, dataset_ids: tuple[str, ...] | None = None
    ) -> dict[str, dict[str, MatcherResult]]:
        """Matcher sweeps for many datasets (all established by default).

        :meth:`matcher_results` in a loop, in *dataset_ids* order: cached
        and journalled units are loaded, the rest are computed.
        """
        ids = tuple(dataset_ids) if dataset_ids is not None else ESTABLISHED_DATASET_IDS
        return {d: self.matcher_results(d) for d in ids}

    def practical(self, dataset_id: str) -> PracticalMeasures:
        """NLB and LBM for one dataset (Figure 3 / 6 bars).

        Degraded matcher results are excluded; if the sweep failed
        entirely — or left a whole family degraded — the measures come
        back as the NaN :func:`~repro.core.practical.unmeasured_practical`
        placeholder instead of a fabricated verdict, so figure/verdict
        builders can still render the remaining datasets.
        """
        return practical_from_results(self.matcher_results(dataset_id))

    def _persist_sweep(
        self, dataset_id: str, unit_id: str, results: dict[str, MatcherResult]
    ) -> None:
        """Best-effort envelope + journal commit for one completed sweep."""
        cache_path = self._cache_path(dataset_id)
        if cache_path is not None:
            payload = _results_to_payload(results)
            self._commit(
                unit_id, cache_path.name, partial(write_envelope, payload=payload)
            )

    def _commit(self, unit_id: str, envelope: str, write=None) -> None:
        """Commit one unit against its envelope (written first by ``write``).

        Persistence is best-effort: the in-memory results stand either
        way, so verdicts never depend on it. A failed step is recorded
        and the unit stays unjournaled (a lost checkpoint costs a
        recompute on resume); a lease taken over by a *live* run
        (split-brain) skips the write with a ``LeaseHeld`` record.
        """
        if self.state is None:
            return
        try:
            self.state.commit({unit_id: {}}, envelope=envelope, write=write)
        except LeaseHeld as exc:
            self._record_lease_failure(unit_id, exc)
        except CommitFailed as exc:
            self._record_persist_failure(unit_id, exc.phase, exc.error)

    # -- assessments --------------------------------------------------------------

    @_observed
    def assessment(
        self, dataset_id: str, with_practical: bool = True
    ) -> BenchmarkAssessment:
        """The four-approach verdict for one dataset.

        The a-priori measures (linearity + complexity) are computed once
        per dataset and shared between the with/without-practical views.
        """
        key = f"{dataset_id}:{with_practical}"
        if key not in self._assessments:
            base_key = f"{dataset_id}:False"
            if base_key not in self._assessments:
                assess_unit = f"assess:{dataset_id}"
                cached = self._load_assessment(dataset_id)
                if cached is None:
                    cached = self._compute_assessment(dataset_id, assess_unit)
                self._assessments[base_key] = cached
            if with_practical:
                base = self._assessments[base_key]
                self._assessments[key] = BenchmarkAssessment(
                    task_name=base.task_name,
                    linearity=base.linearity,
                    complexity=base.complexity,
                    practical=self.practical(dataset_id),
                    thresholds=base.thresholds,
                )
        return self._assessments[key]

    def _compute_assessment(
        self, dataset_id: str, assess_unit: str
    ) -> BenchmarkAssessment:
        """Compute the a-priori assessment, persisting under the run lease.

        When the lease cannot be taken the assessment is still computed
        (the caller needs a value) but nothing is persisted or
        journalled, so the holder's artefacts are never interleaved with
        ours. A contended acquire re-checks the disk cache first — the
        previous holder probably just wrote the same assessment.
        """
        waited = self._acquire_lease(assess_unit)
        held = waited is not None
        try:
            if held and waited > 0:
                cached = self._load_assessment(dataset_id)
                if cached is not None:
                    return cached
            # Journal consult: recomputing a unit the journal claims
            # complete is a divergence worth surfacing.
            if self.journal is not None and self.journal.is_done(assess_unit):
                self._record_journal_divergence(assess_unit)
            with self.obs.span("assessment", dataset=dataset_id):
                computed = assess_benchmark(
                    self.task_for(dataset_id), practical=None
                )
            if held:
                self._store_assessment(dataset_id, computed)
            return computed
        finally:
            if held:
                self._release_lease()

    def linearity(self, dataset_id: str) -> dict[str, LinearityResult]:
        """Degree of linearity (Figure 1 / 4 bars) via the assessment cache."""
        return self.assessment(dataset_id, with_practical=False).linearity

    # -- a-priori assessment disk cache ------------------------------------

    def _assessment_path(self, dataset_id: str) -> Path | None:
        cache_path = self._cache_path(dataset_id)
        if cache_path is None:
            return None
        return cache_path.with_name("apriori_" + cache_path.name[6:])

    def _store_assessment(
        self, dataset_id: str, assessment: BenchmarkAssessment
    ) -> None:
        path = self._assessment_path(dataset_id)
        if path is None:
            return
        payload = {
            "task_name": assessment.task_name,
            "linearity": {
                name: {
                    "similarity": result.similarity,
                    "max_f1": result.max_f1,
                    "best_threshold": result.best_threshold,
                }
                for name, result in assessment.linearity.items()
            },
            "complexity": assessment.complexity.scores,
        }
        self._commit(
            f"assess:{dataset_id}", path.name, partial(write_envelope, payload=payload)
        )

    def _load_assessment(self, dataset_id: str) -> BenchmarkAssessment | None:
        path = self._assessment_path(dataset_id)
        if path is None:
            return None
        try:
            read = read_cached_payload(path)
        except Exception as exc:
            self._record_cache_failure(
                f"assess:{dataset_id}", f"cache read failed: {exc}"
            )
            return None
        if read.error is not None:
            self._record_cache_failure(f"assess:{dataset_id}", read.error)
        if not read.hit:
            return None
        payload = read.payload
        assert isinstance(payload, dict)
        assessment = BenchmarkAssessment(
            task_name=payload["task_name"],
            linearity={
                name: LinearityResult(
                    similarity=entry["similarity"],
                    max_f1=entry["max_f1"],
                    best_threshold=entry["best_threshold"],
                )
                for name, entry in payload["linearity"].items()
            },
            complexity=ComplexityProfile(scores=payload["complexity"]),
        )
        self._commit(f"assess:{dataset_id}", path.name)
        return assessment


def check_cache_dir_writable(cache_dir: Path | str) -> str | None:
    """Probe a cache directory; returns an error message or ``None`` if ok."""
    target = Path(cache_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
        probe = target / f".write_probe_{os.getpid()}"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        return f"cache directory {target} is not writable: {exc}"
    return None


_default_runner: ExperimentRunner | None = None


def default_runner() -> ExperimentRunner:
    """The process-wide runner at CI scale (created on first use)."""
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner(RunnerConfig(scale=1.0, seed=0))
    return _default_runner


def _results_to_payload(results: dict[str, MatcherResult]) -> dict[str, object]:
    return {
        name: {
            "task": result.task,
            "precision": result.precision,
            "recall": result.recall,
            "f1": result.f1,
            "fit_seconds": result.fit_seconds,
            "predict_seconds": result.predict_seconds,
            "degraded": result.degraded,
        }
        for name, result in results.items()
    }


def _results_from_payload(payload: object) -> dict[str, MatcherResult]:
    if not isinstance(payload, dict):
        raise TypeError(f"suite cache payload must be a dict, got {type(payload)}")
    return {
        name: MatcherResult(
            matcher=name,
            task=entry["task"],
            precision=entry["precision"],
            recall=entry["recall"],
            f1=entry["f1"],
            fit_seconds=entry["fit_seconds"],
            predict_seconds=entry["predict_seconds"],
            degraded=bool(entry.get("degraded", False)),
        )
        for name, entry in payload.items()
    }
