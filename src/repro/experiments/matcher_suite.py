"""The full matcher roster of Tables IV and VI.

Per dataset the suite evaluates:

* the five DL-based matchers, each at its default epoch budget and at 40
  epochs (the paper's two settings; GNEM and HierMatcher default to 10),
  with EMTransformer in both checkpoint variants. The two budgets of one
  network share a :class:`~repro.matchers.deep.TrainingRun`: the shorter
  fit is a prefix of the longer one, so the network's representation is
  computed and its head trained once, whichever budget runs first, and
  the 40-epoch unit's fit time covers only its extra epochs;
* the non-neural, non-linear matchers: Magellan with DT/LR/RF/SVM heads
  (sharing one feature extractor) and ZeroER;
* the six linear ESDE variants.

``family_of`` (defined in :mod:`repro.matchers`, importable from here)
classifies a matcher name into ``"dl"`` / ``"ml"`` / ``"linear"`` — the
three table sections — and drives the NLB split (non-linear = dl + ml).
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from functools import partial

from numpy.linalg import LinAlgError

from repro.core.practical import (
    PracticalMeasures,
    practical_measures,
    unmeasured_practical,
)
from repro.data.task import MatchingTask
from repro.matchers.base import Matcher, MatcherResult, family_of
from repro.matchers.deep import (
    DeepMatcherNet,
    DittoNet,
    EMTransformerNet,
    GnemNet,
    HierMatcherNet,
    TrainingRun,
)
from repro.matchers.esde import EsdeMatcher
from repro.matchers.features import MagellanFeatureExtractor
from repro.matchers.magellan import MAGELLAN_HEADS, MagellanMatcher
from repro.matchers.zeroer import ZeroERMatcher
from repro import obs
from repro.runtime import BreakerRegistry, ExecutionPolicy, FailureRecord
from repro.runtime import faults
from repro.runtime.guard import AdaptiveDeadlineModel, ResourceGuard
from repro.runtime.registry import record_failure
from repro.text.feature_store import store_for_task

#: Default epoch budget per DL method (the "(n)" of the paper's tables).
DEFAULT_EPOCHS: dict[str, int] = {
    "DeepMatcher": 15,
    "DITTO": 15,
    "EMTransformer": 15,
    "GNEM": 10,
    "HierMatcher": 10,
}

#: The paper's second epoch setting for every DL method.
LONG_EPOCHS = 40


def build_suite(task: MatchingTask, seed: int = 0) -> list[Matcher]:
    """Fresh matcher instances for one task, in table order."""
    return _roster(task, seed, share_training=True)


def _roster(task: MatchingTask, seed: int, share_training: bool) -> list[Matcher]:
    networks = (
        (partial(DeepMatcherNet, seed=seed), DEFAULT_EPOCHS["DeepMatcher"]),
        (partial(DittoNet, seed=seed), DEFAULT_EPOCHS["DITTO"]),
        (partial(EMTransformerNet, "B", seed=seed), DEFAULT_EPOCHS["EMTransformer"]),
        (partial(EMTransformerNet, "R", seed=seed), DEFAULT_EPOCHS["EMTransformer"]),
        (partial(GnemNet, seed=seed), DEFAULT_EPOCHS["GNEM"]),
        (partial(HierMatcherNet, seed=seed), DEFAULT_EPOCHS["HierMatcher"]),
    )
    suite: list[Matcher] = []
    for network, default_epochs in networks:
        budgets = (default_epochs, LONG_EPOCHS)
        training = TrainingRun(budgets) if share_training else None
        suite.extend(network(epochs=epochs, training=training) for epochs in budgets)

    shared_extractor = MagellanFeatureExtractor(
        task.attributes, store=store_for_task(task)
    )
    for head in MAGELLAN_HEADS:
        suite.append(MagellanMatcher(head=head, extractor=shared_extractor, seed=seed))
    suite.append(ZeroERMatcher(extractor=shared_extractor, seed=seed))

    for variant in ("SA", "SAQ", "SAS", "SB", "SBQ", "SBS"):
        suite.append(EsdeMatcher(variant))
    return suite


#: Exceptions a matcher may legitimately raise on a degenerate task (e.g.
#: a single-class training split); the policy retries/records these.
MATCHER_ERRORS: tuple[type[BaseException], ...] = (
    ValueError,
    RuntimeError,
    LinAlgError,
)


def degraded_result(matcher_name: str, task_name: str) -> MatcherResult:
    """The zero-scored placeholder recorded for a failed matcher."""
    return MatcherResult(
        matcher=matcher_name,
        task=task_name,
        precision=0.0,
        recall=0.0,
        f1=0.0,
        fit_seconds=0.0,
        predict_seconds=0.0,
        degraded=True,
    )


def build_matcher(task: MatchingTask, matcher_spec: str, seed: int = 0) -> Matcher:
    """One fresh matcher of the roster by table name (e.g. ``"DITTO (15)"``).

    A deep matcher built this way trains alone: it shares no training run
    with its other epoch budget.
    """
    for matcher in _roster(task, seed, share_training=False):
        if matcher.name == matcher_spec:
            return matcher
    raise KeyError(f"unknown matcher spec {matcher_spec!r}")


def _evaluate_matcher(
    matcher: Matcher,
    task: MatchingTask,
    guard: ResourceGuard | None,
    unit_id: str,
) -> MatcherResult:
    """One policy-wrapped unit: budget checkpoint, fault site, evaluation.

    Every matcher evaluation opens exactly one ``matcher`` trace span.
    """
    if guard is not None:
        guard.checkpoint(unit_id)
    with obs.span("matcher", matcher=matcher.name, dataset=task.name):
        faults.fire(f"matcher:{matcher.name}")
        return matcher.evaluate(task)


def evaluate_suite(
    task: MatchingTask,
    seed: int = 0,
    policy: ExecutionPolicy | None = None,
    failures: list[FailureRecord] | None = None,
    breakers: BreakerRegistry | None = None,
    guard: "ResourceGuard | None" = None,
    deadlines: "AdaptiveDeadlineModel | None" = None,
) -> dict[str, MatcherResult]:
    """Evaluate the whole roster on one task (name -> result).

    Each matcher runs under *policy* (retries / backoff / deadline;
    defaults to a single attempt). A matcher that still fails — a
    degenerate single-class training split, an injected fault, a tripped
    deadline — is recorded as a :func:`degraded_result` rather than
    aborting the sweep: the analogue of the paper's "insufficient memory"
    hyphens, but with the cause preserved as a :class:`FailureRecord`
    appended to *failures* (or, when no caller list is given, to the
    process-wide registry behind
    :func:`repro.runtime.registry.recorded_failures`).

    *breakers* (or a registry already on *policy*) arms per-unit circuit
    breakers: a ``(dataset, matcher)`` unit that has failed K consecutive
    times short-circuits to its degraded placeholder with a
    ``CircuitOpen`` failure record instead of burning retries.

    *guard* (a :class:`repro.runtime.guard.ResourceGuard`) runs a budget
    checkpoint before each matcher: a shed unit becomes a
    ``BudgetExceeded`` failure record, not a crash. *deadlines* (an
    :class:`~repro.runtime.guard.AdaptiveDeadlineModel`) replaces the
    policy's fixed ``deadline_seconds`` for the ``matcher`` phase once it
    has learned enough samples, and is fed each healthy duration.
    """
    if policy is None:
        policy = ExecutionPolicy(
            max_attempts=1, backoff_base=0.0, retry_on=MATCHER_ERRORS
        )
    if breakers is not None and policy.breakers is None:
        policy = dataclass_replace(policy, breakers=breakers)
    if deadlines is not None:
        adaptive = deadlines.learned_deadline_for("matcher")
        if adaptive is not None:
            policy = dataclass_replace(policy, deadline_seconds=adaptive)

    results: dict[str, MatcherResult] = {}
    for matcher in build_suite(task, seed=seed):
        unit_id = f"{task.name}/{matcher.name}"
        outcome = policy.execute(
            partial(_evaluate_matcher, matcher, task, guard, unit_id),
            unit_id=unit_id,
            phase="matcher",
        )
        if outcome.ok and deadlines is not None:
            deadlines.observe(
                "matcher", outcome.value.fit_seconds
                + outcome.value.predict_seconds,
            )
        if outcome.ok:
            results[matcher.name] = outcome.value
        else:
            results[matcher.name] = degraded_result(matcher.name, task.name)
            assert outcome.failure is not None
            if failures is not None:
                failures.append(outcome.failure)
            else:
                # Fallback: the process-wide registry in
                # :mod:`repro.runtime.registry`, which also owns its
                # lifecycle (``clear_recorded_failures``).
                record_failure(outcome.failure)
    return results


def linear_f1_scores(results: dict[str, MatcherResult]) -> dict[str, float]:
    """F1 of the linear matchers only (degraded placeholders excluded)."""
    return {
        name: result.f1
        for name, result in results.items()
        if family_of(name) == "linear" and not result.degraded
    }


def non_linear_f1_scores(results: dict[str, MatcherResult]) -> dict[str, float]:
    """F1 of the non-linear (ML + DL) matchers, degraded ones excluded."""
    return {
        name: result.f1
        for name, result in results.items()
        if family_of(name) != "linear" and not result.degraded
    }


def practical_from_results(
    results: dict[str, MatcherResult],
) -> PracticalMeasures:
    """NLB and LBM for one sweep, robust to degraded results.

    Degraded placeholders are failures, not measurements: their forced
    0.0 must neither win nor lose a family, so they are excluded. If an
    entire family is degraded (or the sweep produced nothing at all) the
    measures come back as NaN — :func:`unmeasured_practical` — which the
    assessment layer treats as *unknown*, never as evidence of easiness.
    """
    linear = linear_f1_scores(results)
    non_linear = non_linear_f1_scores(results)
    if not linear or not non_linear:
        return unmeasured_practical()
    return practical_measures(non_linear, linear)
