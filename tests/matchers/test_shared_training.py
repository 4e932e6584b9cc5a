"""A deep network's two epoch budgets share one training run.

``build_suite`` gives the default-epoch and 40-epoch instances of each
network one :class:`TrainingRun`, which also represents each pair set of
the task once for both. Sharing is only an optimisation: each instance
must end up with exactly the head, predictions and validation history it
would have trained alone, whichever budget runs first, and whatever
happens to its sibling (abandoned at a deadline, or raising).
"""

from __future__ import annotations

import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.experiments.matcher_suite import (
    DEFAULT_EPOCHS,
    LONG_EPOCHS,
    build_matcher,
    build_suite,
)
from repro.matchers.deep import DeepMatcherBase, DeepMatcherNet, TrainingRun
from repro.ml import mlp
from repro.ml.metrics import f1_score
from repro.runtime import ExecutionPolicy

#: Name prefix and default budget of each network of the roster.
NETWORKS = {
    "DeepMatcher": DEFAULT_EPOCHS["DeepMatcher"],
    "DITTO": DEFAULT_EPOCHS["DITTO"],
    "EMTransformer-B": DEFAULT_EPOCHS["EMTransformer"],
    "EMTransformer-R": DEFAULT_EPOCHS["EMTransformer"],
    "GNEM": DEFAULT_EPOCHS["GNEM"],
    "HierMatcher": DEFAULT_EPOCHS["HierMatcher"],
}


def twins(task, network: str):
    """The (default-budget, 40-epoch) instances ``build_suite`` builds."""
    by_name = {matcher.name: matcher for matcher in build_suite(task)}
    return (
        by_name[f"{network} ({NETWORKS[network]})"],
        by_name[f"{network} ({LONG_EPOCHS})"],
    )


def outcome(matcher, task) -> dict:
    """Everything a fit determines: scores, predictions, head, history."""
    result = matcher.evaluate(task)
    return {
        "scores": (result.precision, result.recall, result.f1),
        "predictions": matcher.predict(task.testing).tolist(),
        "params": matcher._head._params,
        "history": list(matcher._head.validation_f1_history_),
    }


def alone(task, name: str) -> dict:
    return outcome(build_matcher(task, name), task)


def count_representations(monkeypatch) -> list:
    """Record the pair set of every representation pass from now on."""
    represented = []
    original = DeepMatcherBase._represent_all

    def counting(self, pairs):
        represented.append(pairs)
        return original(self, pairs)

    monkeypatch.setattr(DeepMatcherBase, "_represent_all", counting)
    return represented


def assert_identical(got: dict, expected: dict) -> None:
    assert got["scores"] == expected["scores"]
    assert got["predictions"] == expected["predictions"]
    assert got["history"] == expected["history"]
    assert len(got["params"]) == len(expected["params"])
    for mine, theirs in zip(got["params"], expected["params"]):
        assert np.array_equal(mine, theirs)


class TestTwinParity:
    @pytest.mark.parametrize("network", list(NETWORKS))
    @pytest.mark.parametrize(
        "long_first", [False, True], ids=["short-first", "long-first"]
    )
    def test_twins_match_unshared_fits(self, network, long_first, handmade_task):
        short, long = twins(handmade_task, network)
        assert short._training is long._training
        order = (long, short) if long_first else (short, long)
        got = {matcher.epochs: outcome(matcher, handmade_task) for matcher in order}

        for matcher in (short, long):
            expected = alone(handmade_task, matcher.name)
            assert_identical(got[matcher.epochs], expected)
            assert len(got[matcher.epochs]["history"]) == matcher.epochs
        short_history = got[short.epochs]["history"]
        assert got[long.epochs]["history"][: len(short_history)] == short_history

    def test_run_is_released_once_both_budgets_are_served(self, handmade_task):
        short, long = twins(handmade_task, "DeepMatcher")
        run = short._training
        long.fit(handmade_task)
        assert run._trajectory is None  # passed the largest budget
        assert set(run._heads) == {short.epochs}
        short.fit(handmade_task)
        assert run._trajectory is None and not run._heads

    def test_new_task_restarts_the_run(self, handmade_task, small_task):
        short, long = twins(handmade_task, "DeepMatcher")
        short.fit(handmade_task)
        assert_identical(
            outcome(long, small_task), alone(small_task, long.name)
        )

    def test_build_matcher_trains_alone(self, handmade_task):
        matcher = build_matcher(handmade_task, f"DITTO ({LONG_EPOCHS})")
        assert matcher._training.budgets == (LONG_EPOCHS,)

    def test_budget_must_belong_to_the_run(self):
        with pytest.raises(ValueError):
            DeepMatcherNet(epochs=20, training=TrainingRun((15, 40)))


class TestSharedRepresentation:
    @pytest.mark.parametrize("network", list(NETWORKS))
    def test_twins_represent_each_pair_set_once(
        self, network, handmade_task, monkeypatch
    ):
        short, long = twins(handmade_task, network)
        represented = count_representations(monkeypatch)
        for matcher in (short, long):
            matcher.evaluate(handmade_task)
        assert [id(pairs) for pairs in represented] == [
            id(handmade_task.training),
            id(handmade_task.validation),
            id(handmade_task.testing),
        ]
        testing = short.representation_matrix(handmade_task.testing)
        assert long.representation_matrix(handmade_task.testing) is testing
        assert not testing.flags.writeable
        assert len(represented) == 3

    def test_new_task_drops_the_memo(self, handmade_task, small_task, monkeypatch):
        short, long = twins(handmade_task, "DeepMatcher")
        short.fit(handmade_task)
        run = short._training
        assert {id(pairs) for pairs, __ in run._representations.values()} == {
            id(handmade_task.training),
            id(handmade_task.validation),
        }
        long.fit(small_task)
        assert all(
            pairs in (small_task.training, small_task.validation)
            for pairs, __ in run._representations.values()
        )
        # short was prepared on the old task: it represents alone, unmemoized.
        represented = count_representations(monkeypatch)
        first = short.representation_matrix(handmade_task.testing)
        second = short.representation_matrix(handmade_task.testing)
        assert first is not second and np.array_equal(first, second)
        assert len(represented) == 2
        assert id(handmade_task.testing) not in run._representations

    def test_unprepared_instance_does_not_share(self, handmade_task):
        short, long = twins(handmade_task, "DeepMatcher")
        long.fit(handmade_task)
        short._prepare(handmade_task)  # prepared outside fit: no run task
        matrix = short.representation_matrix(handmade_task.testing)
        assert matrix.flags.writeable
        assert not long._training._representations.get(id(handmade_task.testing))

    def test_grown_pair_set_is_represented_again(self, handmade_task):
        matcher = build_matcher(handmade_task, "DeepMatcher (15)").fit(handmade_task)
        pairs = handmade_task.testing.subset(range(4))
        assert len(matcher.representation_matrix(pairs)) == 4
        extra, label = next(iter(handmade_task.testing.subset([5])))
        pairs.add(extra, label)
        assert len(matcher.representation_matrix(pairs)) == 5


class TestSiblingFailures:
    def test_short_unit_abandoned_at_deadline(self, handmade_task):
        short, long = twins(handmade_task, "EMTransformer-B")
        policy = ExecutionPolicy(max_attempts=1, deadline_seconds=1e-4)
        abandoned = policy.execute(
            partial(short.evaluate, handmade_task),
            unit_id="handmade/short",
            phase="matcher",
        )
        assert abandoned.failure is not None
        assert abandoned.failure.exception_type == "DeadlineExceeded"
        assert not short._fitted  # its leaked thread is still training

        assert_identical(
            outcome(long, handmade_task), alone(handmade_task, long.name)
        )
        # The leaked thread finishes with the head it would have had alone.
        deadline = time.monotonic() + 60.0
        while not short._fitted and time.monotonic() < deadline:
            time.sleep(0.01)
        assert short._fitted
        expected = build_matcher(handmade_task, short.name).fit(handmade_task)
        for mine, theirs in zip(short._head._params, expected._head._params):
            assert np.array_equal(mine, theirs)
        assert short.representation_matrix(
            handmade_task.testing
        ) is long.representation_matrix(handmade_task.testing)

    @pytest.mark.parametrize(
        "long_first", [False, True], ids=["short-fails", "long-fails"]
    )
    def test_unit_raising_mid_fit(self, long_first, handmade_task, monkeypatch):
        short, long = twins(handmade_task, "DITTO")
        failing, survivor = (long, short) if long_first else (short, long)

        def fail_first_validation(*args):
            # The first epoch's optimiser steps have run but the epoch is
            # not counted: a run kept after this is corrupt.
            raise RuntimeError("injected mid-fit failure")

        monkeypatch.setattr(mlp, "f1_score", fail_first_validation)
        with pytest.raises(RuntimeError, match="injected"):
            failing.evaluate(handmade_task)
        monkeypatch.setattr(mlp, "f1_score", f1_score)
        run = failing._training
        assert run._task is None and not run._representations

        assert_identical(
            outcome(survivor, handmade_task), alone(handmade_task, survivor.name)
        )
        assert_identical(
            outcome(failing, handmade_task), alone(handmade_task, failing.name)
        )


class TestConcurrentFits:
    def test_threads_fitting_one_run_each_get_their_unshared_head(
        self, handmade_task, monkeypatch
    ):
        budgets = (3, 6, 9, 12)
        run = TrainingRun(budgets)
        matchers = [
            DeepMatcherNet(epochs=epochs, training=run)
            for epochs in budgets
            for __ in range(2)  # two instances per budget: one finds its head taken
        ]
        errors = []
        predictions = {}
        represented = count_representations(monkeypatch)

        def fit(matcher):
            try:
                matcher.fit(handmade_task)
                predictions[id(matcher)] = matcher.predict(handmade_task.testing)
            except BaseException as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=fit, args=(m,)) for m in matchers]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # Training, validation and testing: each represented once for all.
        assert len(represented) == 3
        for matcher in matchers:
            expected = DeepMatcherNet(epochs=matcher.epochs).fit(handmade_task)
            assert np.array_equal(
                predictions[id(matcher)], expected.predict(handmade_task.testing)
            )
            assert (
                matcher._head.validation_f1_history_
                == expected._head.validation_f1_history_
            )
            for mine, theirs in zip(matcher._head._params, expected._head._params):
                assert np.array_equal(mine, theirs)
