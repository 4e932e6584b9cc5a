"""The runner holds one dataset's derived state at a time.

A task's feature store, lexical evidence and language model (owned by
:mod:`repro.data.derived`) are released when the runner's outermost call
on that dataset returns; nothing else pins them, later datasets see no
trace of earlier ones, and a live serving session keeps its own store.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.datasets.registry import load_established_task
from repro.embeddings.provider import language_model_for_task
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.matchers.deep.lexical import lexical_evidence_for_task
from repro.serve.session import MatcherSession
from repro.text.feature_store import store_for_task

SCALE = 0.3


def make_runner() -> ExperimentRunner:
    return ExperimentRunner(RunnerConfig(scale=SCALE, seed=0))


def derived_refs(task) -> list[weakref.ref]:
    """Weak references to the task's store, evidence and language model."""
    return [
        weakref.ref(store_for_task(task)),
        weakref.ref(lexical_evidence_for_task(task)),
        weakref.ref(language_model_for_task(task)),
    ]


def summary(runner: ExperimentRunner, dataset_id: str) -> dict:
    assessment = runner.assessment(dataset_id, with_practical=True)
    return {
        "complexity": assessment.complexity.scores,
        "linearity": assessment.linearity,
        "matchers": {
            name: (result.precision, result.recall, result.f1, result.degraded)
            for name, result in runner.matcher_results(dataset_id).items()
        },
    }


@pytest.fixture(scope="module")
def two_datasets():
    """One runner assesses Ds5 then Ds7, holding weakrefs to Ds5's state."""
    runner = make_runner()
    task = runner.task_for("Ds5")
    refs = derived_refs(task)  # the runner reuses these very objects
    summary(runner, "Ds5")
    gc.collect()
    alive_after_first = [ref() is not None for ref in refs]
    return alive_after_first, summary(runner, "Ds7")


class TestDerivedStateLifetime:
    def test_state_is_released_when_the_assessment_returns(self, two_datasets):
        alive_after_first, __ = two_datasets
        assert alive_after_first == [False, False, False]

    def test_a_lookup_after_release_builds_afresh(self):
        task = load_established_task("Ds7", SCALE)
        runner = make_runner()
        runner.linearity("Ds7")
        store = store_for_task(task)
        runner.linearity("Ds7")  # memo hit: still releases the entry
        assert store_for_task(task) is not store

    def test_second_dataset_equals_a_fresh_runners(self, two_datasets):
        __, second = two_datasets
        assert summary(make_runner(), "Ds7") == second

    def test_release_waits_for_the_outermost_call(self, monkeypatch):
        """The a-priori measures and the sweep share one store."""
        import repro.core.linearity as linearity_module
        import repro.experiments.matcher_suite as suite_module

        stores = []

        def recording(task):
            stores.append(store_for_task(task))
            return stores[-1]

        monkeypatch.setattr(linearity_module, "store_for_task", recording)
        monkeypatch.setattr(suite_module, "store_for_task", recording)
        make_runner().assessment("Ds7", with_practical=True)
        assert len(stores) >= 2
        assert all(store is stores[0] for store in stores)

    def test_a_live_sessions_store_is_kept(self):
        task = load_established_task("Ds5", SCALE)
        session = MatcherSession(task)
        store = session._store
        probes = task.left.records()[:5]
        before = [result.to_dict() for result in session.query_batch(probes)]
        make_runner().assessment("Ds5", with_practical=True)
        gc.collect()
        assert session._store is store
        assert [result.to_dict() for result in session.query_batch(probes)] == before

