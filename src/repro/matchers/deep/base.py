"""Shared trunk of the deep matcher stand-ins.

A deep matcher is: a *representation* (how a candidate pair becomes a dense
vector, defined per subclass and where the taxonomy differences live) plus a
*classification head* (an MLP with highway layers, shared). Training runs
``epochs`` epochs of minibatch Adam and keeps the parameters of the best
validation-F1 epoch, exactly the model-selection protocol the paper enforces
on EMTransformer (Section V-B).

Instances of one network that differ only in ``epochs`` can share a
:class:`TrainingRun`: a shorter budget's fit is a prefix of a longer one's,
so one resumable head trajectory serves every budget, and since the
representation does not depend on ``epochs`` each pair set of the task is
represented once for all of them.
"""

from __future__ import annotations

import abc
import threading
from collections.abc import Iterable

import numpy as np

from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.task import MatchingTask
from repro.matchers.base import Matcher
from repro.ml.mlp import MLPClassifier, MLPTrajectory


class TrainingRun:
    """One head-training trajectory shared by the epoch budgets of a network.

    Instances that differ only in ``epochs`` train identically for their
    common epochs: same representation, same initial parameters (``seed``)
    and same per-epoch permutations (``seed + 1``). The run advances one
    :class:`MLPTrajectory` and stores the head at each budget it passes, so
    the instances can be fitted in either order and each gets exactly the
    head it would have trained alone. It also memoizes the representation
    of each pair set of its task (training, validation, testing), keyed by
    the pair set's identity; the entry holds a reference to the set, so
    its ``id`` cannot be reused while the entry lives. Whichever instance
    represents a set first computes it, the others read the same
    read-only matrix.

    A re-entrant lock guards the run: :meth:`head` holds it while the
    trajectory's start represents the training and validation sets through
    the memo. A unit abandoned at its deadline keeps training in a leaked
    thread, and its sibling waits for it rather than racing it. An
    exception while training discards the run, memo included, so the
    sibling retrains from scratch; a new task discards it too. The
    trajectory is dropped once it has passed the largest budget, and each
    stored head once it has been handed out.
    """

    def __init__(self, budgets: Iterable[int]) -> None:
        self.budgets = tuple(sorted(set(budgets)))
        self._lock = threading.RLock()
        self._task: MatchingTask | None = None
        self._trajectory: MLPTrajectory | None = None
        self._heads: dict[int, MLPClassifier] = {}
        self._representations: dict[int, tuple[LabeledPairSet, np.ndarray]] = {}

    def head(self, matcher: "DeepMatcherBase", task: MatchingTask) -> MLPClassifier:
        """The head *matcher*, prepared on *task*, trains for its budget."""
        with self._lock:
            try:
                return self._advance(matcher, task)
            except BaseException:
                self._discard()
                raise

    def representation(
        self, matcher: "DeepMatcherBase", pairs: LabeledPairSet
    ) -> np.ndarray:
        """*matcher*'s representation of *pairs*, computed once per run task.

        Only an instance prepared on the run's current task shares; any
        other gets its own, unmemoized matrix.
        """
        with self._lock:
            if self._task is None or matcher._prepared_for is not self._task:
                return matcher._represent_all(pairs)
            entry = self._representations.get(id(pairs))
            if entry is None or len(entry[1]) != len(pairs):  # grown by add()
                matrix = matcher._represent_all(pairs)
                matrix.flags.writeable = False
                entry = (pairs, matrix)
                self._representations[id(pairs)] = entry
            return entry[1]

    def _advance(self, matcher: "DeepMatcherBase", task: MatchingTask) -> MLPClassifier:
        if task is not self._task:
            self._discard()
            self._task = task
        head = self._heads.pop(matcher.epochs, None)
        if head is not None:
            return head
        if self._trajectory is None or self._trajectory.epochs_run >= matcher.epochs:
            self._trajectory = matcher._start_trajectory(task)
        trajectory = self._trajectory
        for budget in self.budgets:
            if trajectory.epochs_run < budget <= matcher.epochs:
                trajectory.run_to(budget)
                self._heads[budget] = trajectory.export(matcher._new_head(budget))
        if trajectory.epochs_run == self.budgets[-1]:
            self._trajectory = None
        return self._heads.pop(matcher.epochs)

    def _discard(self) -> None:
        self._task = None
        self._trajectory = None
        self._heads.clear()
        self._representations.clear()


class DeepMatcherBase(Matcher):
    """Representation + highway-MLP head with validation model selection.

    *training* shares one :class:`TrainingRun` between instances that differ
    only in ``epochs``; without it the instance trains alone.
    """

    def __init__(
        self,
        name: str,
        epochs: int,
        hidden_size: int = 48,
        n_highway: int = 2,
        learning_rate: float = 5e-3,
        batch_size: int = 64,
        seed: int = 0,
        training: TrainingRun | None = None,
    ) -> None:
        super().__init__(name=name)
        if epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {epochs}")
        if training is None:
            training = TrainingRun((epochs,))
        elif epochs not in training.budgets:
            raise ValueError(
                f"epochs {epochs} is not a budget of the shared training run "
                f"{training.budgets}"
            )
        self.epochs = epochs
        self.hidden_size = hidden_size
        self.n_highway = n_highway
        self.learning_rate = learning_rate
        self.batch_size = batch_size
        self.seed = seed
        self._training = training
        self._head: MLPClassifier | None = None
        #: The task :meth:`_prepare` last built this instance's caches for.
        self._prepared_for: MatchingTask | None = None

    # -- subclass hooks ------------------------------------------------------

    @abc.abstractmethod
    def _prepare(self, task: MatchingTask) -> None:
        """Build embedders/caches for *task* before representing pairs."""

    @abc.abstractmethod
    def _represent(self, pair: RecordPair) -> np.ndarray:
        """The dense feature vector of one candidate pair."""

    def _augment(
        self, features: np.ndarray, labels: np.ndarray, task: MatchingTask
    ) -> tuple[np.ndarray, np.ndarray]:
        """Optional training-set augmentation hook (DITTO overrides)."""
        return features, labels

    # -- Matcher implementation ----------------------------------------------

    def representation_matrix(self, pairs: LabeledPairSet) -> np.ndarray:
        """(n_pairs, dim) representation matrix in pair order.

        Shared through the training run with the instance's other epoch
        budgets (read-only then); see :meth:`TrainingRun.representation`.
        """
        return self._training.representation(self, pairs)

    def _represent_all(self, pairs: LabeledPairSet) -> np.ndarray:
        return np.stack([self._represent(pair) for pair, __ in pairs])

    def _new_head(self, epochs: int) -> MLPClassifier:
        return MLPClassifier(
            hidden_size=self.hidden_size,
            n_highway=self.n_highway,
            epochs=epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )

    def _start_trajectory(self, task: MatchingTask) -> MLPTrajectory:
        """A fresh head trajectory on this (prepared) instance's representation."""
        training = self.representation_matrix(task.training)
        validation = self.representation_matrix(task.validation)
        features, labels = self._augment(
            training, task.training.labels, task
        )
        return MLPTrajectory(
            self._new_head(self.epochs),
            features,
            labels,
            validation_features=validation,
            validation_labels=task.validation.labels,
        )

    def _fit(self, task: MatchingTask) -> None:
        self._prepared_for = None
        self._prepare(task)
        self._prepared_for = task
        self._head = self._training.head(self, task)

    def _predict(self, pairs: LabeledPairSet) -> np.ndarray:
        assert self._head is not None
        return self._head.predict(self.representation_matrix(pairs))

    def decision_scores(self, pairs: LabeledPairSet) -> np.ndarray:
        """Match probabilities (used by GNEM's global propagation)."""
        if self._head is None:
            raise RuntimeError(f"{self.name} is not fitted; call fit() first")
        return self._head.predict_proba(self.representation_matrix(pairs))
