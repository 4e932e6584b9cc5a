"""The matcher API shared by every matching algorithm."""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.data.pairs import LabeledPairSet
from repro.data.task import MatchingTask
from repro.ml.metrics import precision_recall_f1


@dataclass(frozen=True)
class MatcherResult:
    """Evaluation of one matcher on one task's testing set.

    ``degraded`` marks a placeholder produced because the matcher failed
    (scores forced to zero); tables render such cells explicitly instead
    of passing the zeros off as measurements.
    """

    matcher: str
    task: str
    precision: float
    recall: float
    f1: float
    fit_seconds: float
    predict_seconds: float
    degraded: bool = False

    @property
    def f1_percent(self) -> float:
        """F1 on the 0-100 scale the paper's tables use."""
        return 100.0 * self.f1


def family_of(matcher_name: str) -> str:
    """Table section of a matcher name: ``"dl"``, ``"ml"`` or ``"linear"``."""
    if matcher_name.endswith("-ESDE"):
        return "linear"
    if matcher_name.startswith(("Magellan", "ZeroER")):
        return "ml"
    return "dl"


class Matcher(abc.ABC):
    """A supervised (or unsupervised) matching algorithm.

    Subclasses implement ``_fit`` and ``_predict``; this base class provides
    evaluation, timing, and the fitted-state guard. ``name`` identifies the
    matcher in tables (e.g. ``"DeepMatcher (15)"``). ``fit`` runs inside a
    ``matchers.{family}_fit`` span (see :func:`family_of`), ``predict``
    inside a ``matchers.predict`` span.
    """

    #: Linear matchers set this False; the NLB measure needs the split.
    non_linear: bool = True

    def __init__(self, name: str) -> None:
        self.name = name
        self._fitted = False

    def fit(self, task: MatchingTask) -> "Matcher":
        """Train on the task's training (and validation) sets."""
        with obs.span(f"matchers.{family_of(self.name)}_fit"):
            self._fit(task)
        self._fitted = True
        return self

    def predict(self, pairs: LabeledPairSet) -> np.ndarray:
        """0/1 predictions for each pair, aligned with the set's order."""
        if not self._fitted:
            raise RuntimeError(f"{self.name} is not fitted; call fit() first")
        with obs.span("matchers.predict"):
            predictions = np.asarray(self._predict(pairs), dtype=np.int64)
        if predictions.shape != (len(pairs),):
            raise RuntimeError(
                f"{self.name} returned {predictions.shape} predictions "
                f"for {len(pairs)} pairs"
            )
        return predictions

    def evaluate(self, task: MatchingTask) -> MatcherResult:
        """Fit on the task and score on its testing set."""
        start = time.perf_counter()
        self.fit(task)
        fit_seconds = time.perf_counter() - start

        start = time.perf_counter()
        predictions = self.predict(task.testing)
        predict_seconds = time.perf_counter() - start

        obs.inc("matcher.evaluations")

        precision, recall, f1 = precision_recall_f1(
            task.testing.labels, predictions
        )
        return MatcherResult(
            matcher=self.name,
            task=task.name,
            precision=precision,
            recall=recall,
            f1=f1,
            fit_seconds=fit_seconds,
            predict_seconds=predict_seconds,
        )

    @abc.abstractmethod
    def _fit(self, task: MatchingTask) -> None:
        """Subclass hook: train the model."""

    @abc.abstractmethod
    def _predict(self, pairs: LabeledPairSet) -> np.ndarray:
        """Subclass hook: label the pairs."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
