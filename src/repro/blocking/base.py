"""Blocking evaluation: pair completeness (PC) and pairs quality (PQ).

Section VI measures blocking with recall — *pair completeness*, the fraction
of true matches among the candidates — and precision — *pairs quality*, the
fraction of candidates that are matches. Both follow Christen's standard
definitions.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro import obs
from repro.datasets.generator import SourcePair

_C = TypeVar("_C", bound=Callable)


def observed_candidates(method: _C) -> _C:
    """Instrument a blocker's ``candidates(self, sources)`` method.

    Runs candidate generation inside a ``blocking.candidates`` span
    (attribute ``blocker``: the class name) and records the candidate
    count and the derived pairs/sec throughput. A decorator so each
    blocker keeps its own generation logic untouched.
    """

    @functools.wraps(method)
    def wrapper(self, sources: SourcePair):  # type: ignore[no-untyped-def]
        with obs.span("blocking.candidates", blocker=type(self).__name__) as span:
            result = method(self, sources)
        obs.inc("blocking.candidates", len(result))
        if span.wall_seconds > 0:
            obs.gauge("blocking.pairs_per_sec", len(result) / span.wall_seconds)
        return result

    return wrapper  # type: ignore[return-value]


@dataclass(frozen=True)
class Candidates:
    """One typed candidate result: parallel ids and scores plus provenance.

    The single result shape shared by batch blocking and ``repro.serve``:
    ``ids[i]`` is what was retrieved — a record id for an index query
    (:meth:`~repro.blocking.ann.GraphIndex.search`), a ``(left_id,
    right_id)`` pair for a blocker sweep (:meth:`~repro.blocking.ann
    .AnnBlocker.candidate_result`) — ``scores[i]`` is its retrieval score
    (cosine similarity for the graph backend, shared-band fraction for
    LSH), and ``provenance`` names the backend configuration that
    produced it (:meth:`~repro.blocking.ann.AnnConfig.describe`).
    Results are ordered best-first with ties broken deterministically by
    the producer. Iteration yields the ids, so existing ``for pair in
    candidates`` / ``set(candidates)`` call shapes keep working.
    """

    ids: tuple
    scores: tuple[float, ...]
    provenance: str

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.scores):
            raise ValueError(
                f"{len(self.ids)} ids but {len(self.scores)} scores"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def __bool__(self) -> bool:
        return bool(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def top(self, k: int) -> "Candidates":
        """The best ``k`` results (the ordering is the producer's)."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return Candidates(
            ids=self.ids[:k],
            scores=self.scores[:k],
            provenance=self.provenance,
        )

    def to_set(self) -> set:
        """The untyped id set (the classic blocker-protocol shape)."""
        return set(self.ids)


@dataclass(frozen=True)
class BlockingResult:
    """Candidate set plus its PC/PQ against the ground truth."""

    candidates: frozenset[tuple[str, str]]
    pair_completeness: float
    pairs_quality: float
    n_matching_candidates: int

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)


def evaluate_blocking(
    candidates: Iterable[tuple[str, str]], sources: SourcePair
) -> BlockingResult:
    """Score a candidate key set against the source pair's ground truth."""
    with obs.span("blocking.evaluate"):
        candidate_set = frozenset(candidates)
        matching = len(candidate_set & sources.matches)
    obs.inc("blocking.evaluations")
    # A zero-match source is vacuously complete: there is no true match a
    # candidate set could have missed. Reporting 0.0 here made tuners
    # (tune_deepblocker/tune_ann) unable to ever meet their recall target
    # on all-negative sources, silently falling back to the first-seen
    # configuration.
    pair_completeness = (
        matching / sources.n_matches if sources.n_matches else 1.0
    )
    pairs_quality = matching / len(candidate_set) if candidate_set else 0.0
    return BlockingResult(
        candidates=candidate_set,
        pair_completeness=pair_completeness,
        pairs_quality=pairs_quality,
        n_matching_candidates=matching,
    )
