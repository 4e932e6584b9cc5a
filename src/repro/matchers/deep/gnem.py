"""GNEM stand-in: the global method (Table II row 3).

Chen et al. consider *all* candidate pairs produced by blocking together:
pairs that share a record are related, and an interaction (gated graph
convolution) layer lets each pair's match likelihood be influenced by its
neighbours — e.g. in a one-to-one linkage, a record strongly matched to one
candidate argues against its other candidates.

This implementation trains the local head on dynamic (BERT-like) sequence
encodings — the configuration the paper selects — then applies one gated
propagation step over the candidate-pair graph of the full task at
prediction time: the propagated score mixes a pair's own probability with
the (inverted) evidence of competing pairs that share one of its records.
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.task import MatchingTask
from repro.embeddings.contextual import ContextualEmbedder
from repro.embeddings.distances import cosine_vector_similarity
from repro.embeddings.provider import contextual_embedder_for_task
from repro.matchers.deep.base import DeepMatcherBase, TrainingRun
from repro.matchers.deep.lexical import (
    LexicalEvidence,
    lexical_evidence_for_task,
)


class GnemNet(DeepMatcherBase):
    """Local dynamic encoder + one global propagation step over pairs."""

    def __init__(
        self,
        epochs: int = 10,
        propagation: float = 0.25,
        seed: int = 0,
        training: TrainingRun | None = None,
    ) -> None:
        super().__init__(
            name=f"GNEM ({epochs})",
            epochs=epochs,
            seed=seed + 23,
            training=training,
        )
        if not 0.0 <= propagation < 1.0:
            raise ValueError(f"propagation must be in [0, 1), got {propagation}")
        self.propagation = propagation
        self._embedder: ContextualEmbedder | None = None
        self._record_cache: dict[str, np.ndarray] = {}
        self._lexical: LexicalEvidence | None = None

    def _prepare(self, task: MatchingTask) -> None:
        self._embedder = contextual_embedder_for_task(task, variant="B")
        self._record_cache = {}
        self._lexical = lexical_evidence_for_task(task)

    def _record_vector(self, record) -> np.ndarray:
        assert self._embedder is not None
        cached = self._record_cache.get(record.record_id)
        if cached is None:
            cached = self._embedder.embed_record(record)
            self._record_cache[record.record_id] = cached
        return cached

    def _represent(self, pair: RecordPair) -> np.ndarray:
        assert self._lexical is not None
        left = self._record_vector(pair.left)
        right = self._record_vector(pair.right)
        return np.concatenate(
            (
                left * right,
                np.abs(left - right),
                [cosine_vector_similarity(left, right)],
                self._lexical.features(pair),
            )
        )

    def _predict(self, pairs: LabeledPairSet) -> np.ndarray:
        return (self._propagated_scores(pairs) >= 0.5).astype(np.int64)

    def _propagated_scores(self, pairs: LabeledPairSet) -> np.ndarray:
        """One gated graph-convolution step over the candidate-pair graph.

        Competing pairs (same left or same right record) push each other
        down: a pair's propagated score is its own probability minus the
        strongest competing probability, gated by ``propagation``. Isolated
        pairs keep their local score.
        """
        assert self._head is not None
        scores = self._head.predict_proba(self.representation_matrix(pairs))

        by_left: dict[str, list[int]] = {}
        by_right: dict[str, list[int]] = {}
        for index, (pair, __) in enumerate(pairs):
            by_left.setdefault(pair.left.record_id, []).append(index)
            by_right.setdefault(pair.right.record_id, []).append(index)

        propagated = scores.copy()
        for groups in (by_left.values(), by_right.values()):
            for members in groups:
                if len(members) < 2:
                    continue
                member_scores = scores[list(members)]
                for position, index in enumerate(members):
                    others = np.delete(member_scores, position)
                    competition = float(others.max())
                    propagated[index] = (
                        (1.0 - self.propagation) * propagated[index]
                        + self.propagation * (scores[index] - competition)
                    )
        return np.clip(propagated, 0.0, 1.0)
