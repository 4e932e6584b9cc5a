"""DITTO stand-in: dynamic + heterogeneous + local, plus its three tricks.

Li et al. extend the plain transformer application with (1) domain
knowledge injection, (2) TF-IDF summarization of sequences that exceed the
512-token window, and (3) data augmentation. Here:

* summarization — records longer than ``max_tokens`` are reduced to their
  highest-TF-IDF tokens before encoding (the same mechanism, scaled to the
  synthetic records);
* augmentation — each positive training pair spawns ``augment_copies``
  perturbed representation copies (feature dropout), the span-corruption
  style augmentation acting directly in representation space;
* knowledge injection — numeric literals are tagged by appending an
  exact-number-match feature, standing in for the NER/regex typing of ids.

Like the paper's configuration, the checkpoint is RoBerta-like ("R").
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import RecordPair
from repro.data.records import Record
from repro.data.task import MatchingTask
from repro.embeddings.contextual import ContextualEmbedder
from repro.embeddings.distances import cosine_vector_similarity
from repro.embeddings.provider import contextual_embedder_for_task
from repro.matchers.deep.base import DeepMatcherBase, TrainingRun
from repro.matchers.deep.lexical import (
    LexicalEvidence,
    lexical_evidence_for_task,
)
from repro.text.tokenize import tokenize

_NUMBER_CHARS = set("0123456789")


def _numeric_tokens(record: Record) -> set[str]:
    return {
        token
        for token in tokenize(record.full_text())
        if any(char in _NUMBER_CHARS for char in token)
    }


class DittoNet(DeepMatcherBase):
    """EMTransformer-R plus summarization, augmentation and number typing."""

    def __init__(
        self,
        epochs: int = 15,
        max_tokens: int = 48,
        augment_copies: int = 2,
        seed: int = 0,
        training: TrainingRun | None = None,
    ) -> None:
        super().__init__(
            name=f"DITTO ({epochs})",
            epochs=epochs,
            seed=seed + 11,
            training=training,
        )
        if max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
        if augment_copies < 0:
            raise ValueError(f"augment_copies must be >= 0, got {augment_copies}")
        self.max_tokens = max_tokens
        self.augment_copies = augment_copies
        self._embedder: ContextualEmbedder | None = None
        self._record_cache: dict[str, np.ndarray] = {}
        self._numeric_cache: dict[str, set[str]] = {}
        self._lexical: LexicalEvidence | None = None

    def _prepare(self, task: MatchingTask) -> None:
        self._embedder = contextual_embedder_for_task(task, variant="R")
        self._lexical = lexical_evidence_for_task(task)
        self._record_cache = {}
        self._numeric_cache = {}

    def _record_vector(self, record: Record) -> np.ndarray:
        assert self._embedder is not None and self._lexical is not None
        cached = self._record_cache.get(record.record_id)
        if cached is None:
            tokens = tokenize(record.full_text())
            summarized = self._lexical.vectorizer.summarize(
                tokens, self.max_tokens
            )
            cached = self._embedder.embed_sequence(summarized)
            self._record_cache[record.record_id] = cached
        return cached

    def _numbers(self, record: Record) -> set[str]:
        cached = self._numeric_cache.get(record.record_id)
        if cached is None:
            cached = _numeric_tokens(record)
            self._numeric_cache[record.record_id] = cached
        return cached

    def _represent(self, pair: RecordPair) -> np.ndarray:
        assert self._lexical is not None
        left = self._record_vector(pair.left)
        right = self._record_vector(pair.right)
        left_numbers = self._numbers(pair.left)
        right_numbers = self._numbers(pair.right)
        union = len(left_numbers | right_numbers)
        number_overlap = (
            len(left_numbers & right_numbers) / union if union else 0.5
        )
        return np.concatenate(
            (
                left * right,
                np.abs(left - right),
                [cosine_vector_similarity(left, right), number_overlap],
                self._lexical.features(pair),
            )
        )

    def _augment(
        self, features: np.ndarray, labels: np.ndarray, task: MatchingTask
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature-dropout copies of the positive training pairs."""
        if self.augment_copies == 0:
            return features, labels
        rng = np.random.default_rng(self.seed + 101)
        positive_rows = features[labels == 1]
        if positive_rows.shape[0] == 0:
            return features, labels
        augmented = [features]
        augmented_labels = [labels]
        for __ in range(self.augment_copies):
            mask = rng.random(positive_rows.shape) >= 0.1
            augmented.append(positive_rows * mask)
            augmented_labels.append(np.ones(positive_rows.shape[0], dtype=np.int64))
        return np.vstack(augmented), np.concatenate(augmented_labels)
