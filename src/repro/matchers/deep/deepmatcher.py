"""DeepMatcher stand-in: static + homogeneous + local (Table II row 1).

Mirrors the three-module design of Mudgal et al.: (1) attribute embedding —
static (fastText-equivalent) vectors; (2) attribute similarity — a per-
attribute similarity vector between the two records' attribute encodings
(homogeneous: attributes are compared positionally, so the schemata must be
aligned); (3) classification — the highway MLP head of the base class.
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import RecordPair
from repro.data.task import MatchingTask
from repro.embeddings.distances import (
    cosine_vector_similarity,
    euclidean_similarity,
)
from repro.embeddings.provider import static_embedder_for_task
from repro.embeddings.static import StaticEmbedder
from repro.matchers.deep.base import DeepMatcherBase, TrainingRun
from repro.text.similarity import jaccard_similarity


class DeepMatcherNet(DeepMatcherBase):
    """Per-attribute static-embedding similarity vectors + highway head."""

    def __init__(
        self, epochs: int = 15, seed: int = 0, training: TrainingRun | None = None
    ) -> None:
        super().__init__(
            name=f"DeepMatcher ({epochs})",
            epochs=epochs,
            seed=seed,
            training=training,
        )
        self._embedder: StaticEmbedder | None = None
        self._attributes: tuple[str, ...] = ()
        self._attribute_cache: dict[str, np.ndarray] = {}

    def _prepare(self, task: MatchingTask) -> None:
        self._embedder = static_embedder_for_task(task)
        self._attributes = task.attributes
        self._attribute_cache = {}

    def _attribute_vector(self, record, attribute: str) -> np.ndarray:
        assert self._embedder is not None
        key = f"{record.record_id}\x00{attribute}"
        cached = self._attribute_cache.get(key)
        if cached is None:
            cached = self._embedder.embed_attribute(record, attribute)
            self._attribute_cache[key] = cached
        return cached

    def _represent(self, pair: RecordPair) -> np.ndarray:
        """Per attribute: embedding cosine + Euclidean similarity, token
        Jaccard, and an exact-value indicator — the summarized similarity
        vector of the original's attribute-similarity module."""
        values: list[float] = []
        for attribute in self._attributes:
            left_vec = self._attribute_vector(pair.left, attribute)
            right_vec = self._attribute_vector(pair.right, attribute)
            left_value = pair.left.value(attribute)
            right_value = pair.right.value(attribute)
            values.append(cosine_vector_similarity(left_vec, right_vec))
            values.append(euclidean_similarity(left_vec, right_vec))
            values.append(
                jaccard_similarity(
                    pair.left.attribute_tokens(attribute),
                    pair.right.attribute_tokens(attribute),
                )
            )
            values.append(
                1.0 if left_value and left_value == right_value else 0.0
            )
        return np.asarray(values, dtype=np.float64)
