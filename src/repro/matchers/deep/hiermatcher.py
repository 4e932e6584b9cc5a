"""HierMatcher stand-in: hierarchical cross-attribute matching (Table II row 5).

Fu et al. build a four-layer hierarchy: token representations, a
*cross-attribute* token matching layer (each token aligns against every
token of the other record, not only the same attribute — the heterogeneous
ingredient), attribute-level aggregation weighted by token importance, and
an entity-level comparison vector.

The representation mirrors that structure on static embeddings: for every
attribute, the IDF-weighted mean of each token's best alignment score
against all tokens of the other record (both directions), topped by two
record-level alignment scores.
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import RecordPair
from repro.data.records import Record
from repro.data.task import MatchingTask
from repro.embeddings.provider import static_embedder_for_task
from repro.embeddings.static import StaticEmbedder
from repro.matchers.deep.base import DeepMatcherBase, TrainingRun
from repro.matchers.deep.lexical import lexical_evidence_for_task
from repro.text.tokenize import tokenize
from repro.text.vectorize import TfIdfVectorizer


class HierMatcherNet(DeepMatcherBase):
    """Token -> attribute -> entity alignment features + MLP head."""

    def __init__(
        self, epochs: int = 10, seed: int = 0, training: TrainingRun | None = None
    ) -> None:
        super().__init__(
            name=f"HierMatcher ({epochs})",
            epochs=epochs,
            seed=seed + 37,
            training=training,
        )
        self._embedder: StaticEmbedder | None = None
        self._vectorizer: TfIdfVectorizer | None = None
        self._attributes: tuple[str, ...] = ()
        self._token_matrix_cache: dict[str, tuple[list[str], np.ndarray]] = {}

    def _prepare(self, task: MatchingTask) -> None:
        self._embedder = static_embedder_for_task(task)
        self._attributes = task.attributes
        self._vectorizer = lexical_evidence_for_task(task).vectorizer
        self._token_matrix_cache = {}

    def _record_tokens_matrix(
        self, record: Record
    ) -> tuple[list[str], np.ndarray]:
        """(tokens, unit-normalized token-vector matrix) of a whole record."""
        assert self._embedder is not None
        cached = self._token_matrix_cache.get(record.record_id)
        if cached is None:
            tokens = tokenize(record.full_text())
            if tokens:
                matrix = np.stack(
                    [self._embedder.embed_token(token) for token in tokens]
                )
                norms = np.linalg.norm(matrix, axis=1, keepdims=True)
                norms[norms == 0] = 1.0
                matrix = matrix / norms
            else:
                matrix = np.zeros((0, self._embedder.dimension))
            cached = (tokens, matrix)
            self._token_matrix_cache[record.record_id] = cached
        return cached

    def _alignment(
        self,
        tokens: list[str],
        matrix: np.ndarray,
        other_matrix: np.ndarray,
    ) -> float:
        """IDF-weighted mean best-alignment of *tokens* against the other
        record's token matrix (cosine, mapped to [0, 1])."""
        assert self._vectorizer is not None
        if not tokens or other_matrix.shape[0] == 0:
            return 0.0
        similarities = matrix @ other_matrix.T  # rows: this record's tokens
        best = (similarities.max(axis=1) + 1.0) / 2.0
        weights = np.asarray([self._vectorizer.idf(token) for token in tokens])
        total = weights.sum()
        if total == 0:
            return float(best.mean())
        return float((best * weights).sum() / total)

    def _represent(self, pair: RecordPair) -> np.ndarray:
        left_tokens, left_matrix = self._record_tokens_matrix(pair.left)
        right_tokens, right_matrix = self._record_tokens_matrix(pair.right)
        values: list[float] = []
        # Attribute layer: each attribute's tokens aligned cross-attribute
        # against the entire other record.
        left_cursor = 0
        right_cursor = 0
        for attribute in self._attributes:
            left_attr_tokens = tokenize(pair.left.value(attribute))
            right_attr_tokens = tokenize(pair.right.value(attribute))
            left_slice = left_matrix[
                left_cursor : left_cursor + len(left_attr_tokens)
            ]
            right_slice = right_matrix[
                right_cursor : right_cursor + len(right_attr_tokens)
            ]
            left_cursor += len(left_attr_tokens)
            right_cursor += len(right_attr_tokens)
            values.append(
                self._alignment(left_attr_tokens, left_slice, right_matrix)
            )
            values.append(
                self._alignment(right_attr_tokens, right_slice, left_matrix)
            )
        # Entity layer: record-level alignment in both directions.
        values.append(self._alignment(left_tokens, left_matrix, right_matrix))
        values.append(self._alignment(right_tokens, right_matrix, left_matrix))
        return np.asarray(values, dtype=np.float64)
