"""Vocabulary indexing and TF-IDF weighting.

DITTO's heterogeneous summarization step keeps "only the tokens that do not
correspond to stop-words and have a high TF-IDF weight" (Section IV-A); the
sentence embedder pools token vectors with TF-IDF weights. Both are served by
:class:`TfIdfVectorizer`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np


class Vocabulary:
    """A bidirectional token <-> integer-id mapping built from a corpus."""

    def __init__(self) -> None:
        self._token_to_id: dict[str, int] = {}
        self._tokens: list[str] = []

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def add(self, token: str) -> int:
        """Add *token* if new; return its id."""
        token_id = self._token_to_id.get(token)
        if token_id is None:
            token_id = len(self._tokens)
            self._token_to_id[token] = token_id
            self._tokens.append(token)
        return token_id

    def id_of(self, token: str) -> int | None:
        """Return the id of *token*, or ``None`` if out of vocabulary."""
        return self._token_to_id.get(token)

    def token_of(self, token_id: int) -> str:
        """Return the token with the given id (raises ``IndexError`` if bad)."""
        return self._tokens[token_id]

    def tokens(self) -> list[str]:
        """Return all tokens in id order (a copy)."""
        return list(self._tokens)


class TfIdfVectorizer:
    """TF-IDF weighting over tokenized documents.

    The vectorizer is fitted on an iterable of token sequences (documents) and
    afterwards provides per-token IDF weights, per-document TF-IDF weight
    maps, and a summarization helper that keeps the highest-weighted tokens —
    the mechanism DITTO uses to fit long records into a transformer window.
    """

    def __init__(self, smooth: bool = True) -> None:
        self.smooth = smooth
        self._idf: dict[str, float] = {}
        self._unseen_idf = 0.0
        self._document_count = 0

    @property
    def fitted(self) -> bool:
        return self._document_count > 0

    def fit(self, documents: Iterable[Sequence[str]]) -> "TfIdfVectorizer":
        """Compute IDF weights from *documents* (token sequences)."""
        document_frequency: dict[str, int] = {}
        count = 0
        for tokens in documents:
            count += 1
            for token in set(tokens):
                document_frequency[token] = document_frequency.get(token, 0) + 1
        if count == 0:
            raise ValueError("cannot fit a TfIdfVectorizer on an empty corpus")
        self._document_count = count
        offset = 1 if self.smooth else 0
        self._idf = {
            token: math.log((count + offset) / (frequency + offset)) + 1.0
            for token, frequency in document_frequency.items()
        }
        self._unseen_idf = (
            math.log((count + offset) / offset) + 1.0
            if offset
            else math.log(count) + 1.0
        )
        return self

    def idf(self, token: str) -> float:
        """IDF of *token*; unseen tokens get the maximal (rarest) weight."""
        weight = self._idf.get(token)
        if weight is None:
            self._require_fitted()
            return self._unseen_idf
        return weight

    def weights(self, tokens: Sequence[str]) -> dict[str, float]:
        """Return the L2-normalized TF-IDF weight of each distinct token."""
        self._require_fitted()
        if not tokens:
            return {}
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        raw = {
            token: (count / len(tokens)) * self.idf(token)
            for token, count in counts.items()
        }
        norm = math.sqrt(sum(weight * weight for weight in raw.values()))
        if norm == 0:
            return dict.fromkeys(raw, 0.0)
        return {token: weight / norm for token, weight in raw.items()}

    def summarize(self, tokens: Sequence[str], max_tokens: int) -> list[str]:
        """Keep the *max_tokens* highest-TF-IDF tokens, preserving order.

        Ties are broken by original position so the result is deterministic.
        """
        self._require_fitted()
        if max_tokens < 0:
            raise ValueError(f"max_tokens must be >= 0, got {max_tokens}")
        if len(tokens) <= max_tokens:
            return list(tokens)
        weights = self.weights(tokens)
        ranked = sorted(
            range(len(tokens)),
            key=lambda index: (-weights[tokens[index]], index),
        )
        keep = sorted(ranked[:max_tokens])
        return [tokens[index] for index in keep]

    def cosine(self, tokens_a: Sequence[str], tokens_b: Sequence[str]) -> float:
        """TF-IDF-weighted cosine similarity between two token sequences."""
        weights_a = self.weights(tokens_a)
        weights_b = self.weights(tokens_b)
        if not weights_a or not weights_b:
            return 0.0
        if len(weights_b) < len(weights_a):
            weights_a, weights_b = weights_b, weights_a
        return float(
            np.clip(
                sum(
                    weight * weights_b.get(token, 0.0)
                    for token, weight in weights_a.items()
                ),
                0.0,
                1.0,
            )
        )

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("TfIdfVectorizer is not fitted; call fit() first")
