"""Shared lexical-evidence features for the transformer-style matchers.

Mean-pooled sequence embeddings lose exact-token evidence that real
transformers keep: self-attention can align identical rare tokens (model
numbers, years, phone numbers) across the two sequences regardless of their
embedding neighbourhood. These four features restore that capability to the
sequence-pair representations: plain and IDF-weighted token overlap, 3-gram
overlap (subword attention proxy) and the overlap of digit-bearing tokens
(the identifier evidence DITTO injects explicitly and attention finds
implicitly).
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.pairs import RecordPair
from repro.data.records import Record
from repro.text.similarity import jaccard_similarity
from repro.text.tokenize import qgrams, tokenize
from repro.text.vectorize import TfIdfVectorizer

_DIGITS = set("0123456789")


def digit_tokens(record: Record) -> set[str]:
    """Tokens containing at least one digit (codes, years, prices)."""
    return {
        token
        for token in tokenize(record.full_text())
        if any(char in _DIGITS for char in token)
    }


class LexicalEvidence:
    """Per-pair lexical evidence vector, cached per record."""

    FEATURE_NAMES = ("token_jaccard", "idf_jaccard", "qg3_jaccard", "digit_overlap")

    def __init__(self, vectorizer: TfIdfVectorizer) -> None:
        self._vectorizer = vectorizer
        self._token_cache: dict[str, set[str]] = {}
        self._qgram_cache: dict[str, set[str]] = {}
        self._digit_cache: dict[str, set[str]] = {}

    def _tokens(self, record: Record) -> set[str]:
        cached = self._token_cache.get(record.record_id)
        if cached is None:
            cached = record.tokens()
            self._token_cache[record.record_id] = cached
        return cached

    def _qgrams(self, record: Record) -> set[str]:
        cached = self._qgram_cache.get(record.record_id)
        if cached is None:
            cached = qgrams(record.full_text(), 3)
            self._qgram_cache[record.record_id] = cached
        return cached

    def _digits(self, record: Record) -> set[str]:
        cached = self._digit_cache.get(record.record_id)
        if cached is None:
            cached = digit_tokens(record)
            self._digit_cache[record.record_id] = cached
        return cached

    def _idf_jaccard(self, left: set[str], right: set[str]) -> float:
        # ``math.fsum`` is exactly rounded, so the sums do not depend on
        # the sets' iteration order (which follows the string-hash seed).
        union = left | right
        if not union:
            return 0.0
        total = math.fsum(self._vectorizer.idf(token) for token in union)
        if total == 0:
            return 0.0
        shared = math.fsum(
            self._vectorizer.idf(token) for token in left & right
        )
        return shared / total

    def features(self, pair: RecordPair) -> np.ndarray:
        left_tokens = self._tokens(pair.left)
        right_tokens = self._tokens(pair.right)
        left_digits = self._digits(pair.left)
        right_digits = self._digits(pair.right)
        digit_union = len(left_digits | right_digits)
        return np.asarray(
            (
                jaccard_similarity(left_tokens, right_tokens),
                self._idf_jaccard(left_tokens, right_tokens),
                jaccard_similarity(self._qgrams(pair.left), self._qgrams(pair.right)),
                len(left_digits & right_digits) / digit_union if digit_union else 0.5,
            ),
            dtype=np.float64,
        )
