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

from repro.data.derived import derived
from repro.data.pairs import RecordPair
from repro.data.records import Record
from repro.data.task import MatchingTask
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
    """Per-pair lexical evidence vector, cached per record and per pair.

    One instance serves every deep family of a task (see
    :func:`lexical_evidence_for_task`). A pair's row is computed once,
    made read-only and then published, so a unit abandoned at its
    deadline that still writes here can only publish the same values.
    """

    FEATURE_NAMES = ("token_jaccard", "idf_jaccard", "qg3_jaccard", "digit_overlap")

    def __init__(self, vectorizer: TfIdfVectorizer) -> None:
        self.vectorizer = vectorizer
        self._token_cache: dict[str, set[str]] = {}
        self._qgram_cache: dict[str, set[str]] = {}
        self._digit_cache: dict[str, set[str]] = {}
        self._rows: dict[tuple[str, str], np.ndarray] = {}

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
        total = math.fsum(self.vectorizer.idf(token) for token in union)
        if total == 0:
            return 0.0
        shared = math.fsum(
            self.vectorizer.idf(token) for token in left & right
        )
        return shared / total

    def features(self, pair: RecordPair) -> np.ndarray:
        """The pair's read-only evidence row."""
        row = self._rows.get(pair.key)
        if row is None:
            row = self._compute(pair)
            row.flags.writeable = False
            row = self._rows.setdefault(pair.key, row)
        return row

    def _compute(self, pair: RecordPair) -> np.ndarray:
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


def lexical_evidence_for_task(task: MatchingTask) -> LexicalEvidence:
    """The shared :class:`LexicalEvidence` of *task* (created on first use).

    Its vectorizer is fitted once on the task's non-empty record token
    lists, the corpus every deep family used to fit on its own; DITTO's
    summarization and HierMatcher's token weights read it too. Owned by
    :mod:`repro.data.derived`, like
    :func:`~repro.text.feature_store.store_for_task`.
    """

    def build() -> LexicalEvidence:
        corpus = [
            tokenize(record.full_text())
            for record in list(task.left) + list(task.right)
        ]
        vectorizer = TfIdfVectorizer().fit(tokens for tokens in corpus if tokens)
        return LexicalEvidence(vectorizer)

    return derived(task, ("lexical_evidence",), build)
