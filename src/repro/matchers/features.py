"""Pair feature extraction for the linear and ML-based matchers.

Two families of feature vectors:

* **ESDE features** (Section IV-C): schema-agnostic or per-attribute
  [cosine, Dice, Jaccard] over tokens (SA/SB), over character q-grams with
  q in [2, 10] (SAQ/SBQ), or [cosine, Euclidean, Wasserstein] similarity
  over sentence embeddings (SAS/SBS).
* **Magellan features** (Section IV-B): per attribute, a battery of
  established similarity functions (token overlap measures, edit-based
  measures, 3-gram Jaccard, numeric similarity) — the "automatically
  extracted features" of the original system.

All features live in [0, 1]. Matrix extraction runs on the vectorized
kernels of :mod:`repro.text.kernels` through the task's shared
:class:`~repro.text.feature_store.FeatureStore` (tokenize/q-gram every
record once, batch the set measures, reuse a memoized prefix of the
pair list); the per-pair ``features(pair)`` path keeps its
private caches and stays byte-identical to the matrix path — it is the
oracle the parity tests compare against. Each matrix or column request
runs inside a ``text.extract`` span.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro import obs
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.records import Record
from repro.data.task import MatchingTask
from repro.embeddings.distances import (
    cosine_vector_similarity,
    euclidean_similarity,
    wasserstein_similarity,
)
from repro.embeddings.provider import sentence_embedder_for_task
from repro.text.feature_store import FeatureStore, store_for_task
from repro.text.kernels import SET_MEASURES
from repro.text.similarity import (
    cosine_similarity,
    dice_similarity,
    jaccard_similarity,
    jaro_winkler_similarity,
    levenshtein_similarity,
    monge_elkan_similarity,
    numeric_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import qgrams, tokenize

#: q-gram lengths of the SAQ/SBQ variants (Section IV-C: q in [2, 10]).
QGRAM_RANGE: tuple[int, ...] = tuple(range(2, 11))

#: Caps that keep the edit-based Magellan features affordable on long values.
_EDIT_MAX_CHARS = 32
_MONGE_ELKAN_MAX_TOKENS = 6

PairFeatureFn = Callable[[RecordPair], np.ndarray]


def _set_trio(a: set[str], b: set[str]) -> tuple[float, float, float]:
    """(cosine, dice, jaccard) of two sets."""
    return (
        cosine_similarity(a, b),
        dice_similarity(a, b),
        jaccard_similarity(a, b),
    )


class EsdeFeatureExtractor:
    """Feature vectors for one ESDE variant on one task.

    ``variant`` is one of ``"SA"``, ``"SB"``, ``"SAQ"``, ``"SBQ"``,
    ``"SAS"``, ``"SBS"`` — schema-agnostic/schema-based crossed with
    tokens / q-grams / sentence embeddings.
    """

    VARIANTS = ("SA", "SB", "SAQ", "SBQ", "SAS", "SBS")

    def __init__(self, variant: str, task: MatchingTask) -> None:
        if variant not in self.VARIANTS:
            raise ValueError(
                f"unknown ESDE variant {variant!r}; known: {self.VARIANTS}"
            )
        self.variant = variant
        self.task = task
        self.attributes = task.attributes
        self._token_cache: dict[str, set[str]] = {}
        self._qgram_cache: dict[tuple[str, int], set[str]] = {}
        self._embedding_cache: dict[str, np.ndarray] = {}
        self._embedder = (
            sentence_embedder_for_task(task) if variant in ("SAS", "SBS") else None
        )
        self._store = store_for_task(task)
        self.feature_names = self._build_feature_names()

    def _build_feature_names(self) -> tuple[str, ...]:
        if self.variant == "SA":
            return ("cs", "ds", "js")
        if self.variant == "SB":
            return tuple(
                f"{attr}:{sim}" for attr in self.attributes for sim in ("cs", "ds", "js")
            )
        if self.variant == "SAQ":
            return tuple(
                f"q{q}:{sim}" for q in QGRAM_RANGE for sim in ("cs", "ds", "js")
            )
        if self.variant == "SBQ":
            return tuple(
                f"{attr}:q{q}:{sim}"
                for attr in self.attributes
                for q in QGRAM_RANGE
                for sim in ("cs", "ds", "js")
            )
        if self.variant == "SAS":
            return ("cs", "es", "ws")
        return tuple(  # SBS
            f"{attr}:{sim}" for attr in self.attributes for sim in ("cs", "es", "ws")
        )

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    # -- cached record views -------------------------------------------------

    def _record_tokens(self, record: Record, attribute: str | None) -> set[str]:
        key = record.record_id if attribute is None else f"{record.record_id}\x00{attribute}"
        cached = self._token_cache.get(key)
        if cached is None:
            cached = (
                record.tokens() if attribute is None
                else record.attribute_tokens(attribute)
            )
            self._token_cache[key] = cached
        return cached

    def _record_qgrams(
        self, record: Record, q: int, attribute: str | None
    ) -> set[str]:
        suffix = "" if attribute is None else f"\x00{attribute}"
        key = (record.record_id + suffix, q)
        cached = self._qgram_cache.get(key)
        if cached is None:
            text = record.full_text() if attribute is None else record.value(attribute)
            cached = qgrams(text, q)
            self._qgram_cache[key] = cached
        return cached

    def _record_embedding(
        self, record: Record, attribute: str | None
    ) -> np.ndarray:
        assert self._embedder is not None
        key = record.record_id if attribute is None else f"{record.record_id}\x00{attribute}"
        cached = self._embedding_cache.get(key)
        if cached is None:
            cached = (
                self._embedder.embed_record(record)
                if attribute is None
                else self._embedder.embed_attribute(record, attribute)
            )
            self._embedding_cache[key] = cached
        return cached

    # -- feature vectors -----------------------------------------------------

    def _embedding_trio(
        self, pair: RecordPair, attribute: str | None
    ) -> tuple[float, float, float]:
        left = self._record_embedding(pair.left, attribute)
        right = self._record_embedding(pair.right, attribute)
        return (
            cosine_vector_similarity(left, right),
            euclidean_similarity(left, right),
            wasserstein_similarity(left, right),
        )

    def features(self, pair: RecordPair) -> np.ndarray:
        """The variant's feature vector for one pair."""
        values: list[float] = []
        if self.variant == "SA":
            values.extend(
                _set_trio(
                    self._record_tokens(pair.left, None),
                    self._record_tokens(pair.right, None),
                )
            )
        elif self.variant == "SB":
            for attribute in self.attributes:
                values.extend(
                    _set_trio(
                        self._record_tokens(pair.left, attribute),
                        self._record_tokens(pair.right, attribute),
                    )
                )
        elif self.variant == "SAQ":
            for q in QGRAM_RANGE:
                values.extend(
                    _set_trio(
                        self._record_qgrams(pair.left, q, None),
                        self._record_qgrams(pair.right, q, None),
                    )
                )
        elif self.variant == "SBQ":
            for attribute in self.attributes:
                for q in QGRAM_RANGE:
                    values.extend(
                        _set_trio(
                            self._record_qgrams(pair.left, q, attribute),
                            self._record_qgrams(pair.right, q, attribute),
                        )
                    )
        elif self.variant == "SAS":
            values.extend(self._embedding_trio(pair, None))
        else:  # SBS
            for attribute in self.attributes:
                values.extend(self._embedding_trio(pair, attribute))
        return np.asarray(values, dtype=np.float64)

    # -- vectorized matrix path ----------------------------------------------

    def _views(self) -> list[tuple]:
        """The record views backing this variant's columns, in column order.

        Each view contributes one contiguous trio of columns; SAS/SBS
        have no set views (their trios come from embeddings).
        """
        if self.variant == "SA":
            return [("tokens", None)]
        if self.variant == "SB":
            return [("tokens", attr) for attr in self.attributes]
        if self.variant == "SAQ":
            return [("qgrams", None, q) for q in QGRAM_RANGE]
        if self.variant == "SBQ":
            return [
                ("qgrams", attr, q)
                for attr in self.attributes
                for q in QGRAM_RANGE
            ]
        return []

    def _embedding_fn(self, index: int):
        return (
            cosine_vector_similarity,
            euclidean_similarity,
            wasserstein_similarity,
        )[index]

    def _compute_matrix(self, pair_list: list[RecordPair]) -> np.ndarray:
        views = self._views()
        if views:
            # One pair->record index shared by every view's batch.
            records, left_index, right_index = self._store.pair_index(
                pair_list
            )
            blocks = [
                self._store.set_similarities_indexed(
                    records, left_index, right_index, view
                )
                for view in views
            ]
            return np.hstack(blocks)
        # SAS / SBS: embeddings are cached per record; the trio itself is
        # scalar work dominated by the embedding lookups.
        if not pair_list:
            return np.empty((0, self.n_features), dtype=np.float64)
        attributes = [None] if self.variant == "SAS" else list(self.attributes)
        return np.asarray(
            [
                [
                    value
                    for attribute in attributes
                    for value in self._embedding_trio(pair, attribute)
                ]
                for pair in pair_list
            ],
            dtype=np.float64,
        )

    def _compute_column(
        self, pair_list: list[RecordPair], index: int
    ) -> np.ndarray:
        """One feature column as a (n_pairs, 1) matrix."""
        views = self._views()
        if views:
            view = views[index // 3]
            measure = SET_MEASURES[index % 3]
            return self._store.set_similarities(
                pair_list, view, measures=(measure,)
            )
        attribute = None if self.variant == "SAS" else self.attributes[index // 3]
        similarity = self._embedding_fn(index % 3)
        return np.asarray(
            [
                [
                    similarity(
                        self._record_embedding(pair.left, attribute),
                        self._record_embedding(pair.right, attribute),
                    )
                ]
                for pair in pair_list
            ],
            dtype=np.float64,
        ).reshape(len(pair_list), 1)

    def feature_matrix(self, pairs: LabeledPairSet) -> np.ndarray:
        """(n_pairs, n_features) matrix in the pair set's order.

        Vectorized through the task's shared feature store; identical to
        stacking :meth:`features` per pair (the parity-tested oracle).
        """
        pair_list = pairs.pairs
        with obs.span("text.extract"):
            return self._store.matrix(
                spec=f"esde:{self.variant}",
                pairs=pair_list,
                names=self.feature_names,
                compute=lambda: self._compute_matrix(pair_list),
                compute_pairs=lambda subset: self._compute_matrix(list(subset)),
            )

    def feature_column(self, pairs: LabeledPairSet, index: int) -> np.ndarray:
        """One feature's values over *pairs* — the ESDE predict fast path.

        Computes only the selected (view, measure) column instead of the
        variant's full matrix.
        """
        pair_list = pairs.pairs
        name = self.feature_names[index]
        with obs.span("text.extract"):
            column = self._store.matrix(
                spec=f"esde:{self.variant}:col{index}",
                pairs=pair_list,
                names=(name,),
                compute=lambda: self._compute_column(pair_list, index),
                compute_pairs=lambda subset: self._compute_column(
                    list(subset), index
                ),
            )
        return column.reshape(len(pair_list))


class MagellanFeatureExtractor:
    """Magellan-style automatic feature extraction, cached per pair.

    Per attribute: token cosine / Dice / Jaccard / overlap, 3-gram Jaccard,
    Levenshtein and Jaro-Winkler similarity on lower-cased values truncated
    to the first ``_EDIT_MAX_CHARS`` characters (truncate-and-compute — no
    fallback; an *empty* value yields 0.0 for both), Monge-Elkan when both
    token lists are non-empty with at most ``_MONGE_ELKAN_MAX_TOKENS``
    tokens (0.5 otherwise — uninformative rather than misleading), and
    numeric similarity when both values parse as numbers (0.5 otherwise).
    """

    _PER_ATTRIBUTE = (
        "cos", "dice", "jac", "overlap", "qg3_jac", "lev", "jw", "me", "num",
    )

    def __init__(
        self, attributes: Sequence[str], store: FeatureStore | None = None
    ) -> None:
        if not attributes:
            raise ValueError("MagellanFeatureExtractor needs attributes")
        self.attributes = tuple(attributes)
        self.feature_names = tuple(
            f"{attr}:{name}" for attr in self.attributes for name in self._PER_ATTRIBUTE
        )
        # The set-measure columns batch through a feature store; pass the
        # task's shared store to reuse its token/q-gram rows.
        self._store = store if store is not None else FeatureStore()
        self._cache: dict[tuple[str, str], np.ndarray] = {}
        # Attribute values repeat heavily (brands, years, genres), so the
        # per-(value, value) similarity battery is memoized independently
        # of which records carry the values. Every measure is symmetric
        # (Monge-Elkan explicitly symmetrized), so keys are canonicalized
        # to sorted order — (b, a) must not recompute (a, b).
        self._value_cache: dict[tuple[str, str], list[float]] = {}
        self._edit_cache: dict[tuple[str, str], tuple[float, float, float, float]] = {}

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @staticmethod
    def _maybe_number(value: str) -> float | None:
        try:
            return float(value)
        except ValueError:
            return None

    def _edit_tail(self, left: str, right: str) -> tuple[float, float, float, float]:
        """The scalar (lev, jw, me, num) quartet, memoized symmetrically."""
        key = (left, right) if left <= right else (right, left)
        cached = self._edit_cache.get(key)
        if cached is not None:
            return cached
        left, right = key
        left_short = left[:_EDIT_MAX_CHARS].lower()
        right_short = right[:_EDIT_MAX_CHARS].lower()
        if left_short and right_short:
            lev = levenshtein_similarity(left_short, right_short)
            jw = jaro_winkler_similarity(left_short, right_short)
        else:
            lev, jw = 0.0, 0.0
        left_tokens = tokenize(left)
        right_tokens = tokenize(right)
        if (
            0 < len(left_tokens) <= _MONGE_ELKAN_MAX_TOKENS
            and 0 < len(right_tokens) <= _MONGE_ELKAN_MAX_TOKENS
        ):
            me = monge_elkan_similarity(left_tokens, right_tokens)
        else:
            me = 0.5
        left_number = self._maybe_number(left)
        right_number = self._maybe_number(right)
        if left_number is not None and right_number is not None:
            num = numeric_similarity(left_number, right_number)
        else:
            num = 0.5
        cached = (lev, jw, me, num)
        self._edit_cache[key] = cached
        return cached

    def _attribute_features(self, left: str, right: str) -> list[float]:
        left_set = set(tokenize(left))
        right_set = set(tokenize(right))
        features = [
            cosine_similarity(left_set, right_set),
            dice_similarity(left_set, right_set),
            jaccard_similarity(left_set, right_set),
            overlap_coefficient(left_set, right_set),
            jaccard_similarity(qgrams(left, 3), qgrams(right, 3)),
        ]
        features.extend(self._edit_tail(left, right))
        return features

    def _cached_attribute_features(self, left: str, right: str) -> list[float]:
        key = (left, right) if left <= right else (right, left)
        cached = self._value_cache.get(key)
        if cached is None:
            cached = self._attribute_features(*key)
            self._value_cache[key] = cached
        return cached

    def features(self, pair: RecordPair) -> np.ndarray:
        cached = self._cache.get(pair.key)
        if cached is None:
            values: list[float] = []
            for attribute in self.attributes:
                values.extend(
                    self._cached_attribute_features(
                        pair.left.value(attribute), pair.right.value(attribute)
                    )
                )
            cached = np.asarray(values, dtype=np.float64)
            self._cache[pair.key] = cached
        return cached

    def _compute_matrix(self, pair_list: list[RecordPair]) -> np.ndarray:
        """Vectorized battery: batched set measures + memoized edit tail."""
        width = len(self._PER_ATTRIBUTE)
        matrix = np.empty((len(pair_list), self.n_features), dtype=np.float64)
        records, left_index, right_index = self._store.pair_index(pair_list)
        for attr_index, attribute in enumerate(self.attributes):
            base = attr_index * width
            matrix[:, base : base + 4] = self._store.set_similarities_indexed(
                records,
                left_index,
                right_index,
                ("tokens", attribute),
                measures=("cosine", "dice", "jaccard", "overlap"),
            )
            matrix[:, base + 4 : base + 5] = (
                self._store.set_similarities_indexed(
                    records,
                    left_index,
                    right_index,
                    ("qgrams", attribute, 3),
                    measures=("jaccard",),
                )
            )
            for row, pair in enumerate(pair_list):
                matrix[row, base + 5 : base + 9] = self._edit_tail(
                    pair.left.value(attribute), pair.right.value(attribute)
                )
        return matrix

    def feature_matrix(self, pairs: LabeledPairSet) -> np.ndarray:
        pair_list = pairs.pairs
        with obs.span("text.extract"):
            return self._store.matrix(
                spec="magellan",
                pairs=pair_list,
                names=self.feature_names,
                compute=lambda: self._compute_matrix(pair_list),
                compute_pairs=lambda subset: self._compute_matrix(list(subset)),
            )
