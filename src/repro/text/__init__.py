"""Lexical substrate: tokenization, string similarities and TF-IDF weighting.

This package provides the schema-agnostic text machinery that the paper's
difficulty measures (Section III) and linear matchers (Section IV-C) are built
on: whitespace tokenization, character q-grams, optional cleaning (stop-word
removal plus stemming, as used by the DeepBlocker tuner in Section VI), token
set similarities (cosine, Jaccard, Dice, overlap) and the classic edit-based
measures used by Magellan-style feature extraction (Levenshtein, Jaro,
Jaro-Winkler, Monge-Elkan). Batched set measures run on
:mod:`repro.text.kernels`: every feature view's records live in one
append-only :class:`IncrementalIncidence`, and pair intersections are an
exact int64 merge over it. Magellan's edit measures batch there too
(bit-parallel Levenshtein, batched Jaro-Winkler and Monge-Elkan), bit for
bit against the scalar functions.
"""

from repro.text.feature_store import FeatureStore, store_for_task
from repro.text.kernels import (
    KERNEL_VERSION,
    SET_MEASURES,
    CharTable,
    IncrementalIncidence,
    PackedRows,
    QGramAlphabetOverflow,
    QGramCodec,
    EMPTY_SIGNATURE,
    TokenInterner,
    band_keys,
    batch_intersection_counts,
    gather_csr,
    minhash_params,
    minhash_signatures,
    set_similarity_matrix_indexed,
)
from repro.text.tokenize import (
    STOPWORDS,
    clean_tokens,
    ngrams,
    qgrams,
    stem,
    tokenize,
)
from repro.text.similarity import (
    cosine_similarity,
    dice_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    numeric_similarity,
    overlap_coefficient,
)
from repro.text.vectorize import TfIdfVectorizer, Vocabulary

__all__ = [
    "KERNEL_VERSION",
    "SET_MEASURES",
    "STOPWORDS",
    "CharTable",
    "EMPTY_SIGNATURE",
    "FeatureStore",
    "IncrementalIncidence",
    "PackedRows",
    "QGramAlphabetOverflow",
    "QGramCodec",
    "TfIdfVectorizer",
    "TokenInterner",
    "Vocabulary",
    "band_keys",
    "batch_intersection_counts",
    "clean_tokens",
    "gather_csr",
    "minhash_params",
    "minhash_signatures",
    "set_similarity_matrix_indexed",
    "store_for_task",
    "cosine_similarity",
    "dice_similarity",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "monge_elkan_similarity",
    "ngrams",
    "numeric_similarity",
    "overlap_coefficient",
    "qgrams",
    "stem",
    "tokenize",
]
