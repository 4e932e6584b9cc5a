"""Byte-for-byte parity of the batched edit kernels with their scalar twins.

Each batched kernel of :mod:`repro.text.kernels` must return, for every
pair of a batch, exactly the bytes of the float the scalar function of
:mod:`repro.text.similarity` returns. The shapes drawn here are the ones
most likely to tell them apart: empty and equal strings, values past
Magellan's 32-character cut, ``'İ' * 32`` (which lower-cases to 64 code
points), other non-ASCII text, long single tokens and Monge-Elkan token
lists of 0, 1, 6 and 7 tokens.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import Observability
from repro.text import kernels
from repro.text.kernels import (
    jaro_winkler_similarities,
    levenshtein_similarities,
    monge_elkan_similarities,
)
from repro.text.similarity import (
    jaro_winkler_similarity,
    levenshtein_similarity,
    monge_elkan_similarity,
)

_SPECIAL = (
    "",
    "a",
    "İ" * 32,
    ("İ" * 32).lower(),
    "i" * 64,
    "x" * 100,
    "x" * 99 + "y",
    "Straße déjà vu",
    "日本語のテキスト",
)

_texts = st.one_of(
    st.sampled_from(_SPECIAL),
    st.text(alphabet="abcİß é日", max_size=12),
    st.text(max_size=80),
)


@st.composite
def _string_pairs(draw):
    """Pairs of strings; some equal, some cut and lower-cased like Magellan."""
    left = draw(_texts)
    right = draw(st.one_of(_texts, st.just(left)))
    if draw(st.booleans()):
        left, right = left[:32].lower(), right[:32].lower()
    return left, right


_pair_batches = st.lists(_string_pairs(), min_size=1, max_size=24)

_tokens = st.one_of(
    st.text(alphabet="abcde", min_size=1, max_size=6),
    st.text(alphabet="ab0", min_size=40, max_size=90),  # long single tokens
)
_token_lists = st.one_of(
    st.sampled_from((0, 1, 6, 7)).flatmap(
        lambda size: st.lists(_tokens, min_size=size, max_size=size)
    ),
    st.lists(_tokens, max_size=8),
)
_token_batches = st.lists(
    st.tuples(_token_lists, _token_lists), min_size=1, max_size=16
)


def _bytes(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestLevenshtein:
    @settings(max_examples=150, deadline=None)
    @given(_pair_batches)
    def test_similarities_match_scalar_bytes(self, pairs):
        lefts, rights = zip(*pairs)
        assert levenshtein_similarities(lefts, rights).tobytes() == _bytes(
            [levenshtein_similarity(a, b) for a, b in pairs]
        )

    def test_multi_word_patterns(self):
        # Both sides past 64 characters: the pattern spans several words.
        lefts = ["ab" * 70, "x" * 150, "abc" * 50, "a" * 65]
        rights = ["ba" * 71, "x" * 149 + "y", "acb" * 50, "b" * 64]
        assert levenshtein_similarities(lefts, rights).tobytes() == _bytes(
            [levenshtein_similarity(a, b) for a, b in zip(lefts, rights)]
        )


class TestJaroWinkler:
    @settings(max_examples=150, deadline=None)
    @given(_pair_batches)
    def test_similarities_match_scalar_bytes(self, pairs):
        lefts, rights = zip(*pairs)
        assert jaro_winkler_similarities(lefts, rights).tobytes() == _bytes(
            [jaro_winkler_similarity(a, b) for a, b in pairs]
        )


class TestMongeElkan:
    @settings(max_examples=150, deadline=None)
    @given(_token_batches)
    def test_similarities_match_scalar_bytes(self, batch):
        lists_a, lists_b = zip(*batch)
        assert monge_elkan_similarities(lists_a, lists_b).tobytes() == _bytes(
            [monge_elkan_similarity(a, b) for a, b in batch]
        )


class TestChunking:
    @settings(max_examples=30, deadline=None)
    @given(_pair_batches, _token_batches)
    def test_tiny_chunks_give_the_same_bytes(self, pairs, token_batch):
        # A cell budget this small puts almost every pair in its own
        # chunk; the values must not depend on how the batch is cut.
        lefts, rights = zip(*pairs)
        lists_a, lists_b = zip(*token_batch)
        whole = (
            levenshtein_similarities(lefts, rights),
            jaro_winkler_similarities(lefts, rights),
            monge_elkan_similarities(lists_a, lists_b),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_EDIT_CHUNK_CELLS", 64)
            chunked = (
                levenshtein_similarities(lefts, rights),
                jaro_winkler_similarities(lefts, rights),
                monge_elkan_similarities(lists_a, lists_b),
            )
        for expected, got in zip(whole, chunked):
            assert got.tobytes() == expected.tobytes()


class TestKernelMetrics:
    def test_each_call_counts_one_batch(self):
        with obs.use(Observability()):
            levenshtein_similarities(["abc", ""], ["abd", "x"])
            jaro_winkler_similarities(["abc"], ["abd"])
            monge_elkan_similarities([["a", "b"], []], [["b"], ["c"]])
            levenshtein_similarities([], [])
            assert obs.counter("kernel.batches") == 4
            assert obs.counter("kernel.pairs") == 5
