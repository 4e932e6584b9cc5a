"""Tests for repro.text.vectorize."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.vectorize import TfIdfVectorizer, Vocabulary


class TestVocabulary:
    def test_add_and_lookup(self):
        vocabulary = Vocabulary()
        first = vocabulary.add("alpha")
        second = vocabulary.add("beta")
        assert first == 0 and second == 1
        assert vocabulary.id_of("alpha") == 0
        assert vocabulary.token_of(1) == "beta"
        assert "alpha" in vocabulary and "gamma" not in vocabulary

    def test_add_is_idempotent(self):
        vocabulary = Vocabulary()
        assert vocabulary.add("x") == vocabulary.add("x")
        assert len(vocabulary) == 1

    def test_unknown_token(self):
        assert Vocabulary().id_of("missing") is None


class TestTfIdf:
    @pytest.fixture()
    def fitted(self) -> TfIdfVectorizer:
        corpus = [
            ["common", "rare1"],
            ["common", "rare2"],
            ["common", "rare3"],
            ["common", "common2"],
        ]
        return TfIdfVectorizer().fit(corpus)

    def test_fit_on_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            TfIdfVectorizer().fit([])

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TfIdfVectorizer().weights(["a"])

    def test_rare_tokens_weigh_more(self, fitted):
        assert fitted.idf("rare1") > fitted.idf("common")

    def test_unseen_token_gets_max_idf(self, fitted):
        assert fitted.idf("never_seen") >= fitted.idf("rare1")

    def test_unseen_idf_is_the_smoothed_formula(self, fitted):
        # Four documents, smoothing 1: log((4 + 1) / 1) + 1, to the bit.
        assert fitted.idf("never_seen") == math.log(5 / 1) + 1.0
        unsmoothed = TfIdfVectorizer(smooth=False).fit([["a"], ["b"], ["a"]])
        assert unsmoothed.idf("never_seen") == math.log(3) + 1.0

    def test_idf_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            TfIdfVectorizer().idf("a")

    def test_weights_normalized(self, fitted):
        weights = fitted.weights(["common", "rare1", "rare1"])
        norm = sum(w * w for w in weights.values()) ** 0.5
        assert norm == pytest.approx(1.0)

    def test_weights_empty(self, fitted):
        assert fitted.weights([]) == {}

    def test_summarize_keeps_rarest(self, fitted):
        kept = fitted.summarize(["common", "rare1", "common2"], 1)
        assert kept == ["rare1"]

    def test_summarize_preserves_order(self, fitted):
        tokens = ["rare1", "common", "rare2"]
        kept = fitted.summarize(tokens, 2)
        assert kept == ["rare1", "rare2"]

    def test_summarize_noop_when_short(self, fitted):
        tokens = ["common"]
        assert fitted.summarize(tokens, 5) == tokens

    def test_summarize_negative_raises(self, fitted):
        with pytest.raises(ValueError):
            fitted.summarize(["a"], -1)

    def test_cosine_identical(self, fitted):
        assert fitted.cosine(["common", "rare1"], ["common", "rare1"]) == pytest.approx(1.0)

    def test_cosine_disjoint(self, fitted):
        assert fitted.cosine(["rare1"], ["rare2"]) == 0.0

    @given(
        st.lists(
            st.sampled_from(["common", "rare1", "rare2", "zz"]),
            min_size=1,
            max_size=6,
        )
    )
    def test_cosine_bounds(self, tokens):
        corpus = [["common", "rare1"], ["common", "rare2"]]
        vectorizer = TfIdfVectorizer().fit(corpus)
        assert 0.0 <= vectorizer.cosine(tokens, ["common"]) <= 1.0
