"""Tests for the shared lexical-evidence features of the deep matchers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.pairs import RecordPair
from repro.data.task import MatchingTask
from repro.matchers.deep import lexical
from repro.matchers.deep.ditto import DittoNet
from repro.matchers.deep.emtransformer import EMTransformerNet
from repro.matchers.deep.gnem import GnemNet
from repro.matchers.deep.hiermatcher import HierMatcherNet
from repro.matchers.deep.lexical import (
    LexicalEvidence,
    digit_tokens,
    lexical_evidence_for_task,
)
from repro.text.vectorize import TfIdfVectorizer
from tests.conftest import make_record


@pytest.fixture()
def evidence() -> LexicalEvidence:
    corpus = [
        ["sony", "turntable", "pslx350h"],
        ["sony", "camera", "dscw120"],
        ["acme", "widget", "500"],
        ["sony", "phone"],
    ]
    return LexicalEvidence(TfIdfVectorizer().fit(corpus))


_pair_counter = 0


def _pair(left_text: str, right_text: str) -> RecordPair:
    """Build a pair with unique record ids (the evidence caches by id)."""
    global _pair_counter
    _pair_counter += 1
    return RecordPair(
        make_record(f"a{_pair_counter}", "A", name=left_text),
        make_record(f"b{_pair_counter}", "B", name=right_text),
    )


class TestDigitTokens:
    def test_extracts_alphanumerics(self):
        record = make_record("r", "A", name="sony pslx350h price 99")
        assert digit_tokens(record) == {"pslx350h", "99"}

    def test_empty(self):
        record = make_record("r", "A", name="sony camera")
        assert digit_tokens(record) == set()


class TestLexicalEvidence:
    def test_feature_vector_shape(self, evidence):
        features = evidence.features(_pair("sony turntable", "sony camera"))
        assert features.shape == (len(LexicalEvidence.FEATURE_NAMES),)
        assert np.all((features >= 0.0) & (features <= 1.0))

    def test_identical_records_max_overlap(self, evidence):
        features = evidence.features(
            _pair("sony pslx350h", "sony pslx350h")
        )
        token_jaccard, idf_jaccard, qg3, digit_overlap = features
        assert token_jaccard == 1.0
        assert idf_jaccard == pytest.approx(1.0)
        assert qg3 == 1.0
        assert digit_overlap == 1.0

    def test_digit_overlap_distinguishes_family_variants(self, evidence):
        same_code = evidence.features(
            _pair("sony turntable pslx350h", "soni turntable pslx350h")
        )
        different_code = evidence.features(
            _pair("sony turntable pslx350h", "sony turntable pslx999z")
        )
        assert same_code[3] == 1.0
        assert different_code[3] == 0.0

    def test_no_digits_neutral(self, evidence):
        features = evidence.features(_pair("sony camera", "sony phone"))
        assert features[3] == 0.5

    def test_idf_jaccard_weights_rare_tokens(self, evidence):
        # Sharing the rare token 'turntable' counts more than sharing the
        # common token 'sony'.
        rare_shared = evidence.features(_pair("turntable alpha", "turntable beta"))
        common_shared = evidence.features(_pair("sony alpha", "sony beta"))
        assert rare_shared[1] > common_shared[1]

    def test_record_caching(self, evidence):
        pair = _pair("sony camera", "sony phone")
        evidence.features(pair)
        assert pair.left.record_id in evidence._token_cache
        assert pair.right.record_id in evidence._token_cache


class TestSharedEvidence:
    def test_deep_families_fit_one_vectorizer_per_task(
        self, handmade_task, monkeypatch
    ):
        fits = []
        original_fit = TfIdfVectorizer.fit

        def counting_fit(self, documents):
            fits.append(self)
            return original_fit(self, documents)

        monkeypatch.setattr(lexical.TfIdfVectorizer, "fit", counting_fit)
        task = MatchingTask(  # a fresh task object: no evidence yet
            "shared_evidence",
            handmade_task.left,
            handmade_task.right,
            handmade_task.training,
            handmade_task.validation,
            handmade_task.testing,
        )
        nets = [
            DittoNet(epochs=1),
            EMTransformerNet("B", epochs=1),
            EMTransformerNet("R", epochs=1),
            GnemNet(epochs=1),
        ]
        hier = HierMatcherNet(epochs=1)
        for net in nets + [hier]:
            net._prepare(task)
        assert len(fits) == 1
        evidence = lexical_evidence_for_task(task)
        assert all(net._lexical is evidence for net in nets)
        assert hier._vectorizer is evidence.vectorizer

    def test_rows_are_published_once_and_read_only(self, evidence):
        pair = _pair("sony pslx350h", "sony turntable")
        row = evidence.features(pair)
        assert not row.flags.writeable
        assert evidence.features(pair) is row
        with pytest.raises(ValueError):
            row[0] = 0.0
