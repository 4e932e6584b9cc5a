"""Golden parity: vectorized feature paths vs the scalar per-pair oracle.

The contract of the ISSUE-5 refactor is *bit-identical* features: for
every ESDE variant, for Magellan, and for the linearity sweep's pair
similarities, the batched kernel path must reproduce the per-pair scalar
computation exactly (``np.array_equal``, no tolerance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.linearity import DEGENERATE_THRESHOLD, pair_similarities
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.records import RecordStore, Schema
from repro.data.task import MatchingTask
from repro.obs import Observability
from repro.matchers.esde import EsdeMatcher
from repro.matchers.features import (
    EsdeFeatureExtractor,
    MagellanFeatureExtractor,
)
from repro.text.feature_store import store_for_task
from repro.text.similarity import (
    cosine_similarity,
    jaccard_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import tokenize
from tests.conftest import make_record

SET_VARIANTS = ("SA", "SB", "SAQ", "SBQ")
ALL_VARIANTS = EsdeFeatureExtractor.VARIANTS


def _oracle(extractor, pairs: LabeledPairSet) -> np.ndarray:
    """The scalar per-pair path, stacked — the golden reference."""
    return np.vstack([extractor.features(pair) for pair in pairs.pairs])


def _edge_case_task() -> MatchingTask:
    """A task whose records exercise every awkward text shape.

    Empty values, values shorter than the largest q (10), single
    characters, repeated grams, numerics, unicode (``'İ'`` lower-cases to
    two code points, so a 32-character cut reaches 64), values past the
    edit cap and token lists at and past the Monge-Elkan cap — the shapes
    most likely to diverge between a vectorized encoder and the scalar
    one.
    """
    schema = Schema(("name", "code"))
    lefts = [
        make_record("l0", "edge_left", name="", code=""),
        make_record("l1", "edge_left", name="a", code="7"),
        make_record("l2", "edge_left", name="ab cd", code="x"),
        make_record("l3", "edge_left", name="aaaaaaaaaaaa", code="12.5"),
        make_record("l4", "edge_left", name="Straße déjà vu", code="ß"),
        make_record("l5", "edge_left", name="one two three four", code="n/a"),
        make_record("l6", "edge_left", name="İ" * 40, code="a b c d e f"),
    ]
    rights = [
        make_record("r0", "edge_right", name="", code="7"),
        make_record("r1", "edge_right", name="a", code=""),
        make_record("r2", "edge_right", name="ab", code="x y"),
        make_record("r3", "edge_right", name="aaaa", code="12.9"),
        make_record("r4", "edge_right", name="strasse deja vu", code="ss"),
        make_record("r5", "edge_right", name="three four five", code="N/A"),
        make_record(
            "r6", "edge_right", name="i̇" * 33 + " tail", code="a b c d e f g"
        ),
    ]
    left = RecordStore("edge_left", schema, lefts)
    right = RecordStore("edge_right", schema, rights)
    training = LabeledPairSet()
    validation = LabeledPairSet()
    testing = LabeledPairSet()
    for index, (a, b) in enumerate(
        (l, r) for l in lefts for r in rights
    ):
        split = (training, validation, testing)[index % 3]
        split.add(RecordPair(a, b), int(a.record_id[1] == b.record_id[1]))
    return MatchingTask("edge", left, right, training, validation, testing)


class TestEsdeParity:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_matrix_matches_oracle(self, variant, handmade_task):
        extractor = EsdeFeatureExtractor(variant, handmade_task)
        for split in (handmade_task.training, handmade_task.validation):
            matrix = extractor.feature_matrix(split)
            assert matrix.shape == (len(split), extractor.n_features)
            assert np.array_equal(matrix, _oracle(extractor, split))

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_every_column_matches_matrix(self, variant, handmade_task):
        extractor = EsdeFeatureExtractor(variant, handmade_task)
        split = handmade_task.testing
        matrix = extractor.feature_matrix(split)
        for index in range(extractor.n_features):
            column = extractor.feature_column(split, index)
            assert column.shape == (len(split),)
            assert np.array_equal(column, matrix[:, index])

    @pytest.mark.parametrize("variant", SET_VARIANTS)
    def test_edge_case_records(self, variant):
        task = _edge_case_task()
        extractor = EsdeFeatureExtractor(variant, task)
        for split in (task.training, task.validation, task.testing):
            matrix = extractor.feature_matrix(split)
            assert np.array_equal(matrix, _oracle(extractor, split))


class TestEsdeDegenerateFold:
    def test_all_negative_training_predicts_all_negative(self):
        # Regression: with zero training positives no threshold attains
        # f1 > 0, and the old code fell back to threshold 0.0 — which
        # classifies *every* pair positive (all similarities are >= 0).
        # The DEGENERATE_THRESHOLD sentinel must predict all-negative.
        task = _edge_case_task()
        negative_training = LabeledPairSet()
        for pair, __ in task.training:
            negative_training.add(pair, 0)
        negative_task = MatchingTask(
            "all_negative",
            task.left,
            task.right,
            negative_training,
            task.validation,
            task.testing,
        )
        matcher = EsdeMatcher("SA")
        matcher.fit(negative_task)
        assert matcher.training_thresholds_ is not None
        assert np.all(matcher.training_thresholds_ == DEGENERATE_THRESHOLD)
        predictions = matcher.predict(negative_task.testing)
        assert not predictions.any()


def _magellan_oracle(attributes, pairs: LabeledPairSet) -> np.ndarray:
    """The scalar path of a fresh extractor, whose caches no batch filled."""
    return _oracle(MagellanFeatureExtractor(attributes), pairs)


class TestMagellanParity:
    def test_matrix_matches_oracle(self, handmade_task):
        extractor = MagellanFeatureExtractor(
            handmade_task.attributes, store_for_task(handmade_task)
        )
        for split in (handmade_task.training, handmade_task.testing):
            matrix = extractor.feature_matrix(split)
            assert matrix.shape == (len(split), extractor.n_features)
            assert np.array_equal(
                matrix, _magellan_oracle(handmade_task.attributes, split)
            )

    def test_edge_case_records(self):
        task = _edge_case_task()
        extractor = MagellanFeatureExtractor(("name", "code"))
        for split in (task.training, task.validation, task.testing):
            matrix = extractor.feature_matrix(split)
            assert np.array_equal(
                matrix, _magellan_oracle(("name", "code"), split)
            )

    def test_matrix_counts_its_edit_batches(self, handmade_task):
        # One matrix over uncached pairs runs, per attribute, two
        # set-measure batches and one batch each of Levenshtein,
        # Jaro-Winkler and Monge-Elkan over its distinct value pairs.
        attributes = handmade_task.attributes
        split = handmade_task.training
        extractor = MagellanFeatureExtractor(attributes)
        expected_pairs = 0
        for attribute in attributes:
            keys = {
                tuple(sorted((pair.left.value(attribute), pair.right.value(attribute))))
                for pair in split.pairs
            }
            expected_pairs += 2 * len(split)  # token and 3-gram set batches
            expected_pairs += 2 * sum(  # Levenshtein and Jaro-Winkler
                bool(left[:32]) and bool(right[:32]) for left, right in keys
            )
            expected_pairs += sum(  # Monge-Elkan
                0 < len(tokenize(left)) <= 6 and 0 < len(tokenize(right)) <= 6
                for left, right in keys
            )
        with obs.use(Observability()):
            extractor.feature_matrix(split)
            assert obs.counter("kernel.batches") == 5 * len(attributes)
            assert obs.counter("kernel.pairs") == expected_pairs
            # Every value pair is cached now: a new pair list over the
            # same pairs runs the set batches only.
            extractor.feature_matrix(split.subset(range(len(split))[::-1]))
            assert obs.counter("kernel.batches") == 7 * len(attributes)

    def test_features_are_symmetric_and_cached_once(self):
        # Every Magellan measure is symmetric (Monge-Elkan explicitly
        # symmetrized), so the value cache canonicalizes (a, b)/(b, a) to
        # one key — the old direction-sensitive key computed both and
        # could disagree with itself on asymmetric Monge-Elkan scores.
        left = make_record("l0", "left", name="acme widget alpha kit")
        right = make_record("r0", "right", name="widget acme kits")
        extractor = MagellanFeatureExtractor(("name",))
        forward = extractor.features(RecordPair(left, right))
        backward = extractor.features(RecordPair(right, left))
        assert np.array_equal(forward, backward)
        assert len(extractor._value_cache) == 1
        assert len(extractor._edit_cache) == 1

    def test_docstring_behavior_pinned(self):
        # The documented edge-case contract, pinned so a future "cleanup"
        # cannot silently change feature values:
        extractor = MagellanFeatureExtractor(("name",))
        names = extractor._PER_ATTRIBUTE

        def features_for(left_value, right_value):
            pair = RecordPair(
                make_record(f"l{left_value!r}", "left", name=left_value),
                make_record(f"r{right_value!r}", "right", name=right_value),
            )
            return dict(zip(names, extractor.features(pair)))

        # An empty value yields 0.0 for both edit measures (no fallback).
        empty = features_for("", "acme")
        assert empty["lev"] == 0.0 and empty["jw"] == 0.0
        # Values are truncated to 32 chars before the edit measures:
        # strings identical in their first 32 characters score 1.0.
        long = features_for("x" * 32 + "left tail", "x" * 32 + "other")
        assert long["lev"] == 1.0 and long["jw"] == 1.0
        # Monge-Elkan degrades to 0.5 beyond 6 tokens per side...
        many = features_for("a b c d e f g", "a b c d e f g")
        assert many["me"] == 0.5
        # ...and numeric similarity to 0.5 when either side is not a number.
        assert many["num"] == 0.5
        both_numeric = features_for("10", "10")
        assert both_numeric["num"] == 1.0


class TestPairSimilarities:
    def test_vectorized_measures_match_scalar_loop(self, handmade_task):
        store = store_for_task(handmade_task)
        for split in (handmade_task.training, handmade_task.testing):
            for measure in (cosine_similarity, jaccard_similarity):
                batched = pair_similarities(split, measure, store)
                scalar = np.asarray(
                    [
                        measure(pair.left.tokens(), pair.right.tokens())
                        for pair, __ in split
                    ],
                    dtype=np.float64,
                )
                assert np.array_equal(batched, scalar)

    def test_custom_callable_uses_scalar_path(self, handmade_task):
        split = handmade_task.validation
        scores = pair_similarities(split, overlap_coefficient)
        expected = [
            overlap_coefficient(pair.left.tokens(), pair.right.tokens())
            for pair, __ in split
        ]
        assert list(scores) == expected
