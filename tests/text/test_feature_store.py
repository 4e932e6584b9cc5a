"""FeatureStore: encode-once views, batched similarities, prefix memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data.pairs import RecordPair
from repro.obs import Observability
from repro.text.feature_store import FeatureStore, store_for_task
from repro.text.similarity import (
    cosine_similarity,
    dice_similarity,
    jaccard_similarity,
)
from tests.conftest import make_record


def _pairs():
    lefts = [
        make_record("l0", "left", name="acme widget alpha", price="10"),
        make_record("l1", "left", name="zeta gadget", price="25"),
        make_record("l2", "left", name="", price=""),
    ]
    rights = [
        make_record("r0", "right", name="acme widget alpha plus", price="10"),
        make_record("r1", "right", name="beta gadget zeta", price="30"),
        make_record("r2", "right", name="ab", price="10"),
    ]
    return [
        RecordPair(left, right) for left in lefts for right in rights
    ]


def _scalar_view(record, view):
    return FeatureStore._extract(record, view)


VIEWS = [
    ("tokens", None),
    ("tokens", "name"),
    ("qgrams", None, 3),
    ("qgrams", "name", 2),
    ("qgrams", "price", 5),
]


class TestViews:
    @pytest.mark.parametrize("view", VIEWS)
    def test_set_similarities_match_scalar(self, view):
        store = FeatureStore()
        pairs = _pairs()
        matrix = store.set_similarities(pairs, view)
        for row, pair in enumerate(pairs):
            a = _scalar_view(pair.left, view)
            b = _scalar_view(pair.right, view)
            assert matrix[row, 0] == cosine_similarity(a, b)
            assert matrix[row, 1] == dice_similarity(a, b)
            assert matrix[row, 2] == jaccard_similarity(a, b)

    def test_rows_are_encoded_once_and_reused(self):
        store = FeatureStore()
        record = make_record("l0", "left", name="acme widget")
        first = store.rows([record], ("tokens", None))[0]
        second = store.rows([record], ("tokens", None))[0]
        assert first is second

    def test_incidence_memoized_until_new_records(self):
        store = FeatureStore()
        view = ("qgrams", None, 3)
        store.rows([make_record("l0", "left", name="alpha")], view)
        positions, first = store._incidence(view)
        __, again = store._incidence(view)
        assert first is again and first.n_rows == 1
        store.rows([make_record("l1", "left", name="omega")], view)
        # New records append to the same structure; nothing is rebuilt
        # and the rows handed out before keep their positions.
        grown_positions, grown = store._incidence(view)
        assert grown is first and grown.n_rows == 2
        assert grown_positions[("left", "l0")] == 0
        assert grown_positions[("left", "l1")] == 1

    def test_codec_overflow_falls_back_consistently(self):
        # q=10 codecs budget 6 bits/char (capacity 63): a wide-alphabet
        # record must flip the view to interner fallback without changing
        # any similarity already computed from codec codes.
        view = ("qgrams", None, 10)
        store = FeatureStore()
        plain = [
            make_record("l0", "left", name="record linkage benchmarks"),
            make_record("r0", "right", name="record linkage revisited"),
        ]
        pairs = [RecordPair(plain[0], plain[1])]
        before = store.set_similarities(pairs, view)
        assert view not in store._fallback_views
        wide = make_record(
            "w0", "right", name="".join(chr(0x4E00 + i) for i in range(80))
        )
        mixed = pairs + [RecordPair(plain[0], wide)]
        after = store.set_similarities(mixed, view)
        assert view in store._fallback_views
        assert np.array_equal(before, after[:1])
        a = _scalar_view(plain[0], view)
        assert after[1, 2] == jaccard_similarity(a, _scalar_view(wide, view))

    def test_pair_index_dedups_records(self):
        pairs = _pairs()
        records, left_index, right_index = FeatureStore.pair_index(pairs)
        assert len(records) == 6
        assert len(left_index) == len(right_index) == len(pairs)
        for position, pair in enumerate(pairs):
            assert records[left_index[position]] is pair.left
            assert records[right_index[position]] is pair.right


class TestDigests:
    def test_record_digest_sensitive_to_content(self):
        store = FeatureStore()
        one = store.record_digest(make_record("l0", "left", name="a"))
        other = FeatureStore().record_digest(
            make_record("l0", "left", name="b")
        )
        assert one != other

    @staticmethod
    def _request(store, spec, names, pairs, computed):
        """One memoized matrix request; logs each computed pair count."""

        def compute_pairs(subset):
            computed.append(len(subset))
            return store.set_similarities(list(subset), ("tokens", None))

        return store.matrix(
            spec,
            pairs,
            names,
            lambda: compute_pairs(pairs),
            compute_pairs=compute_pairs,
        )

    def test_matrix_digest_sensitive_to_spec_names_and_order(self):
        store = FeatureStore()
        pairs = _pairs()
        names = ["cs", "ds", "js"]
        computed: list[int] = []
        with obs.use(Observability()):
            base = self._request(store, "esde:SA", names, pairs, computed)
            for spec, other_names, order in (
                ("esde:SB", names, pairs),
                ("esde:SA", ["a", "b", "c"], pairs),
                ("esde:SA", names, list(reversed(pairs))),
            ):
                self._request(store, spec, other_names, order, computed)
            # None of the three reused a row: each computed every pair.
            assert obs.counter("features.prefix_hits") == 0
            assert computed == [len(pairs)] * 4
            # The memo now holds the reversed order; the original order
            # chains to another digest and is computed afresh.
            again = self._request(store, "esde:SA", names, pairs, computed)
            assert obs.counter("features.prefix_hits") == 0
        assert computed == [len(pairs)] * 5
        assert again.tobytes() == base.tobytes()

    def test_extended_pair_list_reuses_the_memoized_prefix(self):
        store = FeatureStore()
        pairs = _pairs()
        names = ["cs", "ds", "js"]
        computed: list[int] = []
        with obs.use(Observability()):
            self._request(store, "esde:SA", names, pairs[:4], computed)
            grown = self._request(store, "esde:SA", names, pairs, computed)
            assert obs.counter("features.prefix_hits") == 1
            assert obs.counter("features.prefix_reused_pairs") == 4
            assert obs.counter("features.requests") == 2
        assert computed == [4, len(pairs) - 4]
        fresh = self._request(FeatureStore(), "esde:SA", names, pairs, [])
        assert grown.tobytes() == fresh.tobytes()


class TestStoreForTask:
    def test_same_task_shares_a_store(self, small_task):
        assert store_for_task(small_task) is store_for_task(small_task)
