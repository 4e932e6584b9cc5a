"""FeatureStore: encode-once views, batched similarities, disk cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data.pairs import RecordPair
from repro.obs import Observability
from repro.text.feature_store import (
    FeatureMatrixCache,
    FeatureStore,
    active_feature_cache,
    feature_cache_scope,
    set_feature_cache,
    store_for_task,
)
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

    def test_matrix_digest_sensitive_to_spec_names_and_order(self):
        store = FeatureStore()
        pairs = _pairs()
        base = store.matrix_digest("esde:SA", ["f0"], pairs)
        assert base == store.matrix_digest("esde:SA", ["f0"], pairs)
        assert base != store.matrix_digest("esde:SB", ["f0"], pairs)
        assert base != store.matrix_digest("esde:SA", ["f1"], pairs)
        assert base != store.matrix_digest(
            "esde:SA", ["f0"], list(reversed(pairs))
        )


class TestDiskCache:
    def test_round_trip_is_byte_identical(self, tmp_path):
        cache = FeatureMatrixCache(tmp_path)
        store = FeatureStore()
        pairs = _pairs()
        compute_calls = []

        def compute():
            compute_calls.append(1)
            return store.set_similarities(pairs, ("tokens", None))

        with obs.use(Observability()), feature_cache_scope(cache):
            first = store.matrix("spec", pairs, ["a", "b", "c"], compute)
            assert obs.counter("features.cache_miss") == 1
            assert obs.counter("features.cache_write") == 1
            second = store.matrix("spec", pairs, ["a", "b", "c"], compute)
            assert obs.counter("features.cache_hit") == 1
            assert obs.counter("features.requests") == 2
            assert obs.counter("features.pairs") == 2 * len(pairs)
        assert len(compute_calls) == 1
        assert first.tobytes() == second.tobytes()

    def test_corrupt_envelope_quarantined_and_recomputed(self, tmp_path):
        cache = FeatureMatrixCache(tmp_path)
        store = FeatureStore()
        pairs = _pairs()
        compute = lambda: store.set_similarities(pairs, ("tokens", None))
        with obs.use(Observability()), feature_cache_scope(cache):
            first = store.matrix("spec", pairs, ["a", "b", "c"], compute)
            digest = store.matrix_digest("spec", ["a", "b", "c"], pairs)
            cache.path_for(digest).write_text("{corrupt", encoding="utf-8")
            second = store.matrix("spec", pairs, ["a", "b", "c"], compute)
            assert obs.counter("features.cache_quarantined") == 1
            # The recompute re-stored a fresh envelope; it loads cleanly.
            assert obs.counter("features.cache_write") == 2
            reloaded = cache.load(digest, ["a", "b", "c"])
        assert np.array_equal(first, second)
        assert reloaded is not None and np.array_equal(reloaded, first)

    def test_stale_kernel_version_misses(self, tmp_path):
        from repro.runtime.cache import read_envelope, write_envelope

        cache = FeatureMatrixCache(tmp_path)
        store = FeatureStore()
        pairs = _pairs()
        names = ["a", "b", "c"]
        compute = lambda: store.set_similarities(pairs, ("tokens", None))
        with feature_cache_scope(cache):
            store.matrix("spec", pairs, names, compute)
        digest = store.matrix_digest("spec", names, pairs)
        path = cache.path_for(digest)
        payload = read_envelope(path)
        payload["kernel_version"] = -1
        write_envelope(path, payload)
        with obs.use(Observability()):
            assert cache.load(digest, names) is None
            assert obs.counter("features.cache_miss") == 1
            assert obs.counter("features.cache_quarantined") == 0
        # Wrong names on an otherwise valid envelope also miss.
        payload["kernel_version"] = 1
        write_envelope(path, payload)
        with obs.use(Observability()):
            assert cache.load(digest, ["other"]) is None

    def test_uncacheable_requests_skip_the_cache(self, tmp_path):
        cache = FeatureMatrixCache(tmp_path)
        store = FeatureStore()
        pairs = _pairs()
        compute = lambda: store.set_similarities(pairs, ("tokens", None))
        with feature_cache_scope(cache):
            store.matrix("spec", pairs, ["a", "b", "c"], compute, cacheable=False)
        assert not list(tmp_path.iterdir())

    def test_scope_restores_previous_cache(self, tmp_path):
        outer = FeatureMatrixCache(tmp_path)
        previous = set_feature_cache(outer)
        try:
            with feature_cache_scope(None):
                assert active_feature_cache() is None
            assert active_feature_cache() is outer
        finally:
            set_feature_cache(previous)


class TestStoreForTask:
    def test_same_task_shares_a_store(self, small_task):
        assert store_for_task(small_task) is store_for_task(small_task)
