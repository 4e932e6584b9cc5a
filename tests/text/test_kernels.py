"""Unit tests for the vectorized set-similarity kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.data.pairs import RecordPair
from repro.obs import Observability
from repro.text.feature_store import FeatureStore
from repro.text.kernels import (
    CharTable,
    IncrementalIncidence,
    PackedRows,
    QGramAlphabetOverflow,
    QGramCodec,
    TokenInterner,
    batch_intersection_counts,
    gather_csr,
    set_similarity_matrix_indexed,
)
from repro.text.similarity import (
    cosine_similarity,
    dice_similarity,
    jaccard_similarity,
    overlap_coefficient,
)
from repro.text.tokenize import qgrams
from tests.conftest import make_record


def _random_sets(rng, n, vocab, max_size=12):
    return [
        set(rng.choice(vocab, size=int(rng.integers(0, max_size)), replace=False).tolist())
        for __ in range(n)
    ]


def _pack(rows):
    """Sorted id rows stacked into one :class:`PackedRows`."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    ids = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return PackedRows(indptr=indptr, ids=ids.astype(np.int64))


def _incidence(rows):
    """An :class:`IncrementalIncidence` over *rows*, appended as one batch."""
    incidence = IncrementalIncidence()
    incidence.append_rows([np.asarray(row, dtype=np.int64) for row in rows])
    return incidence


def _stored_rows(incidence):
    """Each row of *incidence* as a list of dense ids."""
    indptr = incidence._indptr[: incidence.n_rows + 1]
    return [
        incidence._ids[indptr[row] : indptr[row + 1]].tolist()
        for row in range(incidence.n_rows)
    ]


class TestTokenInterner:
    def test_dense_ids_in_first_sight_order(self):
        interner = TokenInterner()
        assert interner.intern("b") == 0
        assert interner.intern("a") == 1
        assert interner.intern("b") == 0
        assert len(interner) == 2

    def test_encode_set_is_sorted(self):
        interner = TokenInterner()
        row = interner.encode_set({"z", "a", "m"})
        assert row.dtype == np.int64
        assert list(row) == sorted(row)
        assert len(row) == 3

    def test_encode_empty_set(self):
        assert len(TokenInterner().encode_set(set())) == 0


class TestPackedRows:
    def test_pair_keys_fold(self):
        packed = _pack(
            [np.array([1, 2], dtype=np.int64), np.array([0], dtype=np.int64)]
        )
        assert list(packed.pair_keys(10)) == [1, 2, 10]


class TestCharTable:
    def test_ids_start_at_one_and_stay_stable(self):
        table = CharTable()
        first = table.map(np.frombuffer("abc".encode("utf-32-le"), dtype=np.uint32))
        assert first.min() >= 1
        again = table.map(np.frombuffer("cba".encode("utf-32-le"), dtype=np.uint32))
        assert set(first.tolist()) == set(again.tolist())
        assert np.array_equal(first[::-1], again)

    def test_growth_preserves_existing_ids(self):
        table = CharTable()
        before = table.map(np.frombuffer("ab".encode("utf-32-le"), dtype=np.uint32))
        table.map(np.frombuffer("xyz".encode("utf-32-le"), dtype=np.uint32))
        after = table.map(np.frombuffer("ab".encode("utf-32-le"), dtype=np.uint32))
        assert np.array_equal(before, after)
        assert len(table) == 5

    def test_empty_input(self):
        assert len(CharTable().map(np.empty(0, dtype=np.uint32))) == 0


def _codec_sets(codec, table, texts):
    """Distinct-code sets per text, via the raw encode + set()."""
    rows = codec.encode(
        [
            table.map(np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32))
            for t in texts
        ]
    )
    return [set(row.tolist()) for row in rows]


class TestQGramCodec:
    @pytest.mark.parametrize("q", [2, 3, 5, 10])
    def test_distinct_codes_match_qgrams(self, q):
        texts = [
            "record linkage benchmarks",
            "aaaaaa",
            "ab",
            "",
            "matching algorithms at scale",
        ]
        table = CharTable()
        codec = QGramCodec(q, table)
        for text, codes in zip(texts, _codec_sets(codec, table, texts)):
            assert len(codes) == len(qgrams(text, q))

    def test_codes_are_content_derived_across_batches(self):
        table = CharTable()
        codec = QGramCodec(3, table)
        first = _codec_sets(codec, table, ["benchmark"])[0]
        # New characters join the table between the two batches.
        _codec_sets(codec, table, ["zzz qqq xxx"])
        second = _codec_sets(codec, table, ["benchmark"])[0]
        assert first == second

    def test_equal_grams_share_codes_across_texts(self):
        table = CharTable()
        codec = QGramCodec(2, table)
        left, right = _codec_sets(codec, table, ["abcd", "bcde"])
        # Shared 2-grams: "bc", "cd".
        assert len(left & right) == 2

    def test_short_string_padding_never_collides(self):
        # A short string's zero-padded code must differ from every full
        # q-gram code (character ids start at 1).
        table = CharTable()
        codec = QGramCodec(3, table)
        short, full = _codec_sets(codec, table, ["ab", "aabb"])
        assert not short & full

    def test_alphabet_overflow_raises(self):
        table = CharTable()
        # q=10 -> 6 bits -> at most 63 distinct characters.
        codec = QGramCodec(10, table)
        assert codec.capacity == 63
        alphabet = "".join(chr(0x100 + i) for i in range(codec.capacity + 1))
        with pytest.raises(QGramAlphabetOverflow):
            _codec_sets(codec, table, [alphabet])

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramCodec(0, CharTable())

    def test_empty_batch(self):
        assert QGramCodec(2, CharTable()).encode([]) == []


class TestAppendRows:
    def test_dedups_and_sorts_rows(self):
        incidence = _incidence(
            [[900, 100, 900, 500], [], [500, 500]]
        )
        assert incidence.vocab_size == 3  # {100, 500, 900}
        assert list(incidence._indptr[:4]) == [0, 3, 3, 4]
        assert _stored_rows(incidence) == [[0, 1, 2], [], [1]]

    def test_rank_order_matches_code_order(self):
        # Within one batch, new codes get dense ids in code order.
        incidence = _incidence([[7, -5, 1_000_000_000_000]])
        assert _stored_rows(incidence) == [[0, 1, 2]]

    def test_ids_survive_later_batches(self):
        incidence = _incidence([[40, 10]])
        incidence.append_rows([np.array([5, 40, 99], dtype=np.int64)])
        # 10 and 40 keep ids 0 and 1; the batch's new codes 5 and 99
        # follow in code order.
        assert _stored_rows(incidence) == [[0, 1], [1, 2, 3]]
        assert incidence.appends == 2

    def test_empty_inputs(self):
        incidence = IncrementalIncidence()
        incidence.append_rows([])
        assert incidence.n_rows == 0 and incidence.vocab_size == 0
        incidence.append_rows([np.empty(0, dtype=np.int64)])
        assert incidence.n_rows == 1 and incidence.vocab_size == 0
        assert list(incidence.row_sizes) == [0]


class TestGatherCsr:
    def test_matches_per_row_slicing(self):
        rng = np.random.default_rng(1)
        rows = [
            np.sort(rng.choice(50, size=int(rng.integers(0, 8)), replace=False)).astype(np.int64)
            for __ in range(20)
        ]
        packed = _pack(rows)
        pick = rng.integers(0, 20, size=37)
        gathered = gather_csr(packed.indptr, packed.ids, pick)
        for out_row, source in enumerate(pick):
            assert np.array_equal(gathered.row(out_row), rows[source])

    def test_empty_selection(self):
        packed = _pack([np.array([1], dtype=np.int64)])
        gathered = gather_csr(packed.indptr, packed.ids, np.empty(0, dtype=np.int64))
        assert gathered.n_rows == 0


class TestBatchIntersections:
    def test_randomized_against_python_sets(self):
        rng = np.random.default_rng(2)
        vocab = 40
        lefts = _random_sets(rng, 60, vocab)
        rights = _random_sets(rng, 60, vocab)
        left = _pack([np.array(sorted(s), dtype=np.int64) for s in lefts])
        right = _pack([np.array(sorted(s), dtype=np.int64) for s in rights])
        counts = batch_intersection_counts(left, right, vocab)
        expected = [len(a & b) for a, b in zip(lefts, rights)]
        assert list(counts) == expected

    def test_row_mismatch_raises(self):
        one = _pack([np.array([0], dtype=np.int64)])
        two = _pack([np.array([0], dtype=np.int64)] * 2)
        with pytest.raises(ValueError):
            batch_intersection_counts(one, two, 5)

    def test_empty_sides(self):
        left = _pack([np.empty(0, dtype=np.int64)] * 3)
        right = _pack([np.array([1], dtype=np.int64)] * 3)
        assert list(batch_intersection_counts(left, right, 5)) == [0, 0, 0]


class TestRecordIncidence:
    """The one record incidence, :class:`IncrementalIncidence`."""

    @pytest.mark.parametrize("vocab", [64, 4097])
    def test_matches_python_sets(self, vocab):
        rng = np.random.default_rng(3)
        sets = _random_sets(rng, 30, vocab)
        incidence = _incidence([sorted(s) for s in sets])
        left_index = rng.integers(0, 30, size=100)
        right_index = rng.integers(0, 30, size=100)
        counts = incidence.intersections(left_index, right_index)
        expected = [
            len(sets[a] & sets[b]) for a, b in zip(left_index, right_index)
        ]
        assert list(counts) == expected

    def test_empty_incidence(self):
        incidence = _incidence([[]])
        assert list(incidence.intersections(np.array([0]), np.array([0]))) == [0]


_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
#: Raw code rows: empty rows, duplicate codes (few distinct values per
#: row) and codes across the full int64 range.
_RAW_ROWS = st.lists(
    st.one_of(
        st.lists(st.sampled_from([-(2**63), -1, 0, 1, 2**63 - 1, 7]), max_size=6),
        st.lists(_INT64, max_size=6),
    ),
    min_size=1,
    max_size=12,
)


class TestAppendProperties:
    @settings(max_examples=60, deadline=None)
    @given(rows=_RAW_ROWS, cuts=st.lists(st.integers(0, 12), max_size=4))
    def test_any_batch_split_gives_python_set_intersections(self, rows, cuts):
        incidence = IncrementalIncidence()
        bounds = sorted({0, len(rows), *(min(cut, len(rows)) for cut in cuts)})
        for begin, end in zip(bounds, bounds[1:]):
            incidence.append_rows(
                [np.array(row, dtype=np.int64) for row in rows[begin:end]]
            )
        n = len(rows)
        assert incidence.n_rows == n
        left, right = np.divmod(np.arange(n * n, dtype=np.int64), n)
        sets = [set(row) for row in rows]
        assert incidence.intersections(left, right).tolist() == [
            len(sets[a] & sets[b]) for a, b in zip(left.tolist(), right.tolist())
        ]
        assert incidence.row_sizes.tolist() == [len(s) for s in sets]

    @settings(max_examples=25, deadline=None)
    @given(
        texts=st.lists(
            st.one_of(
                st.text(alphabet="abcde ", max_size=14),
                # 80 ideographs outgrow q=10's 63-character budget.
                st.just("".join(chr(0x4E00 + i) for i in range(80))),
            ),
            min_size=1,
            max_size=8,
        ),
        cuts=st.lists(st.integers(0, 8), max_size=3),
    )
    def test_store_batches_and_codec_overflow(self, texts, cuts):
        # Records reach the store in batches; a wide-alphabet record
        # overflows the q=10 codec and re-interns the view, whose
        # incidence must then still give exact intersections.
        view = ("qgrams", None, 10)
        records = [
            make_record(f"r{i}", "left", name=text) for i, text in enumerate(texts)
        ]
        store = FeatureStore()
        bounds = sorted({0, len(records), *(min(c, len(records)) for c in cuts)})
        for end in bounds[1:]:
            seen = records[:end]
            store.set_similarities(
                [RecordPair(a, b) for a in seen for b in seen], view
            )
        positions, incidence = store._incidence(view)
        sets = [FeatureStore._extract(record, view) for record in records]
        rows = np.array(
            [positions[(r.source, r.record_id)] for r in records], dtype=np.int64
        )
        n = len(records)
        left, right = np.divmod(np.arange(n * n, dtype=np.int64), n)
        assert incidence.intersections(rows[left], rows[right]).tolist() == [
            len(sets[a] & sets[b]) for a, b in zip(left.tolist(), right.tolist())
        ]


class TestMeasureKernels:
    def test_matrix_matches_scalar_measures(self):
        rng = np.random.default_rng(4)
        vocab = 25
        lefts = _random_sets(rng, 50, vocab) + [set(), set()]
        rights = _random_sets(rng, 50, vocab) + [set(), {1, 2}]
        measures = ("cosine", "dice", "jaccard", "overlap")
        scalar_fns = (
            cosine_similarity,
            dice_similarity,
            jaccard_similarity,
            overlap_coefficient,
        )
        incidence = _incidence([sorted(s) for s in lefts + rights])
        n = len(lefts)
        matrix = set_similarity_matrix_indexed(
            incidence, np.arange(n), np.arange(n, 2 * n), measures
        )
        for row, (a, b) in enumerate(zip(lefts, rights)):
            for column, fn in enumerate(scalar_fns):
                assert matrix[row, column] == fn(a, b)

    def test_unknown_measure_raises(self):
        with pytest.raises(KeyError):
            set_similarity_matrix_indexed(
                IncrementalIncidence(),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                measures=("euclidean",),
            )

    def test_indexed_entry_emits_kernel_metrics(self):
        incidence = _incidence([[0, 1], [1]])
        with obs.use(Observability()):
            matrix = set_similarity_matrix_indexed(
                incidence, np.array([0]), np.array([1])
            )
            assert obs.counter("kernel.batches") == 1
            assert obs.counter("kernel.pairs") == 1
        assert matrix.shape == (1, 3)
        assert matrix[0, 2] == pytest.approx(0.5)  # jaccard {0,1} vs {1}
