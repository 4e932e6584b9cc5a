"""Vectorized set-similarity kernels over interned token/q-gram sets.

The paper's difficulty measures and linear matchers all reduce to the
same primitive: set cosine / Dice / Jaccard / overlap between the token
(or character q-gram) sets of the two records of a candidate pair.
Computing them one pair at a time in Python is the dominant cost of a
sweep. This module batches the primitive:

* a :class:`TokenInterner` maps feature strings (tokens) to dense
  integer ids, so each record's set becomes a **sorted int64 id array**
  built exactly once;
* q-grams never touch Python dicts: a per-plane :class:`CharTable`
  assigns dense character ids and a :class:`QGramCodec` packs each
  window's q ids into one content-derived int64 code, so whole record
  batches are encoded with a handful of array ops
  (:class:`QGramAlphabetOverflow` falls a view back to dict interning);
* an :class:`IncrementalIncidence` holds one view's records as an
  append-only CSR structure (``indptr`` + flat dense ``ids``, one row per
  record): :meth:`IncrementalIncidence.append_rows` maps a batch of raw
  codes to dense ids through a :class:`CodeTable` and deduplicates every
  row in one key sort, and :func:`gather_csr` selects the pair sides of
  a batch as :class:`PackedRows`;
* :func:`batch_intersection_counts` computes every pair's intersection
  size in one pass — each (row, id) incidence is folded into a single
  integer key ``row * vocab_size + id``; both key arrays are already
  globally sorted, so a binary-search membership plus a bincount of the
  matched rows recovers per-pair counts without any re-sort;
* the measure kernels reproduce the scalar formulas of
  :mod:`repro.text.similarity` **bit for bit** (same operand order, same
  empty-set conventions), so the vectorized path is provably
  interchangeable with the per-pair oracle — enforced by the parity
  tests in ``tests/matchers/test_feature_parity.py``.

Every batch increments the ``kernel.*`` metrics (``kernel.batches``,
``kernel.pairs``, the ``kernel.seconds`` timer); callers that memoize
results must therefore memoize *above* this module so the counters track
physical work exactly.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence, Set
from dataclasses import dataclass

import numpy as np

from repro import obs

#: Version of the kernel semantics; folded into the feature store's memo
#: digest chain so changing a formula invalidates memoized matrices.
KERNEL_VERSION = 1

#: Canonical order of the set-measure trio used by the ESDE extractors
#: ("cs", "ds", "js") and, with overlap appended, by Magellan.
SET_MEASURES: tuple[str, ...] = ("cosine", "dice", "jaccard")


class TokenInterner:
    """Dense integer ids for feature keys, assigned on first sight.

    Keys are any hashables: token views intern the token strings
    themselves, and q-gram views that overflowed their
    :class:`QGramCodec` intern gram strings as the always-correct
    fallback.
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids: dict[object, int] = {}

    def __len__(self) -> int:
        return len(self._ids)

    def intern(self, feature) -> int:
        """The id of *feature*, allocating the next dense id if new."""
        ids = self._ids
        index = ids.get(feature)
        if index is None:
            index = len(ids)
            ids[feature] = index
        return index

    def encode_set(self, features: Set) -> np.ndarray:
        """One record's feature set as a sorted int64 id array."""
        row = np.fromiter(
            (self.intern(feature) for feature in features),
            dtype=np.int64,
            count=len(features),
        )
        row.sort()
        return row


@dataclass(frozen=True)
class PackedRows:
    """CSR-style incidence: row ``i`` is ``ids[indptr[i]:indptr[i+1]]``.

    Rows hold sorted, duplicate-free feature ids (one row per record of
    one side of a pair batch).
    """

    indptr: np.ndarray  # (n_rows + 1,) int64
    ids: np.ndarray  # (nnz,) int64

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    def sizes(self) -> np.ndarray:
        """Set cardinality per row, as int64."""
        return np.diff(self.indptr)

    def row(self, index: int) -> np.ndarray:
        return self.ids[self.indptr[index] : self.indptr[index + 1]]

    def pair_keys(self, vocab_size: int) -> np.ndarray:
        """Each (row, id) incidence folded into ``row * vocab_size + id``.

        Within one batch the keys are unique (rows are sets), so two
        sides can be intersected with ``assume_unique=True``.
        """
        rows = np.repeat(
            np.arange(self.n_rows, dtype=np.int64) * vocab_size, self.sizes()
        )
        return rows + self.ids


_EMPTY_ROW = np.empty(0, dtype=np.int64)


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values via sort + neighbor mask.

    ``np.unique`` without ``return_inverse`` takes a hash-based path that
    is several times slower than a plain sort for the int64 arrays of
    this module; this helper stays on the sort path.
    """
    if len(values) == 0:
        return values
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


class QGramAlphabetOverflow(RuntimeError):
    """A text plane's alphabet outgrew a codec's per-character bit budget."""


class CharTable:
    """Dense integer ids (from 1) for Unicode code points, grown on sight.

    One table per text plane (one attribute, or the schema-agnostic full
    text), shared by every q-gram length over that plane, so a record's
    characters are mapped exactly once. Ids start at 1: id 0 is the
    implicit zero-padding of short-string codes in :class:`QGramCodec`,
    which keeps them distinct from every full-width q-gram code.
    """

    __slots__ = ("_chars", "_ids")

    def __init__(self) -> None:
        self._chars = np.empty(0, dtype=np.uint32)  # sorted code points
        self._ids = np.empty(0, dtype=np.int64)  # dense id per sorted char

    def __len__(self) -> int:
        return len(self._chars)

    def map(self, codepoints: np.ndarray) -> np.ndarray:
        """Dense int64 id per code point, interning unseen characters."""
        if len(codepoints) == 0:
            return _EMPTY_ROW
        table = self._chars
        if len(table):
            positions = np.searchsorted(table, codepoints)
            positions[positions == len(table)] = 0
            missing = table[positions] != codepoints
        else:
            missing = np.ones(len(codepoints), dtype=bool)
        if missing.any():
            new_chars = _sorted_unique(codepoints[missing])
            new_ids = np.arange(
                len(self._chars) + 1,
                len(self._chars) + 1 + len(new_chars),
                dtype=np.int64,
            )
            merged_chars = np.concatenate([self._chars, new_chars])
            merged_ids = np.concatenate([self._ids, new_ids])
            order = np.argsort(merged_chars, kind="stable")
            self._chars = merged_chars[order]
            self._ids = merged_ids[order]
            positions = np.searchsorted(self._chars, codepoints)
        return self._ids[positions]


class QGramCodec:
    """Stable, injective int64 codes for the q-grams of one text plane.

    A q-gram's code packs its q character ids (from a shared
    :class:`CharTable`) at ``bits = 63 // q`` bits each, so the code is
    *content-derived*: the same gram always yields the same code, across
    batches and record orders, without a per-gram vocabulary — the
    Python-level interning that otherwise costs O(total windows) for
    large q, where nearly every window is unique. Short strings (the
    ``qgrams()`` whole-string convention) pack their ``< q`` ids the same
    way; their zero-padded high positions cannot collide with full grams
    because character ids start at 1.

    The packing is injective while the plane's alphabet fits the bit
    budget; :meth:`encode` raises :class:`QGramAlphabetOverflow` once it
    does not (e.g. ideographic text under large q), and the caller falls
    back to dict interning for that view.
    """

    __slots__ = ("q", "bits", "chars")

    def __init__(self, q: int, chars: CharTable) -> None:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.q = q
        self.bits = max(63 // q, 1)
        self.chars = chars

    @property
    def capacity(self) -> int:
        """Distinct characters the bit budget can hold (id 0 is reserved)."""
        return (1 << self.bits) - 1

    def encode(self, char_rows: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Raw window codes per row of character ids, in window order.

        Codes for all rows are built by q shifted gathers over the
        concatenated batch. Rows are **not** deduplicated or sorted here
        — codes are content-derived, so
        :meth:`IncrementalIncidence.append_rows` dedups every row in the
        same pass that maps codes to dense ids, saving a sort per row.
        """
        if len(self.chars) > self.capacity:
            raise QGramAlphabetOverflow(
                f"{len(self.chars)} distinct characters exceed the "
                f"{self.capacity}-character budget of q={self.q}"
            )
        q, bits = self.q, self.bits
        n = len(char_rows)
        rows: list[np.ndarray] = [_EMPTY_ROW] * n
        if n == 0:
            return rows
        lengths = np.fromiter(
            (len(row) for row in char_rows), dtype=np.int64, count=n
        )
        if not lengths.any():
            return rows
        flat = np.concatenate(char_rows)
        offsets = np.zeros(n, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])

        # Short rows (< q chars): one zero-padded code each, built by L
        # shifted gathers per distinct length L — a handful of rows.
        short_index = np.flatnonzero((lengths > 0) & (lengths < q))
        if len(short_index):
            for length in np.unique(lengths[short_index]).tolist():
                group = short_index[lengths[short_index] == length]
                codes = np.zeros(len(group), dtype=np.int64)
                for position in range(length):
                    codes = (codes << bits) | flat[offsets[group] + position]
                for where, index in enumerate(group.tolist()):
                    rows[index] = codes[where : where + 1]

        long_index = np.flatnonzero(lengths >= q)
        if not len(long_index):
            return rows
        window_counts = lengths[long_index] - q + 1  # all >= 1
        # Valid window starts stay inside their own row, so no separator
        # padding is needed: start = row offset + local window position.
        first = np.zeros(len(long_index) + 1, dtype=np.int64)
        np.cumsum(window_counts, out=first[1:])
        total = int(first[-1])
        local = np.arange(total, dtype=np.int64) - np.repeat(
            first[:-1], window_counts
        )
        starts = np.repeat(offsets[long_index], window_counts) + local
        codes = np.zeros(total, dtype=np.int64)
        for position in range(q):
            codes = (codes << bits) | flat[starts + position]

        bounds = first.tolist()
        for where, index in enumerate(long_index.tolist()):
            rows[index] = codes[bounds[where] : bounds[where + 1]]
        return rows


def gather_csr(
    indptr: np.ndarray, ids: np.ndarray, rows: np.ndarray
) -> PackedRows:
    """Select *rows* of a CSR structure into :class:`PackedRows`.

    The pure-numpy CSR row gather: no per-row Python, so assembling the
    pair sides of a batch from per-record rows costs two array gathers
    even when thousands of pairs repeat the same records.
    """
    sizes = indptr[rows + 1] - indptr[rows]
    out_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(sizes, out=out_indptr[1:])
    total = int(out_indptr[-1])
    if total == 0:
        return PackedRows(indptr=out_indptr, ids=_EMPTY_ROW)
    take = np.repeat(indptr[rows], sizes) + (
        np.arange(total, dtype=np.int64) - np.repeat(out_indptr[:-1], sizes)
    )
    return PackedRows(indptr=out_indptr, ids=ids[take])


def batch_intersection_counts(
    left: PackedRows, right: PackedRows, vocab_size: int
) -> np.ndarray:
    """``|left[i] & right[i]|`` for every row pair, as int64.

    ``vocab_size`` must exceed every id in either side (the interner's
    ``len`` after encoding both sides). Both key arrays are globally
    sorted by construction (sorted rows, row-major fold), so membership
    is a binary search of the left keys in the right keys — no re-sort.
    """
    if left.n_rows != right.n_rows:
        raise ValueError(
            f"row count mismatch: {left.n_rows} vs {right.n_rows}"
        )
    n_pairs = left.n_rows
    if n_pairs == 0 or len(left.ids) == 0 or len(right.ids) == 0:
        return np.zeros(n_pairs, dtype=np.int64)
    left_keys = left.pair_keys(vocab_size)
    right_keys = right.pair_keys(vocab_size)
    positions = np.searchsorted(right_keys, left_keys)
    # Clamped probes cannot false-match: a left key beyond the right
    # maximum is strictly greater than right_keys[0].
    positions[positions == len(right_keys)] = 0
    matched = right_keys[positions] == left_keys
    row_of = np.repeat(np.arange(n_pairs, dtype=np.int64), left.sizes())
    return np.bincount(row_of[matched], minlength=n_pairs)


#: Signature value of an empty feature set: no hash can reach the uint64
#: maximum through the odd-multiplier family below, so empty rows never
#: spuriously collide with real minima.
EMPTY_SIGNATURE = np.uint64(0xFFFFFFFFFFFFFFFF)


def minhash_params(
    n_hashes: int, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(a, b)`` multiply-shift hash family for *n_hashes* functions.

    Deterministic in ``(n_hashes, seed)``; ``a`` is odd so every
    ``h_j(x) = (a_j * x + b_j) mod 2**64`` is a bijection on uint64.
    """
    if n_hashes < 1:
        raise ValueError(f"n_hashes must be >= 1, got {n_hashes}")
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 63, size=n_hashes, dtype=np.uint64) * np.uint64(
        2
    ) + np.uint64(1)
    b = rng.integers(0, 1 << 63, size=n_hashes, dtype=np.uint64)
    return a, b


def minhash_signatures(
    rows: Sequence[np.ndarray], n_hashes: int, seed: int = 0
) -> np.ndarray:
    """``(n_rows, n_hashes)`` uint64 minhash signatures over code rows.

    *rows* are int64 feature-code arrays — raw :class:`QGramCodec` window
    codes (duplicates and order are irrelevant to a minimum) or interned
    token ids. Two rows agree on one signature column with probability
    equal to their Jaccard similarity, which is what LSH banding
    (:mod:`repro.blocking.ann`) exploits. Empty rows get
    :data:`EMPTY_SIGNATURE` in every column, so they never become
    candidates. The whole batch is ``n_hashes`` vectorized passes over
    the concatenated codes — no per-row Python.
    """
    a, b = minhash_params(n_hashes, seed)
    n_rows = len(rows)
    signatures = np.full((n_rows, n_hashes), EMPTY_SIGNATURE, dtype=np.uint64)
    if n_rows == 0:
        return signatures
    sizes = np.fromiter(
        (len(row) for row in rows), dtype=np.int64, count=n_rows
    )
    if not sizes.any():
        return signatures
    flat = np.concatenate(rows).astype(np.uint64)
    offsets = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    nonempty = np.flatnonzero(sizes > 0)
    # Segments of consecutive non-empty rows tile the flat array exactly
    # (empty rows contribute nothing), so one reduceat per hash yields
    # every row's minimum.
    starts = offsets[nonempty]
    with np.errstate(over="ignore"):
        for column in range(n_hashes):
            hashed = a[column] * flat + b[column]
            signatures[nonempty, column] = np.minimum.reduceat(hashed, starts)
    return signatures


def band_keys(signatures: np.ndarray, bands: int) -> np.ndarray:
    """``(n_rows, bands)`` uint64 bucket keys by FNV-folding band slices.

    The signature width must divide evenly into *bands* (``rows = width
    // bands`` minhash values per band). Two records land in the same
    bucket of band ``j`` exactly when their signatures agree on all of
    that band's rows (modulo the negligible 64-bit fold collision rate).
    """
    n_hashes = signatures.shape[1]
    if bands < 1 or n_hashes % bands:
        raise ValueError(
            f"bands must divide the signature width ({n_hashes}), got {bands}"
        )
    rows_per_band = n_hashes // bands
    folded = np.full(
        (len(signatures), bands), np.uint64(0xCBF29CE484222325), dtype=np.uint64
    )
    prime = np.uint64(0x100000001B3)
    with np.errstate(over="ignore"):
        for position in range(rows_per_band):
            folded = (
                folded ^ signatures[:, position::rows_per_band]
            ) * prime
    return folded


# -- measure kernels ---------------------------------------------------------
#
# Each kernel mirrors its scalar twin in repro.text.similarity exactly:
# intersection and cardinalities are exact int64 (< 2**53, so their
# float64 conversions are exact), np.sqrt and math.sqrt are both
# correctly rounded, and the operand order of every expression matches
# the scalar source. Pairs failing the scalar guard clauses get 0.0
# through the mask, like the early returns.


def _cosine(inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    out = np.zeros(len(inter), dtype=np.float64)
    mask = (size_a > 0) & (size_b > 0)
    out[mask] = inter[mask] / np.sqrt(size_a[mask] * size_b[mask])
    return out


def _dice(inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    out = np.zeros(len(inter), dtype=np.float64)
    mask = (size_a > 0) & (size_b > 0)
    out[mask] = 2.0 * inter[mask] / (size_a[mask] + size_b[mask])
    return out


def _jaccard(inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    out = np.zeros(len(inter), dtype=np.float64)
    union = size_a + size_b - inter
    mask = union > 0
    out[mask] = inter[mask] / union[mask]
    return out


def _overlap(inter: np.ndarray, size_a: np.ndarray, size_b: np.ndarray) -> np.ndarray:
    out = np.zeros(len(inter), dtype=np.float64)
    mask = (size_a > 0) & (size_b > 0)
    out[mask] = inter[mask] / np.minimum(size_a[mask], size_b[mask])
    return out


_MEASURE_KERNELS = {
    "cosine": _cosine,
    "dice": _dice,
    "jaccard": _jaccard,
    "overlap": _overlap,
}


def _resolve_kernels(measures: Iterable[str]) -> list:
    kernels = []
    for name in measures:
        kernel = _MEASURE_KERNELS.get(name)
        if kernel is None:
            raise KeyError(
                f"unknown set measure {name!r}; known: "
                f"{sorted(_MEASURE_KERNELS)}"
            )
        kernels.append(kernel)
    return kernels


def set_similarity_matrix_indexed(
    incidence: IncrementalIncidence,
    left_index: np.ndarray,
    right_index: np.ndarray,
    measures: Iterable[str] = SET_MEASURES,
) -> np.ndarray:
    """Similarity matrix for pairs given as record-row index arrays.

    The hot entry point of the feature store: the per-record incidence
    grows once per record, and each batch costs only index gathers plus
    the merge intersection pass. Emits the ``kernel.*`` metrics for
    exactly one batch.
    """
    kernels = _resolve_kernels(measures)

    started = time.perf_counter()
    n_pairs = len(left_index)
    matrix = np.empty((n_pairs, len(kernels)), dtype=np.float64)
    if n_pairs:
        inter = incidence.intersections(left_index, right_index)
        row_sizes = incidence.row_sizes
        size_left = row_sizes[left_index]
        size_right = row_sizes[right_index]
        for column, kernel in enumerate(kernels):
            matrix[:, column] = kernel(inter, size_left, size_right)
    elapsed = time.perf_counter() - started

    obs.inc("kernel.batches")
    obs.inc("kernel.pairs", float(n_pairs))
    obs.observe("kernel.seconds", elapsed)
    return matrix


# -- the record incidence ----------------------------------------------------


class CodeTable:
    """Dense integer ids (from 0) for arbitrary int64 codes, grown on sight.

    The :class:`CharTable` idiom generalized to the full code space of a
    :class:`QGramCodec` (or any interner's ids): codes map to dense ids
    in first-sight order, and interning more codes never changes an id
    already assigned — the append invariant every incremental index
    builds on. Set intersections are id-scheme-invariant, so similarity
    results are bit-identical to a sorted-rank (``np.unique``) mapping.
    """

    __slots__ = ("_codes", "_ids")

    def __init__(self) -> None:
        self._codes = np.empty(0, dtype=np.int64)  # sorted known codes
        self._ids = np.empty(0, dtype=np.int64)  # dense id per sorted code

    def __len__(self) -> int:
        return len(self._codes)

    def intern(self, codes: np.ndarray) -> np.ndarray:
        """Dense int64 id per code, interning unseen codes in sorted order."""
        if len(codes) == 0:
            return _EMPTY_ROW
        codes = np.asarray(codes, dtype=np.int64)
        table = self._codes
        if len(table):
            positions = np.searchsorted(table, codes)
            positions[positions == len(table)] = 0
            missing = table[positions] != codes
        else:
            missing = np.ones(len(codes), dtype=bool)
        if missing.any():
            new_codes = _sorted_unique(codes[missing])
            new_ids = np.arange(
                len(self._codes),
                len(self._codes) + len(new_codes),
                dtype=np.int64,
            )
            merged_codes = np.concatenate([self._codes, new_codes])
            merged_ids = np.concatenate([self._ids, new_ids])
            order = np.argsort(merged_codes, kind="stable")
            self._codes = merged_codes[order]
            self._ids = merged_ids[order]
            positions = np.searchsorted(self._codes, codes)
        return self._ids[positions]

    def intern_rows(
        self, raw_rows: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, counts)``: each row's sorted distinct dense ids, back to
        back, and how many each row has.

        The whole batch is mapped at once: one argsort of the
        concatenated codes yields the batch's distinct codes and each
        code's rank among them, one :meth:`intern` call gives the
        distinct codes their dense ids, and one sort of
        ``row * vocab + id`` keys dedups and orders every row.
        """
        n_rows = len(raw_rows)
        lengths = np.fromiter(
            (len(row) for row in raw_rows), dtype=np.int64, count=n_rows
        )
        if not lengths.any():
            return _EMPTY_ROW, np.zeros(n_rows, dtype=np.int64)
        codes = np.concatenate(raw_rows).astype(np.int64, copy=False)
        # Ranks come from the argsort itself: a searchsorted of the
        # unsorted codes would be a cache-hostile binary search each.
        order = np.argsort(codes)
        ordered = codes[order]
        first = np.empty(len(ordered), dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        rank = np.empty(len(codes), dtype=np.int64)
        rank[order] = np.cumsum(first) - 1
        dense = self.intern(ordered[first])[rank]
        vocab = len(self)
        row_of = np.repeat(np.arange(n_rows, dtype=np.int64), lengths)
        keys = _sorted_unique(row_of * vocab + dense)
        key_rows = keys // vocab
        return keys - key_rows * vocab, np.bincount(key_rows, minlength=n_rows)

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """Ids of the codes already interned (unseen codes are dropped)."""
        if len(codes) == 0 or len(self._codes) == 0:
            return _EMPTY_ROW
        codes = np.asarray(codes, dtype=np.int64)
        positions = np.searchsorted(self._codes, codes)
        positions[positions == len(self._codes)] = 0
        present = self._codes[positions] == codes
        return self._ids[positions[present]]


class IncrementalIncidence:
    """Append-only record × vocabulary incidence for pair intersections.

    The one incidence structure of every feature view, offline sweeps and
    serving alike. Raw code rows (q-gram codes or interner ids) append
    through a :class:`CodeTable` into CSR arrays with amortized-doubling
    growth, so a view that gains records extends in place and is never
    rebuilt. A batch of pairs is then just two row-index arrays:
    :func:`gather_csr` selects both sides and the exact
    :func:`batch_intersection_counts` merge counts them, in int64, so
    measure values are bit-identical to the scalar set functions.
    """

    __slots__ = ("_table", "_indptr", "_ids", "_n_rows", "appends")

    def __init__(self) -> None:
        self._table = CodeTable()
        self._indptr = np.zeros(1, dtype=np.int64)
        self._ids = np.empty(64, dtype=np.int64)
        self._n_rows = 0
        #: Row-append count (observability: a rebuild would reset it).
        self.appends = 0

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def vocab_size(self) -> int:
        return len(self._table)

    @property
    def row_sizes(self) -> np.ndarray:
        return np.diff(self._indptr[: self._n_rows + 1])

    def _reserve(self, extra_rows: int, extra_ids: int) -> None:
        needed = self._n_rows + 1 + extra_rows
        if needed > len(self._indptr):
            grown = np.empty(max(needed, 2 * len(self._indptr)), dtype=np.int64)
            grown[: self._n_rows + 1] = self._indptr[: self._n_rows + 1]
            self._indptr = grown
        fill = int(self._indptr[self._n_rows])
        if fill + extra_ids > len(self._ids):
            grown = np.empty(
                max(fill + extra_ids, 2 * len(self._ids)), dtype=np.int64
            )
            grown[:fill] = self._ids[:fill]
            self._ids = grown

    def append_rows(self, raw_rows: Sequence[np.ndarray]) -> None:
        """Append one batch of raw code rows (duplicates allowed, any order).

        The whole batch is mapped at once by :meth:`CodeTable.intern_rows`.
        """
        n_new = len(raw_rows)
        if n_new == 0:
            return
        ids, counts = self._table.intern_rows(raw_rows)
        self._reserve(n_new, len(ids))
        fill = int(self._indptr[self._n_rows])
        self._ids[fill : fill + len(ids)] = ids
        np.cumsum(
            counts, out=self._indptr[self._n_rows + 1 : self._n_rows + 1 + n_new]
        )
        self._indptr[self._n_rows + 1 : self._n_rows + 1 + n_new] += fill
        self._n_rows += n_new
        self.appends += n_new

    def intersections(
        self, left_index: np.ndarray, right_index: np.ndarray
    ) -> np.ndarray:
        """``|row[left_index[i]] & row[right_index[i]]|`` per pair."""
        if len(left_index) == 0 or self._indptr[self._n_rows] == 0:
            return np.zeros(len(left_index), dtype=np.int64)
        indptr = self._indptr[: self._n_rows + 1]
        ids = self._ids[: int(indptr[-1])]
        left = gather_csr(indptr, ids, np.asarray(left_index, dtype=np.int64))
        right = gather_csr(indptr, ids, np.asarray(right_index, dtype=np.int64))
        return batch_intersection_counts(
            left, right, max(len(self._table), 1)
        )
