"""Vectorized similarity kernels: set measures over interned token/q-gram
sets, and edit measures over code-point matrices.

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
  tests in ``tests/matchers/test_feature_parity.py``;
* the edit kernels (:func:`levenshtein_similarities`,
  :func:`jaro_winkler_similarities`, :func:`monge_elkan_similarities`)
  batch Magellan's edit measures the same way, bit for bit against the
  scalar functions (``tests/text/test_edit_kernels.py``): Levenshtein as
  Myers'/Hyyrö's bit-parallel recurrence on ``uint64`` words, one step
  per text column across all pairs, Jaro-Winkler over a match-window
  tensor, Monge-Elkan over one Jaro-Winkler table of its token pairs.

Every batch increments the ``kernel.*`` metrics (``kernel.batches``,
``kernel.pairs``, the ``kernel.seconds`` timer); callers that memoize
results must therefore memoize *above* this module so the counters track
physical work exactly.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence, Set
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
    _count_batch(n_pairs, started)
    return matrix


def _count_batch(n_pairs: int, started: float) -> None:
    """The ``kernel.*`` metrics of one batch that began at *started*."""
    elapsed = time.perf_counter() - started
    obs.inc("kernel.batches")
    obs.inc("kernel.pairs", float(n_pairs))
    obs.observe("kernel.seconds", elapsed)


# -- edit-based kernels ------------------------------------------------------
#
# Batched twins of the Levenshtein, Jaro-Winkler and Monge-Elkan functions
# of repro.text.similarity, bit for bit: distances and match counts are
# exact integers, and every float expression keeps the scalar operand
# order. Strings become padded int32 code-point matrices (the two sides
# pad with different negative values, so padding never matches), and the
# pairs run in chunks of at most _EDIT_CHUNK_CELLS cells (about pairs x
# width x width, width being the chunk's longest string), so peak memory
# stays bounded however long one string is.

_EDIT_CHUNK_CELLS = 1 << 21
_LEFT_PAD = -1
_RIGHT_PAD = -2
_WORD_BITS = 64


def _string_lengths(strings: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))


def _edit_chunks(widths: np.ndarray, cells: Callable[[int], int]):
    """``(indices, width)`` chunks over *widths*, shortest first.

    A chunk of ``k`` pairs whose widest is ``width`` holds at most
    ``_EDIT_CHUNK_CELLS`` cells, ``k * cells(width)``, or is one pair.
    """
    order = np.argsort(widths, kind="stable")
    sorted_widths = widths[order]
    start, n = 0, len(order)
    while start < n:
        stop = n
        while True:
            cost = max(cells(int(sorted_widths[stop - 1])), 1)
            fit = max(1, _EDIT_CHUNK_CELLS // cost)
            if stop - start <= fit:
                break
            stop = start + fit
        yield order[start:stop], int(sorted_widths[stop - 1])
        start = stop


def _code_matrix(
    strings: Sequence[str], lengths: np.ndarray, width: int, pad: int
) -> np.ndarray:
    """``(len(strings), width)`` int32 code points, padded with *pad*."""
    matrix = np.full((len(strings), width), pad, dtype=np.int32)
    total = int(lengths.sum())
    if total:
        flat = np.frombuffer(
            "".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4"
        )
        starts = np.cumsum(lengths) - lengths
        rows = np.repeat(np.arange(len(strings)), lengths)
        columns = np.arange(total) - np.repeat(starts, lengths)
        matrix[rows, columns] = flat
    return matrix


def _levenshtein_chunk(
    patterns: np.ndarray, m: np.ndarray, texts: np.ndarray, n: np.ndarray
) -> np.ndarray:
    """Global edit distances by Myers'/Hyyrö's bit-parallel recurrence.

    Bit ``i`` of word ``b`` of a column's vertical delta vectors ``Pv`` /
    ``Mv`` says the DP cell at pattern row ``64 b + i + 1`` is one more /
    one less than the cell above it. One text column updates every pair's
    words at once; the horizontal delta carried out of a word's top bit
    feeds the next word, and row 0 always steps by +1 (``D[0][j] = j``).
    A pair's score is ``D[m][j]``, moved by the deltas at its row ``m``.
    """
    rows, width = patterns.shape
    n_words = max(1, -(-width // _WORD_BITS))
    padded = np.full((rows, n_words * _WORD_BITS), _LEFT_PAD, dtype=np.int32)
    padded[:, :width] = patterns
    # peq[:, j, b]: the pattern positions of word b equal to text char j.
    peq = np.packbits(
        texts[:, :, None] == padded[:, None, :], axis=2, bitorder="little"
    ).view("<u8")
    last_word = np.maximum(m - 1, 0) // _WORD_BITS
    top = np.zeros((rows, n_words), dtype=np.uint64)
    top[np.arange(rows), last_word] = np.left_shift(
        np.uint64(1), (np.maximum(m - 1, 0) % _WORD_BITS).astype(np.uint64)
    )
    top[m == 0] = 0
    pv = np.full((rows, n_words), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    mv = np.zeros((rows, n_words), dtype=np.uint64)
    score = m.copy()
    one = np.uint64(1)
    high = np.uint64(_WORD_BITS - 1)
    for column in range(texts.shape[1]):
        active = column < n
        h_plus = np.ones(rows, dtype=np.uint64)  # row 0 steps by +1
        h_minus = np.zeros(rows, dtype=np.uint64)
        for word in range(n_words):
            eq = peq[:, column, word]
            p, q = pv[:, word], mv[:, word]
            xv = eq | q
            eq = eq | h_minus
            xh = (((eq & p) + p) ^ p) | eq
            ph = q | ~(xh | p)
            mh = p & xh
            bit = top[:, word]
            score += active & ((ph & bit) != 0)
            score -= active & ((mh & bit) != 0)
            out_plus, out_minus = ph >> high, mh >> high
            ph = (ph << one) | h_plus
            mh = (mh << one) | h_minus
            pv[:, word] = mh | ~(xv | ph)
            mv[:, word] = ph & xv
            h_plus, h_minus = out_plus, out_minus
    return np.where(m == 0, n, score)


def _levenshtein_cells(width: int) -> int:
    """Cells of one pair's match bits: text columns x pattern words."""
    return width * _WORD_BITS * max(1, -(-width // _WORD_BITS))


def levenshtein_similarities(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """``levenshtein_similarity(lefts[i], rights[i])`` per pair.

    ``1.0 - d / longest`` on the exact integer distance, so every value
    is the scalar's float expression.
    """
    started = time.perf_counter()
    left_lengths = _string_lengths(lefts)
    right_lengths = _string_lengths(rights)
    shortest = np.minimum(left_lengths, right_lengths)
    longest = np.maximum(left_lengths, right_lengths)
    distances = np.zeros(len(lefts), dtype=np.int64)
    # The distance is symmetric: the shorter side is the bit pattern, so
    # values up to 64 characters take one word.
    swap = right_lengths < left_lengths
    for chunk, width in _edit_chunks(longest, _levenshtein_cells):
        chunk_list = chunk.tolist()
        patterns = [rights[i] if swap[i] else lefts[i] for i in chunk_list]
        texts = [lefts[i] if swap[i] else rights[i] for i in chunk_list]
        m, n = shortest[chunk], longest[chunk]
        distances[chunk] = _levenshtein_chunk(
            _code_matrix(patterns, m, max(int(m.max()), 1), _LEFT_PAD),
            m,
            _code_matrix(texts, n, max(width, 1), _RIGHT_PAD),
            n,
        )
    similarities = np.ones(len(lefts), dtype=np.float64)
    mask = longest > 0
    similarities[mask] = 1.0 - distances[mask] / longest[mask]
    _count_batch(len(lefts), started)
    return similarities


def _jaro_winkler_chunk(
    a: np.ndarray,
    la: np.ndarray,
    b: np.ndarray,
    lb: np.ndarray,
) -> np.ndarray:
    """Jaro-Winkler of one chunk: the scalar's greedy match, batched.

    ``candidates[p, i, j]`` holds when ``a[i] == b[j]`` inside the match
    window. Row ``i`` then takes its first still-free ``j``, for every
    pair at once, in the scalar's order over ``i``.
    """
    rows, width = a.shape
    row_ids = np.arange(rows)
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    positions = np.arange(width)
    offsets = np.abs(positions[None, :] - positions[:, None])
    candidates = (a[:, :, None] == b[:, None, :]) & (
        offsets[None, :, :] <= window[:, None, None]
    )
    a_flags = np.zeros((rows, width), dtype=bool)
    b_flags = np.zeros((rows, width), dtype=bool)
    for i in range(int(la.max(initial=0))):
        free = candidates[:, i, :] & ~b_flags
        first = free.argmax(axis=1)
        hit = free[row_ids, first]
        a_flags[:, i] = hit
        b_flags[row_ids[hit], first[hit]] = True
    matches = a_flags.sum(axis=1)

    # Transpositions: the k-th matched character of a against the k-th
    # of b, halved.
    def matched(codes: np.ndarray, flags: np.ndarray, pad: int) -> np.ndarray:
        out = np.full((rows, width), pad, dtype=np.int32)
        flag_rows, flag_columns = np.nonzero(flags)
        ranks = np.cumsum(flags, axis=1)[flag_rows, flag_columns] - 1
        out[flag_rows, ranks] = codes[flag_rows, flag_columns]
        return out

    mismatched = matched(a, a_flags, _LEFT_PAD) != matched(b, b_flags, _RIGHT_PAD)
    in_range = positions[None, :] < matches[:, None]
    transpositions = (mismatched & in_range).sum(axis=1) // 2

    jaro = np.zeros(rows, dtype=np.float64)
    some = matches > 0
    m = matches[some]
    jaro[some] = (
        m / la[some] + m / lb[some] + (m - transpositions[some]) / m
    ) / 3.0
    equal = (la == lb) & np.all(
        (a == b) | (positions[None, :] >= la[:, None]), axis=1
    )
    jaro[equal] = 1.0
    head = min(width, 4)
    prefix = np.cumprod(a[:, :head] == b[:, :head], axis=1).sum(axis=1)
    return jaro + prefix * 0.1 * (1.0 - jaro)  # the scalar's default weight


def _jaro_winkler(lefts: Sequence[str], rights: Sequence[str]) -> np.ndarray:
    left_lengths = _string_lengths(lefts)
    right_lengths = _string_lengths(rights)
    similarities = np.zeros(len(lefts), dtype=np.float64)
    for chunk, width in _edit_chunks(
        np.maximum(left_lengths, right_lengths), lambda width: width * width
    ):
        chunk_list = chunk.tolist()
        la, lb = left_lengths[chunk], right_lengths[chunk]
        width = max(width, 1)
        similarities[chunk] = _jaro_winkler_chunk(
            _code_matrix([lefts[i] for i in chunk_list], la, width, _LEFT_PAD),
            la,
            _code_matrix([rights[i] for i in chunk_list], lb, width, _RIGHT_PAD),
            lb,
        )
    return similarities


def jaro_winkler_similarities(
    lefts: Sequence[str], rights: Sequence[str]
) -> np.ndarray:
    """``jaro_winkler_similarity(lefts[i], rights[i])`` per pair."""
    started = time.perf_counter()
    similarities = _jaro_winkler(lefts, rights)
    _count_batch(len(lefts), started)
    return similarities


def _monge_elkan_chunk(
    lists_a: Sequence[Sequence[str]],
    lists_b: Sequence[Sequence[str]],
    counts_a: np.ndarray,
    counts_b: np.ndarray,
    width: int,
) -> np.ndarray:
    """Monge-Elkan of one chunk of pairs of non-empty token lists."""
    rows = len(lists_a)
    ids: dict[str, int] = {}
    ids_a = np.full((rows, width), -1, dtype=np.int64)
    ids_b = np.full((rows, width), -1, dtype=np.int64)
    for row, (tokens_a, tokens_b) in enumerate(zip(lists_a, lists_b)):
        ids_a[row, : len(tokens_a)] = [ids.setdefault(t, len(ids)) for t in tokens_a]
        ids_b[row, : len(tokens_b)] = [ids.setdefault(t, len(ids)) for t in tokens_b]
    vocab = len(ids)
    # Per direction, (pairs, width, width) ordered token-pair codes
    # ``source * vocab + target``, -1 off the lists.
    directions = []
    for source, target in ((ids_a, ids_b), (ids_b, ids_a)):
        valid = (source[:, :, None] >= 0) & (target[:, None, :] >= 0)
        codes = source[:, :, None] * vocab + target[:, None, :]
        directions.append(np.where(valid, codes, -1))
    table_codes = _sorted_unique(
        np.concatenate([codes[codes >= 0] for codes in directions])
    )
    tokens = list(ids)
    table = _jaro_winkler(
        [tokens[code] for code in (table_codes // vocab).tolist()],
        [tokens[code] for code in (table_codes % vocab).tolist()],
    )
    directed = []
    for codes, counts in zip(directions, (counts_a, counts_b)):
        scores = np.where(
            codes >= 0,
            table[np.searchsorted(table_codes, np.maximum(codes, 0))],
            -np.inf,
        )
        best = scores.max(axis=2)
        total = np.zeros(rows, dtype=np.float64)
        for k in range(width):
            total += np.where(k < counts, best[:, k], 0.0)
        directed.append(total / counts)
    return (directed[0] + directed[1]) / 2.0


def monge_elkan_similarities(
    token_lists_a: Sequence[Sequence[str]],
    token_lists_b: Sequence[Sequence[str]],
) -> np.ndarray:
    """``monge_elkan_similarity(token_lists_a[i], token_lists_b[i])`` per pair.

    Per chunk, every distinct ordered token pair the scalar would score
    gets one Jaro-Winkler value in one batched table; each directed sum
    then adds its best matches token by token from 0.0, in the scalar's
    order.
    """
    started = time.perf_counter()
    counts_a = _string_lengths(token_lists_a)
    counts_b = _string_lengths(token_lists_b)
    similarities = np.zeros(len(token_lists_a), dtype=np.float64)
    scored = np.flatnonzero((counts_a > 0) & (counts_b > 0))
    widths = np.maximum(counts_a, counts_b)[scored]
    for chunk, width in _edit_chunks(widths, lambda width: width * width):
        rows = scored[chunk]
        similarities[rows] = _monge_elkan_chunk(
            [token_lists_a[row] for row in rows.tolist()],
            [token_lists_b[row] for row in rows.tolist()],
            counts_a[rows],
            counts_b[rows],
            width,
        )
    _count_batch(len(token_lists_a), started)
    return similarities


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
