"""Per-task feature store with an in-memory prefix memo.

One :class:`FeatureStore` per :class:`~repro.data.task.MatchingTask`
(via :func:`store_for_task`) tokenizes and q-grams every record exactly
once: each requested *view* — schema-agnostic or per-attribute tokens,
or q-grams of one length — encodes a record's feature set as a sorted
int64 id array (see :mod:`repro.text.kernels`) the first time the record
is seen, and every extractor (:class:`~repro.matchers.features
.EsdeFeatureExtractor`, :class:`~repro.matchers.features
.MagellanFeatureExtractor`, the linearity sweeps) batches its similarity
columns through the same rows. Each view keeps one append-only
:class:`~repro.text.kernels.IncrementalIncidence` over its encoded
records, offline and in a serving session alike: records seen for the
first time append as a batch, and only a q-gram codec overflow (which
re-interns the view) starts the structure afresh.

Above the rows sits an in-memory **prefix memo**: the last matrix per
``(spec, names)``, keyed by a digest chain over the content of every
record of every pair, so an extended pair list (the add-then-query
shape of ``repro.serve``) computes only its suffix rows. Nothing is
written to disk: an on-disk matrix cache spent more on JSON encoding
than its hits saved, so each run extracts its features afresh.

Every matrix request (memoized or not) increments ``features.requests``
/ ``features.pairs`` and feeds the ``features.extract_seconds`` timer;
the store also adds its seconds to its own :attr:`FeatureStore
.extract_seconds`, which counts whether or not observability is on (a
serving session splits its latency with it).
"""

from __future__ import annotations

import hashlib
import time
import weakref
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.text.kernels import (
    KERNEL_VERSION,
    SET_MEASURES,
    CharTable,
    IncrementalIncidence,
    QGramAlphabetOverflow,
    QGramCodec,
    TokenInterner,
    set_similarity_matrix_indexed,
)

#: A view names one way of reducing a record to a feature set:
#: ``("tokens", attribute_or_None)`` or ``("qgrams", attribute_or_None, q)``.
View = tuple


class FeatureStore:
    """Tokenize-once substrate shared by every extractor of one task.

    ``extract_seconds`` totals the wall time of this store's
    :meth:`matrix` requests.
    """

    def __init__(self) -> None:
        self.extract_seconds = 0.0
        self._interners: dict[View, TokenInterner] = {}
        self._rows: dict[View, dict[tuple[str, str], np.ndarray]] = {}
        self._record_digests: dict[tuple[str, str], bytes] = {}
        # Character-id rows per text plane (attribute, or None for the
        # schema-agnostic full text), shared by every q-gram length of
        # that plane: each record's text is normalized and mapped to
        # dense character ids exactly once.
        self._char_tables: dict[str | None, CharTable] = {}
        self._char_rows: dict[
            str | None, dict[tuple[str, str], np.ndarray]
        ] = {}
        self._codecs: dict[View, QGramCodec] = {}
        # Q-gram views whose alphabet outgrew their codec's bit budget;
        # they use per-gram dict interning instead (always correct, just
        # slower).
        self._fallback_views: set[View] = set()
        # Per-view append-only record incidence over every encoded
        # record: (key -> row position, incidence). Rows of new records
        # extend it in place; only a codec overflow (rows()) drops it.
        self._incidences: dict[
            View, tuple[dict[tuple[str, str], int], IncrementalIncidence]
        ] = {}
        # Last matrix per (spec, names): (n_pairs, chain digest at
        # n_pairs, matrix). A request whose pair-list prefix chains to
        # the same digest reuses those rows and computes only the
        # suffix.
        self._matrix_memo: dict[
            tuple[str, tuple[str, ...]], tuple[int, bytes, np.ndarray]
        ] = {}

    # -- record views ------------------------------------------------------

    @staticmethod
    def _extract(record, view: View) -> set:
        kind, attribute = view[0], view[1]
        if kind == "tokens":
            return (
                record.tokens()
                if attribute is None
                else record.attribute_tokens(attribute)
            )
        if kind == "qgrams":
            q = view[2]
            return (
                record.qgrams(q)
                if attribute is None
                else record.attribute_qgrams(attribute, q)
            )
        raise KeyError(f"unknown view kind {kind!r}")

    def _char_id_rows(
        self, records: Sequence, attribute: str | None
    ) -> list[np.ndarray]:
        """Each record's text plane as dense character ids, built once.

        Texts are normalized exactly like :func:`~repro.text.tokenize
        .qgrams` does (lower-cased, whitespace collapsed); all uncached
        records of the batch are concatenated and mapped through the
        plane's shared :class:`~repro.text.kernels.CharTable` in a
        single call — per-record numpy dispatch would otherwise dominate
        the encoding of a fresh store.
        """
        plane = self._char_rows.setdefault(attribute, {})
        rows: list[np.ndarray | None] = [None] * len(records)
        texts: list[str] = []
        targets: list[tuple[int, tuple[str, str]]] = []
        for index, record in enumerate(records):
            key = (record.source, record.record_id)
            ids = plane.get(key)
            if ids is not None:
                rows[index] = ids
                continue
            raw = (
                record.full_text()
                if attribute is None
                else record.value(attribute)
            )
            texts.append(" ".join(raw.lower().split()))
            targets.append((index, key))
        if texts:
            table = self._char_tables.setdefault(attribute, CharTable())
            bounds = np.zeros(len(texts) + 1, dtype=np.int64)
            np.cumsum(
                np.fromiter(
                    (len(text) for text in texts),
                    dtype=np.int64,
                    count=len(texts),
                ),
                out=bounds[1:],
            )
            mapped = table.map(
                np.frombuffer(
                    "".join(texts).encode("utf-32-le"), dtype=np.uint32
                )
            )
            for position, (index, key) in enumerate(targets):
                ids = mapped[bounds[position] : bounds[position + 1]]
                plane[key] = ids
                rows[index] = ids
        return rows

    def rows(self, records: Iterable, view: View) -> list[np.ndarray]:
        """Sorted id arrays for *records* under *view*, built once each.

        Q-gram views encode missing records in one vectorized batch of
        content-derived codes (the hot path — nine q lengths per ESDE
        variant); token views, and q-gram views whose alphabet overflowed
        their codec, intern per record.
        """
        interner = self._interners.get(view)
        if interner is None:
            interner = self._interners[view] = TokenInterner()
            self._rows[view] = {}
        row_map = self._rows[view]
        record_list = list(records)
        use_codec = view[0] == "qgrams" and view not in self._fallback_views
        if use_codec:
            missing: dict[tuple[str, str], object] = {}
            for record in record_list:
                key = (record.source, record.record_id)
                if key not in row_map and key not in missing:
                    missing[key] = record
            if missing:
                attribute, q = view[1], view[2]
                codec = self._codecs.get(view)
                if codec is None:
                    table = self._char_tables.setdefault(
                        attribute, CharTable()
                    )
                    codec = self._codecs[view] = QGramCodec(q, table)
                try:
                    encoded = codec.encode(
                        self._char_id_rows(list(missing.values()), attribute)
                    )
                except QGramAlphabetOverflow:
                    # Codes of different alphabet epochs must never mix:
                    # drop every codec row and re-intern below. The
                    # view's incidence holds epoch-stale ids too; it is
                    # dropped and refilled from the re-interned rows.
                    self._fallback_views.add(view)
                    self._incidences.pop(view, None)
                    row_map.clear()
                    use_codec = False
                else:
                    for key, row in zip(missing, encoded):
                        row_map[key] = row
        if not use_codec:
            for record in record_list:
                key = (record.source, record.record_id)
                if key not in row_map:
                    row_map[key] = interner.encode_set(
                        self._extract(record, view)
                    )
        return [
            row_map[(record.source, record.record_id)]
            for record in record_list
        ]

    def _incidence(
        self, view: View
    ) -> tuple[dict[tuple[str, str], int], IncrementalIncidence]:
        """The view's incidence over every encoded record, kept current.

        Records encoded since the last call append as one batch
        (``features.incidence_appends``); the structure, and every row
        position handed out before, stays as it was. Set intersections
        do not depend on the id scheme, so codec codes, interner ids and
        fallback ids all go through the same append.
        """
        row_map = self._rows[view]
        state = self._incidences.get(view)
        if state is None:
            state = self._incidences[view] = ({}, IncrementalIncidence())
        positions, incidence = state
        if len(positions) < len(row_map):
            fresh = list(row_map)[len(positions) :]
            incidence.append_rows([row_map[key] for key in fresh])
            for key in fresh:
                positions[key] = len(positions)
            obs.inc("features.incidence_appends")
        return positions, incidence

    @staticmethod
    def pair_index(
        pairs: Sequence,
    ) -> tuple[list, np.ndarray, np.ndarray]:
        """Deduplicate the records of *pairs* into an indexed form.

        Returns ``(records, left_index, right_index)``: the distinct
        records in first-seen order, plus int64 position arrays mapping
        each pair side into that list. Extractors build the index once
        per matrix request and reuse it across every view's
        :meth:`set_similarities_indexed` call.
        """
        index_of: dict[tuple[str, str], int] = {}
        records: list = []
        left_index = np.empty(len(pairs), dtype=np.int64)
        right_index = np.empty(len(pairs), dtype=np.int64)
        for position, pair in enumerate(pairs):
            for record, out in (
                (pair.left, left_index),
                (pair.right, right_index),
            ):
                key = (record.source, record.record_id)
                index = index_of.get(key)
                if index is None:
                    index = index_of[key] = len(records)
                    records.append(record)
                out[position] = index
        return records, left_index, right_index

    def set_similarities_indexed(
        self,
        records: Sequence,
        left_index: np.ndarray,
        right_index: np.ndarray,
        view: View,
        measures: Iterable[str] = SET_MEASURES,
    ) -> np.ndarray:
        """Set similarities for pairs given in :meth:`pair_index` form.

        Each distinct record is encoded once; a batch then reduces to
        two row-index gathers into the view's append-only
        :class:`~repro.text.kernels.IncrementalIncidence`, so thousands of
        pairs over a few hundred records cost no per-pair Python at all.
        """
        self.rows(records, view)
        positions, incidence = self._incidence(view)
        record_positions = np.fromiter(
            (
                positions[(record.source, record.record_id)]
                for record in records
            ),
            dtype=np.int64,
            count=len(records),
        )
        return set_similarity_matrix_indexed(
            incidence,
            record_positions[left_index],
            record_positions[right_index],
            measures,
        )

    def set_similarities(
        self,
        pairs: Sequence,
        view: View,
        measures: Iterable[str] = SET_MEASURES,
    ) -> np.ndarray:
        """``(len(pairs), n_measures)`` set similarities for one view."""
        pair_list = list(pairs)
        records, left_index, right_index = self.pair_index(pair_list)
        return self.set_similarities_indexed(
            records, left_index, right_index, view, measures
        )

    # -- content addressing ------------------------------------------------

    def record_digest(self, record) -> bytes:
        """Digest of one record's identity and full attribute content."""
        key = (record.source, record.record_id)
        digest = self._record_digests.get(key)
        if digest is None:
            hasher = hashlib.blake2b(digest_size=16)
            hasher.update(record.source.encode())
            hasher.update(b"\x00")
            hasher.update(record.record_id.encode())
            for attribute, value in sorted(record.values.items()):
                hasher.update(b"\x00")
                hasher.update(attribute.encode())
                hasher.update(b"\x1f")
                hasher.update(value.encode())
            digest = hasher.digest()
            self._record_digests[key] = digest
        return digest

    def _digest_chain(
        self, spec: str, names: Sequence[str], pairs: Sequence, checkpoint: int
    ) -> tuple[bytes, bytes]:
        """``(chain after checkpoint pairs, final chain)`` for a request.

        The matrix digest folds pair content as a hash *chain* — each
        pair's record digests are absorbed into the running 16-byte
        state — so the chain value after ``n`` pairs is itself the full
        digest of the length-``n`` prefix. That is what makes appends
        memo-friendly: an extended pair list reproduces its prefix's
        chain value exactly, and :meth:`matrix` can prove its memoized
        matrix still covers ``pairs[:n]`` without comparing records.
        """
        header = "\x1f".join((f"kernel{KERNEL_VERSION}", spec, *names))
        chain = hashlib.blake2b(header.encode(), digest_size=16).digest()
        at_checkpoint = chain if checkpoint == 0 else b""
        for index, pair in enumerate(pairs):
            hasher = hashlib.blake2b(chain, digest_size=16)
            hasher.update(self.record_digest(pair.left))
            hasher.update(self.record_digest(pair.right))
            chain = hasher.digest()
            if index + 1 == checkpoint:
                at_checkpoint = chain
        return at_checkpoint, chain

    # -- the extraction boundary -------------------------------------------

    def matrix(
        self,
        spec: str,
        pairs: Sequence,
        names: Sequence[str],
        compute: Callable[[], np.ndarray],
        compute_pairs: Callable[[Sequence], np.ndarray] | None = None,
    ) -> np.ndarray:
        """One feature-matrix request: prefix memo, else *compute*.

        With *compute_pairs* (a partial extractor able to compute any
        pair subset) the store keeps the last matrix per ``(spec,
        names)`` in memory keyed by its digest chain: when a new
        request's pair list *starts with* the memoized pairs — the
        ``add_records``-then-query shape of ``repro.serve`` — only the
        suffix rows are computed (``features.prefix_hits`` /
        ``features.prefix_reused_pairs``).
        """
        started = time.perf_counter()
        obs.inc("features.requests")
        obs.inc("features.pairs", float(len(pairs)))

        matrix = None
        if compute_pairs is not None:
            memo_key = (spec, tuple(names))
            memo = self._matrix_memo.get(memo_key)
            checkpoint = 0
            if memo is not None and memo[0] <= len(pairs):
                checkpoint = memo[0]
            prefix_chain, chain = self._digest_chain(
                spec, names, pairs, checkpoint
            )
            if (
                memo is not None
                and memo[0] <= len(pairs)
                and memo[1] == prefix_chain
            ):
                n_reused, __, reused = memo
                obs.inc("features.prefix_hits")
                obs.inc("features.prefix_reused_pairs", float(n_reused))
                suffix = list(pairs[n_reused:])
                matrix = (
                    np.concatenate(
                        [reused, compute_pairs(suffix)], axis=0
                    )
                    if suffix
                    else reused
                )
        if matrix is None:
            matrix = compute()
        if compute_pairs is not None:
            self._matrix_memo[memo_key] = (len(pairs), chain, matrix)

        elapsed = time.perf_counter() - started
        self.extract_seconds += elapsed
        obs.observe("features.extract_seconds", elapsed)
        return matrix


_STORES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def store_for_task(task) -> FeatureStore:
    """The shared :class:`FeatureStore` of *task* (created on first use).

    Keyed weakly, so a task's store — interners, encoded rows, digests —
    dies with the task instead of pinning every record ever seen.
    """
    store = _STORES.get(task)
    if store is None:
        store = FeatureStore()
        _STORES[task] = store
    return store
