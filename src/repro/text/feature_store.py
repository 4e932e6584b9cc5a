"""Per-task feature store + content-addressed feature-matrix cache.

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

On top sits an optional **content-addressed disk cache**
(:class:`FeatureMatrixCache`) reusing the PR-1 atomic checksummed cache
envelopes: the key digests the extractor spec, :data:`~repro.text.kernels
.KERNEL_VERSION`, the feature names and the full content of every record
of every pair (in pair order), so repeated sweeps skip extraction
entirely, and any change to a record, the pair order, the schema or the
kernel semantics misses cleanly. Floats round-trip through
JSON via ``repr`` exactly, so a cache hit reproduces the matrix **byte
for byte**. Cache failures are strictly best-effort: corrupt envelopes
are quarantined and recomputed, failed writes are dropped — only
``features.cache_*`` metrics record them, never a ``FailureRecord``.

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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import obs
from repro.runtime.cache import (
    CacheError,
    quarantine,
    read_envelope,
    write_envelope,
)
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


@dataclass(frozen=True)
class FeatureMatrixCache:
    """Content-addressed feature matrices in checksummed envelopes.

    One JSON envelope per (spec, pair-content) digest under *directory*;
    safe for concurrent writers (atomic replace; identical content maps
    to identical files).
    """

    directory: Path

    def path_for(self, digest: str) -> Path:
        return Path(self.directory) / f"features_{digest}.json"

    def load(self, digest: str, names: Sequence[str]) -> np.ndarray | None:
        """The cached matrix for *digest*, or ``None`` on any miss."""
        path = self.path_for(digest)
        if not path.exists():
            obs.inc("features.cache_miss")
            return None
        try:
            payload = read_envelope(path)
        except CacheError:
            quarantine(path)
            obs.inc("features.cache_quarantined")
            return None
        except Exception:
            # e.g. an injected cache:read error fault — a plain miss.
            obs.inc("features.cache_miss")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kernel_version") != KERNEL_VERSION
            or payload.get("names") != list(names)
        ):
            obs.inc("features.cache_miss")
            return None
        matrix = np.asarray(payload["matrix"], dtype=np.float64)
        matrix = matrix.reshape(tuple(payload["shape"]))
        obs.inc("features.cache_hit")
        return matrix

    def store(
        self,
        digest: str,
        spec: str,
        names: Sequence[str],
        matrix: np.ndarray,
    ) -> None:
        """Best-effort envelope write; failures only count a metric."""
        payload = {
            "spec": spec,
            "kernel_version": KERNEL_VERSION,
            "names": list(names),
            "shape": list(matrix.shape),
            "matrix": matrix.tolist(),
        }
        try:
            write_envelope(self.path_for(digest), payload)
        except Exception:
            obs.inc("features.cache_write_failed")
            return
        obs.inc("features.cache_write")


_active_cache: FeatureMatrixCache | None = None

# Set by the resource guard's degradation ladder: under disk pressure the
# cache's envelope writes are the one knob worth turning off, and under
# memory pressure its in-process reads stop pinning decoded matrices.
_cache_disabled = False


def set_cache_disabled(disabled: bool) -> None:
    """Force :func:`active_feature_cache` to ``None`` without uninstalling."""
    global _cache_disabled
    _cache_disabled = bool(disabled)


def cache_disabled() -> bool:
    return _cache_disabled


def active_feature_cache() -> FeatureMatrixCache | None:
    """The process-wide cache extractors consult (``None`` = disabled)."""
    if _cache_disabled:
        return None
    return _active_cache


def set_feature_cache(
    cache: FeatureMatrixCache | None,
) -> FeatureMatrixCache | None:
    """Install *cache* as the active one; returns the previous."""
    global _active_cache
    previous = _active_cache
    _active_cache = cache
    return previous


@contextmanager
def feature_cache_scope(
    cache: FeatureMatrixCache | None,
) -> Iterator[FeatureMatrixCache | None]:
    """Activate *cache* for a ``with`` block, then restore the previous.

    The runner wraps each unit of work in a scope, so unrelated code (and
    later tests in the same process) never see a stale cache.
    """
    previous = set_feature_cache(cache)
    try:
        yield cache
    finally:
        set_feature_cache(previous)


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
        # suffix — the append-friendly tier under the exact disk cache.
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
        cache-friendly: an extended pair list reproduces its prefix's
        chain value exactly, and :meth:`matrix` can prove an in-memory
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

    def matrix_digest(
        self, spec: str, names: Sequence[str], pairs: Sequence
    ) -> str:
        """The content-addressed cache key for one matrix request."""
        __, chain = self._digest_chain(spec, names, pairs, 0)
        return chain.hex()

    # -- the extraction boundary -------------------------------------------

    def matrix(
        self,
        spec: str,
        pairs: Sequence,
        names: Sequence[str],
        compute: Callable[[], np.ndarray],
        cacheable: bool = True,
        compute_pairs: Callable[[Sequence], np.ndarray] | None = None,
    ) -> np.ndarray:
        """One feature-matrix request: disk cache, prefix memo, *compute*.

        With *compute_pairs* (a partial extractor able to compute any
        pair subset) the store also keeps the last matrix per
        ``(spec, names)`` in memory keyed by its digest chain: when a
        new request's pair list *starts with* the memoized pairs — the
        ``add_records``-then-query shape of ``repro.serve`` — only the
        suffix rows are computed (``features.prefix_hits`` /
        ``features.prefix_reused_pairs``). The exact disk cache sits in
        front and still serves byte-identical full hits.

        Emits the request-level ``features.*`` metrics regardless of
        where the matrix came from, so counters are identical whether or
        not the cache hit.
        """
        started = time.perf_counter()
        obs.inc("features.requests")
        obs.inc("features.pairs", float(len(pairs)))

        cache = active_feature_cache() if cacheable else None
        memo_key = (spec, tuple(names))
        memo = self._matrix_memo.get(memo_key) if compute_pairs else None
        matrix = None
        digest = None
        chain = b""
        if cache is not None or compute_pairs is not None:
            checkpoint = 0
            if memo is not None and memo[0] <= len(pairs):
                checkpoint = memo[0]
            prefix_chain, chain = self._digest_chain(
                spec, names, pairs, checkpoint
            )
            digest = chain.hex()
            if cache is not None:
                matrix = cache.load(digest, names)
            if (
                matrix is None
                and memo is not None
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
                if cache is not None:
                    cache.store(digest, spec, names, matrix)
        if matrix is None:
            matrix = compute()
            if cache is not None and digest is not None:
                cache.store(digest, spec, names, matrix)
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
