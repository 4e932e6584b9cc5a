"""Approximate-nearest-neighbour blocking over packed q-gram codes.

Every classic blocker of this package generates candidates effectively
exhaustively per left record, which is the scalability wall of the
ROADMAP's million-record north star. This module provides the ANN
substrate (the *BlockingPy* direction, arXiv 2504.04266) on top of the
incidence structures :mod:`repro.text.kernels` already produces, with
two pure-numpy backends:

* **LSH banding** — minhash signatures over the int64 q-gram codes
  (:func:`repro.text.kernels.minhash_signatures`), folded into banded
  bucket keys; two records become a candidate pair when they share at
  least ``min_shared_bands`` buckets. The per-band bucket join is fully
  vectorized (argsort + searchsorted range joins), so candidate
  generation never walks the cross product.
* **small-world graph** — a navigable-small-world index
  (:class:`SmallWorldGraph`, HNSW-style greedy beam search over the
  masked cosine kernel) giving the ``query(record, k)`` access shape the
  future ``repro.serve`` item needs; :class:`GraphIndex` wraps it with
  the record encoding so external records can be queried directly.

Both backends are **bit-deterministic for a fixed seed**: the hash
family is derived from the seed alone, every join is sort-based (no
Python dict/set iteration order anywhere near candidate selection), and
the graph breaks all similarity ties by node id.

:class:`AnnBlocker` implements the ``candidates(sources)`` blocker
protocol under ``@observed_candidates`` and emits the ``blocking.ann.*``
metrics; :func:`tune_ann` grid-searches (signature size x bands x
min-shared-bands) for the candidate-minimal configuration meeting a
recall target, reusing :func:`repro.blocking.base.evaluate_blocking` and
the comparator pair shared with :func:`repro.blocking.tuning
.tune_deepblocker`; :func:`provenance_sweep` regenerates the Table V
blocking-provenance analysis under each backend (the recall/CSSR
trade-off of Steorts et al., arXiv 1407.3191).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.blocking.base import (
    BlockingResult,
    Candidates,
    evaluate_blocking,
    observed_candidates,
)
from repro.blocking.tuning import fallback_preferred, meeting_preferred
from repro.datasets.generator import SourcePair
from repro.text.feature_store import FeatureStore
from repro.text.kernels import CodeTable, band_keys, minhash_signatures

#: The two ANN backends (plus the implicit "exhaustive" baseline of the
#: provenance sweep).
ANN_BACKENDS: tuple[str, ...] = ("lsh", "graph")

_EMPTY_INDEX = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class AnnConfig:
    """One configuration of the ANN blocking substrate.

    LSH knobs: ``n_hashes`` (signature width), ``bands`` (must divide the
    width; ``rows = n_hashes // bands`` minhash values per band),
    ``min_shared_bands`` (buckets two records must share) and
    ``max_bucket`` (degenerate buckets larger than this are skipped, the
    ``max_block_size`` analogue; ``0`` skips every bucket, ``None``
    disables the guard). Graph knobs: ``k`` neighbours retrieved per
    query, ``max_degree`` graph connectivity, ``beam_width`` search beam.
    ``q`` selects the q-gram plane and ``seed`` fixes the hash family —
    the whole pipeline is deterministic in ``(config, sources)``.
    """

    backend: str = "lsh"
    q: int = 3
    n_hashes: int = 128
    bands: int = 32
    min_shared_bands: int = 1
    max_bucket: int | None = 200
    k: int = 10
    max_degree: int = 16
    beam_width: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.backend not in ANN_BACKENDS:
            raise ValueError(
                f"backend must be one of {ANN_BACKENDS}, got {self.backend!r}"
            )
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.n_hashes < 1:
            raise ValueError(f"n_hashes must be >= 1, got {self.n_hashes}")
        if self.bands < 1 or self.n_hashes % self.bands:
            raise ValueError(
                f"bands must divide n_hashes ({self.n_hashes}), "
                f"got {self.bands}"
            )
        if not 1 <= self.min_shared_bands <= self.bands:
            raise ValueError(
                f"min_shared_bands must be in [1, {self.bands}], "
                f"got {self.min_shared_bands}"
            )
        if self.max_bucket is not None and self.max_bucket < 0:
            raise ValueError(
                f"max_bucket must be >= 0, got {self.max_bucket}"
            )
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.max_degree < 1:
            raise ValueError(
                f"max_degree must be >= 1, got {self.max_degree}"
            )
        if self.beam_width < 1:
            raise ValueError(
                f"beam_width must be >= 1, got {self.beam_width}"
            )

    def describe(self) -> str:
        """Compact rendering for the provenance tables."""
        if self.backend == "lsh":
            rows = self.n_hashes // self.bands
            return (
                f"lsh q={self.q} sig={self.n_hashes} bands={self.bands} "
                f"rows={rows} shared>={self.min_shared_bands}"
            )
        return (
            f"graph q={self.q} K={self.k} deg={self.max_degree} "
            f"beam={self.beam_width}"
        )


class _EncodedSources:
    """Q-gram code rows of both sources through one shared feature store.

    Encoding order (left, then right) is part of the determinism
    contract: :class:`~repro.text.kernels.CharTable` ids are assigned on
    first sight, so every consumer (blocker runs, the tuner's grid) must
    encode in the same order to see identical codes.
    """

    __slots__ = (
        "store", "view", "left_records", "right_records",
        "left_rows", "right_rows",
    )

    def __init__(self, sources: SourcePair, q: int) -> None:
        self.store = FeatureStore()
        self.view = ("qgrams", None, q)
        self.left_records = list(sources.left)
        self.right_records = list(sources.right)
        self.left_rows = self.store.rows(self.left_records, self.view)
        self.right_rows = self.store.rows(self.right_records, self.view)


def _nonempty_mask(rows: Sequence[np.ndarray]) -> np.ndarray:
    return np.fromiter(
        (len(row) > 0 for row in rows), dtype=bool, count=len(rows)
    )


def _lsh_candidate_indexes(
    left_keys: np.ndarray,
    right_keys: np.ndarray,
    left_nonempty: np.ndarray,
    right_nonempty: np.ndarray,
    min_shared_bands: int,
    max_bucket: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """``(left_idx, right_idx, shared_bands, pairs_examined, buckets_skipped)``.

    One vectorized range join per band: right keys are sorted once, left
    keys locate their bucket with two binary searches, and the matched
    ranges expand with the same arange-minus-offsets trick the kernels
    use. Pair multiplicity across bands is recovered by sorting the
    folded ``left * n_right + right`` keys and counting runs — a pair
    matches a band at most once, so the run length *is* the number of
    shared bands. Empty-signature rows (records with no features) are
    excluded up front: their identical sentinel signatures would
    otherwise all collide.
    """
    n_right = len(right_keys)
    left_live = np.flatnonzero(left_nonempty)
    right_live = np.flatnonzero(right_nonempty)
    if len(left_live) == 0 or len(right_live) == 0:
        return _EMPTY_INDEX, _EMPTY_INDEX, _EMPTY_INDEX, 0, 0

    examined = 0
    skipped = 0
    folded_parts: list[np.ndarray] = []
    for band in range(left_keys.shape[1]):
        right_band = right_keys[right_live, band]
        order = np.argsort(right_band, kind="stable")
        sorted_right = right_band[order]
        left_band = left_keys[left_live, band]
        lo = np.searchsorted(sorted_right, left_band, side="left")
        hi = np.searchsorted(sorted_right, left_band, side="right")
        sizes = hi - lo
        if max_bucket is not None:
            oversized = sizes > max_bucket
            skipped += int(np.count_nonzero(oversized))
            sizes = np.where(oversized, 0, sizes)
        hit = np.flatnonzero(sizes > 0)
        if len(hit) == 0:
            continue
        hit_sizes = sizes[hit]
        total = int(hit_sizes.sum())
        examined += total
        offsets = np.zeros(len(hit) + 1, dtype=np.int64)
        np.cumsum(hit_sizes, out=offsets[1:])
        take = np.repeat(lo[hit], hit_sizes) + (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets[:-1], hit_sizes)
        )
        left_idx = left_live[np.repeat(hit, hit_sizes)]
        right_idx = right_live[order[take]]
        folded_parts.append(left_idx * n_right + right_idx)

    if not folded_parts:
        return _EMPTY_INDEX, _EMPTY_INDEX, _EMPTY_INDEX, examined, skipped
    folded = np.concatenate(folded_parts)
    folded.sort()
    starts = np.ones(len(folded), dtype=bool)
    np.not_equal(folded[1:], folded[:-1], out=starts[1:])
    run_starts = np.flatnonzero(starts)
    run_lengths = np.diff(np.append(run_starts, len(folded)))
    hits = run_lengths >= min_shared_bands
    kept = folded[run_starts[hits]]
    return kept // n_right, kept % n_right, run_lengths[hits], examined, skipped


#: Strided probes seeding every beam search beside the entry point (see
#: :meth:`SmallWorldGraph._entry_points`).
N_ENTRY_POINTS = 8

#: Nodes appended since the last re-seal of the postings (the tail) are
#: scored from the row store; past this many, the postings are rebuilt.
#: Each search reads the whole tail and each re-seal sorts every row, so
#: the constant trades the one against the other (DESIGN §10).
RESEAL_TAIL = 128


def _grown(buffer: np.ndarray, needed: int) -> np.ndarray:
    """*buffer* copied into a zeroed one of at least *needed* slots.

    Doubling keeps appends amortized O(1) per element.
    """
    grown = np.zeros(max(needed, 2 * len(buffer)), dtype=buffer.dtype)
    grown[: len(buffer)] = buffer
    return grown


class SmallWorldGraph:
    """A navigable-small-world index over dense sorted id rows.

    Single-layer NSW: nodes are inserted in order, each connected to its
    ``max_degree`` (approximately) most cosine-similar predecessors found
    by a greedy beam search from the entry point; degrees are pruned back
    to ``max_degree`` keeping the most similar neighbours. Search and
    insertion break every similarity tie by node id, so the structure —
    and therefore every query — is deterministic. Empty rows are
    unreachable islands (they can never score above zero).

    The structure is inherently incremental — building *is* inserting
    node by node — so :meth:`add_row` appends a new node with the work
    of one build step; a graph grown by appends is
    bit-identical to one built from the concatenated row list.

    Storage is one flat int64 row buffer (node ``i`` owns
    ``_flat[_starts[i] : _starts[i] + _sizes[i]]``, and ``_owner`` holds
    the node of each slot) grown by doubling. Beside it sits an inverted
    index: id ``d`` is held by the nodes
    ``_postings[_indptr[d] : _indptr[d + 1]]``, sealed over the rows
    before ``_sealed_fill``. A search scores the query against every node
    once, before its beam starts (:meth:`_scores`). Each edge keeps its
    similarity beside ``_neighbors``: cosine of two id sets is symmetric
    bit for bit (an integer intersection over ``sqrt`` of an exact
    integer product), so degree pruning re-sorts cached values instead
    of re-scoring rows. Searches share the marker, so one graph serves
    one thread at a time, as its inserts always required.
    """

    def __init__(self, max_degree: int = 8, beam_width: int = 12) -> None:
        self.max_degree = max_degree
        self.beam_width = beam_width
        self._flat = np.zeros(1024, dtype=np.int64)
        self._owner = np.zeros(1024, dtype=np.int64)
        self._fill = 0
        self._starts = np.zeros(64, dtype=np.int64)
        self._sizes = np.zeros(64, dtype=np.int64)
        self._count = 0
        self._indptr = np.zeros(1, dtype=np.int64)
        self._postings = _EMPTY_INDEX
        self._sealed = 0
        self._sealed_fill = 0
        #: ``_marker[i]`` is True while id ``i`` belongs to the query
        #: being scored; all False between scorings.
        self._marker = np.zeros(64, dtype=bool)
        self._neighbors: list[list[int]] = []
        #: ``_edge_sims[a][j]`` is the cosine of ``a`` and
        #: ``_neighbors[a][j]``.
        self._edge_sims: list[list[float]] = []
        self._entry: int | None = None
        self.sim_evals = 0

    def add_row(self, row: np.ndarray) -> int:
        """Append one dense sorted id row as a new node; returns its id."""
        node = self._count
        size = len(row)
        if node == len(self._starts):
            self._starts = _grown(self._starts, node + 1)
            self._sizes = _grown(self._sizes, node + 1)
        end = self._fill + size
        if end > len(self._flat):
            self._flat = _grown(self._flat, end)
            self._owner = _grown(self._owner, end)
        self._flat[self._fill : end] = row
        self._owner[self._fill : end] = node
        self._starts[node] = self._fill
        self._sizes[node] = size
        self._fill = end
        self._count += 1
        if size:
            top = int(row.max())
            if top >= len(self._marker):
                self._marker = _grown(self._marker, top + 1)
        if self._count - self._sealed > RESEAL_TAIL:
            self._seal()
        self._neighbors.append([])
        self._edge_sims.append([])
        self._insert(node)
        return node

    def __len__(self) -> int:
        return self._count

    def _row(self, node: int) -> np.ndarray:
        start = int(self._starts[node])
        return self._flat[start : start + int(self._sizes[node])]

    def _seal(self) -> None:
        """Rebuild the postings over every row: one sort of the ids."""
        fill = self._fill
        ids = self._flat[:fill]
        self._postings = self._owner[:fill][np.argsort(ids)]
        self._indptr = np.zeros(len(self._marker) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(ids, minlength=len(self._marker)),
            out=self._indptr[1:],
        )
        self._sealed = self._count
        self._sealed_fill = fill

    def _scores(self, query: np.ndarray, query_size: int) -> list[float]:
        """Cosine of the query against every node, indexed by node.

        The sealed nodes' intersections come from the postings of the
        query's ids, the tail's from marking the query and reading the
        tail rows; one ``bincount`` counts both. Ids beyond every
        indexed row cannot intersect anything and are left out.
        """
        count = self._count
        if query_size == 0:
            return [0.0] * count
        known = query[query < len(self._marker)]
        sealed = known[known < len(self._indptr) - 1]
        lo = self._indptr[sealed]
        lengths = self._indptr[sealed + 1] - lo
        ends = lengths.cumsum()
        positions = (lo - (ends - lengths)).repeat(lengths)
        positions += np.arange(len(positions), dtype=np.int64)
        self._marker[known] = True
        tail = slice(self._sealed_fill, self._fill)
        tail_hits = self._owner[tail][self._marker[self._flat[tail]]]
        self._marker[known] = False
        inter = np.bincount(
            np.concatenate((self._postings[positions], tail_hits)),
            minlength=count,
        )
        sizes = self._sizes[:count]
        sims = np.zeros(count, dtype=np.float64)
        np.divide(
            inter,
            np.sqrt(float(query_size) * sizes),
            out=sims,
            where=sizes > 0,
        )
        return sims.tolist()

    def _entry_points(self) -> list[int]:
        """Deterministic multi-entry seeds: the entry plus strided probes.

        A single-entry greedy search strands nodes whose reverse edges
        were all degree-pruned — on near-orthogonal data (tiny pairwise
        similarities) the beam has no gradient to follow and whole
        regions become unreachable. Seeding the beam with nodes spread
        evenly across insertion order restores coverage the way NSW's
        multi-restart search does, but deterministically: the seed set
        is a pure function of the node count, so a graph grown by
        appends still answers bit-identically to one built in one shot.
        """
        if self._entry is None:
            return []
        count = self._count
        seeds = {self._entry}
        for probe in range(N_ENTRY_POINTS):
            seeds.add((probe * count) // N_ENTRY_POINTS)
        seeds.add(count - 1)
        return sorted(seeds)

    def _search(
        self, query: np.ndarray, query_size: int, beam: int
    ) -> list[tuple[float, int]]:
        """Greedy beam search: ``[(similarity, node), ...]`` best first."""
        entries = self._entry_points()
        if not entries:
            return []
        if len(query) == 0:
            query_size = 0  # nothing can intersect: every score is 0
        sims = self._scores(query, query_size)
        # Max-heap of frontier nodes by (-sim, node); min-heap of the
        # best `beam` results by (sim, -node) — both orders break ties
        # by node id, deterministically.
        visited = set(entries)
        frontier = [(-sims[entry], entry) for entry in entries]
        heapq.heapify(frontier)
        results = [(sims[entry], -entry) for entry in entries]
        heapq.heapify(results)
        while len(results) > beam:
            heapq.heappop(results)
        while frontier:
            negative_sim, node = heapq.heappop(frontier)
            if len(results) >= beam and -negative_sim < results[0][0]:
                break
            for neighbor in self._neighbors[node]:
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                sim = sims[neighbor]
                if len(results) < beam or sim > results[0][0]:
                    heapq.heappush(frontier, (-sim, neighbor))
                    heapq.heappush(results, (sim, -neighbor))
                    if len(results) > beam:
                        heapq.heappop(results)
        if query_size:
            self.sim_evals += len(visited)
        found = [(sim, -negative_node) for sim, negative_node in results]
        found.sort(key=lambda item: (-item[0], item[1]))
        return found

    def _insert(self, node: int) -> None:
        size = int(self._sizes[node])
        if size == 0:
            return
        if self._entry is None:
            self._entry = node
            return
        beam = max(self.beam_width, self.max_degree)
        found = self._search(self._row(node), size, beam)
        for sim, other in found[: self.max_degree]:
            self._connect(node, other, sim)

    def _connect(self, node: int, other: int, sim: float) -> None:
        """Link *node* and *other* both ways, pruning each to ``max_degree``.

        *sim* serves both directions: it is symmetric bit for bit.
        """
        for source, target in ((node, other), (other, node)):
            neighbors = self._neighbors[source]
            if target in neighbors:
                continue
            sims = self._edge_sims[source]
            neighbors.append(target)
            sims.append(sim)
            if len(neighbors) > self.max_degree:
                kept = sorted(
                    zip([-value for value in sims], neighbors)
                )[: self.max_degree]
                self._neighbors[source] = [neighbor for __, neighbor in kept]
                self._edge_sims[source] = [-value for value, __ in kept]

    def search(
        self, query: np.ndarray, query_size: int, k: int
    ) -> list[tuple[float, int]]:
        """``[(similarity, node), ...]`` of the ``<= k`` most similar nodes.

        Best first, ties broken by node id. Nodes with zero similarity
        are never returned — an unreachable record should not become a
        candidate just because the beam visited it.
        """
        found = self._search(query, query_size, max(self.beam_width, k))
        return [(sim, node) for sim, node in found[:k] if sim > 0.0]


class GraphIndex:
    """``search(record, k)`` ANN access over one growing record list.

    Wraps a :class:`SmallWorldGraph` with a first-sight
    :class:`~repro.text.kernels.CodeTable` code-to-dense-id mapping, so
    external records (streaming queries, the ``repro.serve`` session)
    can be encoded through the same feature store and queried directly,
    and new records can be :meth:`insert`-ed without ever rebuilding:
    set intersections are invariant to the id assignment scheme, so
    first-sight ids produce the exact same similarities — and therefore
    the exact same graph — as the frozen sorted-rank vocabulary the
    index used when it was build-once. Query codes outside the indexed
    vocabulary cannot intersect anything and are dropped from the probe,
    but still count toward the query's cosine magnitude.
    """

    def __init__(
        self,
        records: Sequence,
        rows: Sequence[np.ndarray],
        config: AnnConfig,
        store: FeatureStore,
        view: tuple,
    ) -> None:
        self.records: list = []
        self._store = store
        self._view = view
        self.config = config
        self._table = CodeTable()
        self.graph = SmallWorldGraph(
            max_degree=config.max_degree,
            beam_width=config.beam_width,
        )
        started = time.perf_counter()
        self._append(records, rows)
        obs.observe(
            "blocking.ann.graph_build_seconds", time.perf_counter() - started
        )
        obs.inc("blocking.ann.index_builds")

    def __len__(self) -> int:
        return len(self.records)

    def _append(self, records: Sequence, rows: Sequence[np.ndarray]) -> None:
        self.records.extend(records)
        if not rows:
            return
        ids, counts = self._table.intern_rows(rows)
        for dense in np.split(ids, np.cumsum(counts[:-1])):
            self.graph.add_row(dense)

    def insert(self, records: Sequence) -> None:
        """Append *records* to the live index — incremental, no rebuild."""
        records = list(records)
        rows = self._store.rows(records, self._view)
        started = time.perf_counter()
        self._append(records, rows)
        obs.observe(
            "blocking.ann.index_insert_seconds",
            time.perf_counter() - started,
        )
        obs.inc("blocking.ann.index_inserts", float(len(records)))

    def map_row(self, raw_row: np.ndarray) -> tuple[np.ndarray, int]:
        """``(dense sorted probe ids, distinct query size)`` of raw codes."""
        distinct = np.unique(raw_row)
        if len(distinct) == 0 or len(self._table) == 0:
            return _EMPTY_INDEX, len(distinct)
        return np.sort(self._table.lookup(distinct)), len(distinct)

    def search_row(
        self, raw_row: np.ndarray, k: int
    ) -> list[tuple[float, int]]:
        """``[(score, position), ...]`` of the ``<= k`` nearest records."""
        probe, query_size = self.map_row(raw_row)
        return self.graph.search(probe, query_size, k)

    def query_row(self, raw_row: np.ndarray, k: int) -> list[int]:
        """Positions (into ``records``) of the ``<= k`` nearest records."""
        return [position for __, position in self.search_row(raw_row, k)]

    def search(self, record, k: int) -> Candidates:
        """The ``<= k`` most similar record ids, scored, best first."""
        raw_row = self._store.rows([record], self._view)[0]
        scored = self.search_row(raw_row, k)
        return Candidates(
            ids=tuple(
                self.records[position].record_id for __, position in scored
            ),
            scores=tuple(sim for sim, __ in scored),
            provenance=self.config.describe(),
        )


class LshIndex:
    """Incremental banded-minhash index with the :class:`GraphIndex` shape.

    Per-band hash buckets (``key -> positions``) grown append-only:
    minhash signatures are per-row independent (the hash family is
    derived from the seed alone), so :meth:`insert` computes signatures
    for the new rows only and appends their band keys — existing buckets
    are never touched, let alone rebuilt. :meth:`search_row` scores each
    colliding position by its shared-band fraction, mirroring the batch
    :func:`_lsh_candidate_indexes` semantics (``min_shared_bands``
    filter, oversized buckets skipped).
    """

    def __init__(
        self,
        records: Sequence,
        rows: Sequence[np.ndarray],
        config: AnnConfig,
        store: FeatureStore,
        view: tuple,
    ) -> None:
        self.records: list = []
        self._store = store
        self._view = view
        self.config = config
        self._buckets: list[dict[int, list[int]]] = [
            {} for __ in range(config.bands)
        ]
        started = time.perf_counter()
        self._append(records, rows)
        obs.observe(
            "blocking.ann.lsh_build_seconds", time.perf_counter() - started
        )
        obs.inc("blocking.ann.index_builds")

    def __len__(self) -> int:
        return len(self.records)

    def _append(self, records: Sequence, rows: Sequence[np.ndarray]) -> None:
        base = len(self.records)
        self.records.extend(records)
        if not rows:
            return
        signatures = minhash_signatures(
            list(rows), self.config.n_hashes, self.config.seed
        )
        keys = band_keys(signatures, self.config.bands)
        for offset, live in enumerate(_nonempty_mask(rows).tolist()):
            if not live:
                continue
            for band in range(self.config.bands):
                self._buckets[band].setdefault(
                    int(keys[offset, band]), []
                ).append(base + offset)

    def insert(self, records: Sequence) -> None:
        """Append *records* to the live index — incremental, no rebuild."""
        records = list(records)
        rows = self._store.rows(records, self._view)
        started = time.perf_counter()
        self._append(records, rows)
        obs.observe(
            "blocking.ann.index_insert_seconds",
            time.perf_counter() - started,
        )
        obs.inc("blocking.ann.index_inserts", float(len(records)))

    def search_row(
        self, raw_row: np.ndarray, k: int
    ) -> list[tuple[float, int]]:
        """``[(score, position), ...]`` of the ``<= k`` best collisions."""
        config = self.config
        distinct = np.unique(raw_row)
        if len(distinct) == 0:
            return []
        signature = minhash_signatures(
            [distinct], config.n_hashes, config.seed
        )
        keys = band_keys(signature, config.bands)[0]
        shared: dict[int, int] = {}
        for band in range(config.bands):
            bucket = self._buckets[band].get(int(keys[band]))
            if bucket is None:
                continue
            if config.max_bucket is not None and len(bucket) > config.max_bucket:
                obs.inc("blocking.ann.buckets_skipped")
                continue
            for position in bucket:
                shared[position] = shared.get(position, 0) + 1
        scored = [
            (count / config.bands, position)
            for position, count in shared.items()
            if count >= config.min_shared_bands
        ]
        scored.sort(key=lambda item: (-item[0], item[1]))
        return scored[:k]

    def query_row(self, raw_row: np.ndarray, k: int) -> list[int]:
        """Positions (into ``records``) of the ``<= k`` best collisions."""
        return [position for __, position in self.search_row(raw_row, k)]

    def search(self, record, k: int) -> Candidates:
        """The ``<= k`` best-colliding record ids, scored, best first."""
        raw_row = self._store.rows([record], self._view)[0]
        scored = self.search_row(raw_row, k)
        return Candidates(
            ids=tuple(
                self.records[position].record_id for __, position in scored
            ),
            scores=tuple(score for score, __ in scored),
            provenance=self.config.describe(),
        )


class AnnBlocker:
    """Approximate-nearest-neighbour blocking under the blocker protocol.

    ``backend="lsh"`` generates candidates from banded minhash buckets;
    ``backend="graph"`` indexes the right source in a
    :class:`SmallWorldGraph` and retrieves ``k`` neighbours per left
    record. Results are bit-deterministic for a fixed
    :class:`AnnConfig`.
    """

    def __init__(self, config: AnnConfig | None = None) -> None:
        self.config = config if config is not None else AnnConfig()

    def _lsh_scored(
        self, encoded: _EncodedSources
    ) -> list[tuple[float, tuple[str, str]]]:
        config = self.config
        started = time.perf_counter()
        left_signatures = minhash_signatures(
            encoded.left_rows, config.n_hashes, config.seed
        )
        right_signatures = minhash_signatures(
            encoded.right_rows, config.n_hashes, config.seed
        )
        obs.observe(
            "blocking.ann.signature_seconds", time.perf_counter() - started
        )
        left_idx, right_idx, shared, examined, skipped = (
            _lsh_candidate_indexes(
                band_keys(left_signatures, config.bands),
                band_keys(right_signatures, config.bands),
                _nonempty_mask(encoded.left_rows),
                _nonempty_mask(encoded.right_rows),
                config.min_shared_bands,
                config.max_bucket,
            )
        )
        obs.inc("blocking.ann.pairs_examined", float(examined))
        obs.inc("blocking.ann.buckets_skipped", float(skipped))
        return [
            (
                count / config.bands,
                (
                    encoded.left_records[i].record_id,
                    encoded.right_records[j].record_id,
                ),
            )
            for i, j, count in zip(
                left_idx.tolist(), right_idx.tolist(), shared.tolist()
            )
        ]

    def _graph_scored(
        self, encoded: _EncodedSources
    ) -> list[tuple[float, tuple[str, str]]]:
        config = self.config
        index = GraphIndex(
            encoded.right_records,
            encoded.right_rows,
            config,
            store=encoded.store,
            view=encoded.view,
        )
        evals_before = index.graph.sim_evals
        scored: list[tuple[float, tuple[str, str]]] = []
        for record, row in zip(encoded.left_records, encoded.left_rows):
            for sim, position in index.search_row(row, config.k):
                scored.append(
                    (
                        sim,
                        (
                            record.record_id,
                            encoded.right_records[position].record_id,
                        ),
                    )
                )
        obs.inc(
            "blocking.ann.pairs_examined",
            float(index.graph.sim_evals - evals_before),
        )
        return scored

    @observed_candidates
    def candidate_result(self, sources: SourcePair) -> Candidates:
        """All candidate pairs of the configured backend, typed and scored.

        Scores are the shared-band fraction (LSH) or the cosine
        similarity (graph); results are ordered best first with ties
        broken by the pair key, so the ordering — like the set — is
        bit-deterministic for a fixed config.
        """
        encoded = _EncodedSources(sources, self.config.q)
        if self.config.backend == "lsh":
            scored = self._lsh_scored(encoded)
        else:
            scored = self._graph_scored(encoded)
        scored.sort(key=lambda item: (-item[0], item[1]))
        return Candidates(
            ids=tuple(pair for __, pair in scored),
            scores=tuple(score for score, __ in scored),
            provenance=self.config.describe(),
        )

    def candidates(self, sources: SourcePair) -> set[tuple[str, str]]:
        """Blocker-protocol shim: the untyped pair set of
        :meth:`candidate_result`."""
        return self.candidate_result(sources).to_set()


# -- tuning -------------------------------------------------------------------

#: Signature widths probed by :func:`tune_ann`.
DEFAULT_SIGNATURE_GRID: tuple[int, ...] = (64, 128)

#: Band counts probed per signature width (non-divisors are skipped).
DEFAULT_BAND_GRID: tuple[int, ...] = (8, 16, 32)

#: ``min_shared_bands`` values probed per banding.
DEFAULT_MIN_SHARED_GRID: tuple[int, ...] = (1, 2)


@dataclass(frozen=True)
class TunedAnnBlocking:
    """The winning ANN configuration and its blocking result."""

    config: AnnConfig
    result: BlockingResult

    @property
    def pair_completeness(self) -> float:
        return self.result.pair_completeness

    @property
    def pairs_quality(self) -> float:
        return self.result.pairs_quality


def tune_ann(
    sources: SourcePair,
    recall_target: float = 0.9,
    signature_grid: tuple[int, ...] = DEFAULT_SIGNATURE_GRID,
    band_grid: tuple[int, ...] = DEFAULT_BAND_GRID,
    min_shared_grid: tuple[int, ...] = DEFAULT_MIN_SHARED_GRID,
    q: int = 3,
    max_bucket: int | None = 200,
    seed: int = 0,
) -> TunedAnnBlocking:
    """Find the candidate-minimal LSH configuration meeting the target.

    Mirrors :func:`repro.blocking.tuning.tune_deepblocker`: every
    (signature size, bands, min-shared-bands) combination is evaluated
    with :func:`evaluate_blocking`; among those meeting *recall_target*
    the lowest-cost (fewest candidates, PC breaking ties) wins via
    :func:`meeting_preferred`, and when none meets it the
    :func:`fallback_preferred` comparator picks the highest-recall,
    then fewest-candidates configuration. Sources are encoded once and
    signatures once per signature width; every evaluated configuration
    reproduces exactly what ``AnnBlocker(config)`` would generate.
    """
    if not 0.0 < recall_target <= 1.0:
        raise ValueError(
            f"recall_target must be in (0, 1], got {recall_target}"
        )
    if not signature_grid or not band_grid or not min_shared_grid:
        raise ValueError("tuning grids must be non-empty")

    encoded = _EncodedSources(sources, q)
    left_nonempty = _nonempty_mask(encoded.left_rows)
    right_nonempty = _nonempty_mask(encoded.right_rows)

    best_meeting: TunedAnnBlocking | None = None
    best_fallback: TunedAnnBlocking | None = None
    for n_hashes in sorted(set(signature_grid)):
        left_signatures = minhash_signatures(
            encoded.left_rows, n_hashes, seed
        )
        right_signatures = minhash_signatures(
            encoded.right_rows, n_hashes, seed
        )
        for bands in sorted(set(band_grid)):
            if bands > n_hashes or n_hashes % bands:
                continue
            left_keys = band_keys(left_signatures, bands)
            right_keys = band_keys(right_signatures, bands)
            for min_shared in sorted(set(min_shared_grid)):
                if min_shared > bands:
                    continue
                config = AnnConfig(
                    backend="lsh",
                    q=q,
                    n_hashes=n_hashes,
                    bands=bands,
                    min_shared_bands=min_shared,
                    max_bucket=max_bucket,
                    seed=seed,
                )
                left_idx, right_idx, __, __, __ = _lsh_candidate_indexes(
                    left_keys,
                    right_keys,
                    left_nonempty,
                    right_nonempty,
                    min_shared,
                    max_bucket,
                )
                result = evaluate_blocking(
                    (
                        (
                            encoded.left_records[i].record_id,
                            encoded.right_records[j].record_id,
                        )
                        for i, j in zip(left_idx.tolist(), right_idx.tolist())
                    ),
                    sources,
                )
                tuned = TunedAnnBlocking(config=config, result=result)
                if fallback_preferred(
                    result,
                    None if best_fallback is None else best_fallback.result,
                ):
                    best_fallback = tuned
                if result.pair_completeness >= recall_target and (
                    meeting_preferred(
                        result,
                        None if best_meeting is None else best_meeting.result,
                    )
                ):
                    best_meeting = tuned
    if best_meeting is not None:
        return best_meeting
    assert best_fallback is not None
    return best_fallback


# -- the provenance sweep -----------------------------------------------------


@dataclass(frozen=True)
class BackendProvenance:
    """One backend's blocking outcome on one source pair."""

    backend: str
    config: str
    result: BlockingResult
    cssr: float
    seconds: float

    @property
    def pair_completeness(self) -> float:
        return self.result.pair_completeness


def provenance_sweep(
    sources: SourcePair,
    recall_target: float = 0.9,
    seed: int = 0,
    q: int = 3,
    backends: tuple[str, ...] = ("exhaustive", "lsh", "graph"),
) -> dict[str, BackendProvenance]:
    """Recall/CSSR of each blocking backend on one source pair.

    CSSR is the candidate set size ratio ``|C| / (|D1| * |D2|)`` — the
    fraction of the cross product a backend examines downstream (Steorts
    et al.'s blocking-evaluation axis next to recall). ``exhaustive`` is
    the classic per-left-record :class:`~repro.blocking.qgram
    .QGramBlocker`; ``lsh`` is the :func:`tune_ann` winner (timing
    includes the tuning grid); ``graph`` is the default small-world
    configuration.
    """
    # Function-local import: the factory imports this module.
    from repro.blocking.factory import make_blocker

    cross = len(sources.left) * len(sources.right)
    outcome: dict[str, BackendProvenance] = {}

    def record(
        backend: str, config: str, result: BlockingResult, seconds: float
    ) -> None:
        outcome[backend] = BackendProvenance(
            backend=backend,
            config=config,
            result=result,
            cssr=result.n_candidates / cross if cross else 0.0,
            seconds=seconds,
        )

    if "exhaustive" in backends:
        blocker = make_blocker("exhaustive", q=q)
        started = time.perf_counter()
        result = evaluate_blocking(blocker.candidates(sources), sources)
        record(
            "exhaustive",
            f"qgram q={q} minc={blocker.min_common} "
            f"maxb={blocker.max_block_size}",
            result,
            time.perf_counter() - started,
        )
    if "lsh" in backends:
        started = time.perf_counter()
        tuned = tune_ann(
            sources, recall_target=recall_target, q=q, seed=seed
        )
        record(
            "lsh",
            tuned.config.describe(),
            tuned.result,
            time.perf_counter() - started,
        )
    if "graph" in backends:
        blocker = make_blocker("graph", q=q, seed=seed)
        started = time.perf_counter()
        result = evaluate_blocking(blocker.candidates(sources), sources)
        record(
            "graph",
            blocker.config.describe(),
            result,
            time.perf_counter() - started,
        )
    return outcome
