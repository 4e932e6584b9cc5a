"""The resident matching session: fitted matcher + incremental ANN index.

A :class:`MatcherSession` is the online counterpart of
:class:`~repro.experiments.runner.ExperimentRunner`: where the runner
rebuilds blocking structures and feature caches per experiment, the
session builds them **once** and then only appends. The three invariants
the test suite pins:

1. **Prediction parity** — ``query_batch`` routes candidate pairs through
   the same extractor and matcher ``predict`` path as the offline runner,
   so predictions on the same pairs are bit-identical.
2. **No rebuilds** — ``add_records`` appends to the small-world graph /
   LSH buckets, and the feature store's per-view incidence (append-only
   on every path, see :mod:`repro.text.feature_store`) grows in place:
   ``blocking.ann.index_builds`` stays flat after construction, and each
   view keeps the same incidence object while
   ``features.incidence_appends`` grows.
3. **Snapshot fidelity** — ``save``/``load`` round-trips through the
   checksummed envelope format; the restored session re-interns records
   in the original insertion order, so its index answers identically.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro import obs
from repro.blocking.ann import AnnConfig
from repro.blocking.base import Candidates
from repro.blocking.factory import INDEX_SPECS, make_index
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.records import Record
from repro.matchers.esde import EsdeMatcher
from repro.obs.metrics import LatencyHistogram
from repro.runtime.cache import read_envelope, write_envelope
from repro.text.feature_store import store_for_task

#: ``format`` marker inside session snapshot envelopes.
SESSION_FORMAT = "repro.serve.session"
SESSION_VERSION = 1

#: The latency phases every session tracks (ISSUE: block/extract/predict).
PHASES = ("block", "extract", "predict")


@dataclass(frozen=True, kw_only=True)
class SessionConfig:
    """Frozen, keyword-only configuration of a matching session.

    Mirrors :class:`~repro.experiments.runner.RunnerConfig`: constructed
    once, validated eagerly, immutable afterwards. The ANN knobs are the
    :class:`~repro.blocking.ann.AnnConfig` fields verbatim;
    :meth:`ann_config` materializes them (and :meth:`__post_init__`
    delegates their validation to ``AnnConfig``'s own).
    """

    matcher: str = "SA-ESDE"
    blocker: str = "graph"
    k: int = 10
    q: int = 3
    seed: int = 0
    n_hashes: int = 128
    bands: int = 32
    min_shared_bands: int = 1
    max_bucket: int | None = 200
    max_degree: int = 16
    beam_width: int = 32

    def __post_init__(self) -> None:
        if not isinstance(self.matcher, str) or not self.matcher:
            raise ValueError(f"matcher must be a non-empty name, got {self.matcher!r}")
        if self.blocker not in INDEX_SPECS:
            raise ValueError(
                f"blocker must be one of {INDEX_SPECS}, got {self.blocker!r}"
            )
        self.ann_config()  # eager validation of every ANN knob

    def ann_config(self) -> AnnConfig:
        """The ANN index configuration these session knobs denote."""
        return AnnConfig(
            backend=self.blocker,
            q=self.q,
            n_hashes=self.n_hashes,
            bands=self.bands,
            min_shared_bands=self.min_shared_bands,
            max_bucket=self.max_bucket,
            k=self.k,
            max_degree=self.max_degree,
            beam_width=self.beam_width,
            seed=self.seed,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class QueryResult:
    """One query's answer: ranked candidates plus per-candidate verdicts."""

    query_id: str
    candidates: Candidates
    predictions: tuple[int, ...]

    @property
    def matches(self) -> tuple[str, ...]:
        """Candidate record ids the matcher classified as matches."""
        return tuple(
            record_id
            for record_id, verdict in zip(self.candidates.ids, self.predictions)
            if verdict
        )

    def to_dict(self) -> dict:
        return {
            "query_id": self.query_id,
            "candidates": list(self.candidates.ids),
            "scores": [round(float(s), 6) for s in self.candidates.scores],
            "predictions": list(self.predictions),
            "matches": list(self.matches),
        }


class _ServingTask:
    """Minimal stand-in for a :class:`~repro.data.task.MatchingTask`.

    Restored sessions have no training/validation splits — the extractor
    only needs ``attributes`` plus weak referenceability (it resolves its
    :class:`~repro.text.feature_store.FeatureStore` through the task via
    :func:`~repro.text.feature_store.store_for_task`).
    """

    __slots__ = ("name", "attributes", "__weakref__")

    def __init__(self, name: str, attributes: Sequence[str]) -> None:
        self.name = name
        self.attributes = tuple(attributes)


class MatcherSession:
    """A long-lived matcher + index answering queries incrementally.

    Built from a :class:`~repro.data.task.MatchingTask` (fit path) or
    restored via :meth:`load`. The session fits the matcher with the
    ordinary offline path *first*, then switches the task's feature
    store to incremental mode and builds the ANN index over the task's
    right-hand records — every later :meth:`add_records` and query only
    appends.
    """

    def __init__(
        self,
        task,
        config: SessionConfig | None = None,
        *,
        matcher=None,
        records: Sequence[Record] | None = None,
    ) -> None:
        self.config = config if config is not None else SessionConfig()
        self._task = task  # keeps the store_for_task weakref entry alive
        if matcher is None:
            from repro.experiments.matcher_suite import build_matcher

            matcher = build_matcher(task, self.config.matcher, self.config.seed)
        if not getattr(matcher, "_fitted", False):
            with obs.timed("serve.fit_seconds"):
                matcher.fit(task)
        self._matcher = matcher
        self._store = store_for_task(task)
        if records is None:
            records = task.right.records()
        with obs.timed("serve.index_build_seconds"):
            self._index = make_index(
                self.config.ann_config(), records, store=self._store
            )
        self._records: dict[str, Record] = {
            record.record_id: record for record in self._index.records
        }
        self.latency: dict[str, LatencyHistogram] = {
            phase: LatencyHistogram() for phase in PHASES
        }
        self._queries = 0
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Mark the session closed; further calls raise RuntimeError."""
        self._closed = True

    def __enter__(self) -> "MatcherSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def __len__(self) -> int:
        """Number of records resident in the index."""
        return len(self._records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._records

    @property
    def matcher(self):
        return self._matcher

    @property
    def index(self):
        return self._index

    # -- incremental writes ------------------------------------------------

    def add_records(self, records: Iterable[Record]) -> int:
        """Append *records* to the resident index; returns the count added.

        Tokenization/q-gramming happens once (inside the shared feature
        store); the ANN index and incidence structures grow in place —
        the ``blocking.ann.index_builds`` counter does not move.
        """
        self._ensure_open()
        batch = list(records)
        for record in batch:
            if record.record_id in self._records:
                raise ValueError(
                    f"record id {record.record_id!r} already in session"
                )
        if not batch:
            return 0
        self._index.insert(batch)
        for record in batch:
            self._records[record.record_id] = record
        obs.inc("serve.records_added", float(len(batch)))
        return len(batch)

    # -- queries -----------------------------------------------------------

    def query(self, record: Record, k: int | None = None) -> QueryResult:
        """Match one probe record against the resident index."""
        return self.query_batch([record], k)[0]

    def query_batch(
        self, records: Sequence[Record], k: int | None = None
    ) -> list[QueryResult]:
        """Match a batch of probe records, coalescing the predict call.

        All queries' candidate pairs are deduplicated by ``(left_id,
        right_id)`` and routed through **one** matcher ``predict`` — one
        vectorized feature-kernel pass — then fanned back out per query.
        Three latency phases are recorded: ``block`` (ANN probe wall
        time), ``extract`` (feature-kernel seconds inside predict, read
        from the delta of the session store's ``extract_seconds``) and
        ``predict`` (the classification remainder).
        """
        self._ensure_open()
        top_k = self.config.k if k is None else int(k)
        if top_k < 1:
            raise ValueError(f"k must be >= 1, got {top_k}")
        probes = list(records)
        if not probes:
            return []

        started = time.perf_counter()
        candidate_lists = [self._index.search(probe, top_k) for probe in probes]
        block_seconds = time.perf_counter() - started
        self.latency["block"].observe(block_seconds)
        obs.observe("serve.block_seconds", block_seconds)

        # Coalesce: every distinct (probe, candidate) pair exactly once.
        pair_set = LabeledPairSet()
        seen: set[tuple[str, str]] = set()
        for probe, result in zip(probes, candidate_lists):
            for record_id in result.ids:
                key = (probe.record_id, record_id)
                if key in seen:
                    continue
                seen.add(key)
                pair_set.add(RecordPair(probe, self._records[record_id]), 0)

        verdicts: dict[tuple[str, str], int] = {}
        extract_seconds = 0.0
        classify_seconds = 0.0
        if len(pair_set):
            extract_before = self._store.extract_seconds
            started = time.perf_counter()
            predicted = self._matcher.predict(pair_set)
            predict_wall = time.perf_counter() - started
            extract_seconds = self._store.extract_seconds - extract_before
            classify_seconds = max(0.0, predict_wall - extract_seconds)
            verdicts = {
                pair.key: int(verdict)
                for pair, verdict in zip(pair_set.pairs, predicted.tolist())
            }
        self.latency["extract"].observe(extract_seconds)
        self.latency["predict"].observe(classify_seconds)
        obs.observe("serve.extract_seconds", extract_seconds)
        obs.observe("serve.predict_seconds", classify_seconds)
        self._queries += len(probes)
        obs.inc("serve.queries", float(len(probes)))

        results = []
        for probe, result in zip(probes, candidate_lists):
            predictions = tuple(
                verdicts[(probe.record_id, record_id)] for record_id in result.ids
            )
            results.append(
                QueryResult(
                    query_id=probe.record_id,
                    candidates=result,
                    predictions=predictions,
                )
            )
        return results

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready session summary: sizes, counts, latency quantiles."""
        return {
            "records": len(self._records),
            "queries": self._queries,
            "matcher": getattr(self._matcher, "name", self.config.matcher),
            "blocker": self.config.blocker,
            "latency": {
                phase: histogram.to_dict()
                for phase, histogram in self.latency.items()
            },
        }

    # -- snapshots ---------------------------------------------------------

    def save(self, path: Path | str) -> None:
        """Snapshot the session onto the checksummed envelope format.

        Persists the config, the matcher's fitted decision state and the
        indexed records **in insertion order** — replaying that order at
        load time re-interns identically, so the restored index answers
        bit-identically to this one.
        """
        self._ensure_open()
        if not hasattr(self._matcher, "to_payload"):
            raise ValueError(
                f"matcher {self.config.matcher!r} does not support "
                "session snapshots (no to_payload)"
            )
        payload = {
            "format": SESSION_FORMAT,
            "version": SESSION_VERSION,
            "task_name": getattr(self._task, "name", "session"),
            "attributes": list(self._task.attributes),
            "config": self.config.to_dict(),
            "matcher": self._matcher.to_payload(),
            "records": [
                {
                    "record_id": record.record_id,
                    "source": record.source,
                    "values": dict(record.values),
                }
                for record in self._index.records
            ],
        }
        write_envelope(Path(path), payload)
        obs.inc("serve.snapshots")

    @classmethod
    def load(cls, path: Path | str) -> "MatcherSession":
        """Restore a session from a :meth:`save` snapshot."""
        payload = read_envelope(Path(path))
        if not isinstance(payload, dict) or payload.get("format") != SESSION_FORMAT:
            raise ValueError(f"{path}: not a session snapshot")
        if payload.get("version") != SESSION_VERSION:
            raise ValueError(
                f"{path}: unsupported session version {payload.get('version')!r}"
            )
        config = SessionConfig(**payload["config"])
        shim = _ServingTask(payload["task_name"], payload["attributes"])
        matcher_payload = payload["matcher"]
        if matcher_payload.get("kind") != "esde":
            raise ValueError(
                f"{path}: unknown matcher kind {matcher_payload.get('kind')!r}"
            )
        matcher = EsdeMatcher.from_payload(matcher_payload, shim)
        records = [
            Record(entry["record_id"], entry["source"], entry["values"])
            for entry in payload["records"]
        ]
        session = cls(shim, config, matcher=matcher, records=records)
        obs.inc("serve.snapshot_loads")
        return session


def open_session(
    task, config: SessionConfig | None = None, **overrides
) -> MatcherSession:
    """Open a matching session over *task*.

    Keyword overrides patch individual :class:`SessionConfig` fields::

        session = open_session(task, matcher="SAQ-ESDE", k=5)
    """
    if config is None:
        config = SessionConfig(**overrides)
    elif overrides:
        config = dataclasses.replace(config, **overrides)
    return MatcherSession(task, config)
