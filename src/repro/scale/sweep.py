"""Streaming sharded sweeps: blocking + matching at 10^5–10^6 records.

``ShardedSweep`` drives one :class:`~repro.scale.config.ScaleConfig`
through the full pipeline without ever materializing the dataset:

1. **Generate** shard ``k`` via :func:`~repro.datasets.generator
   .generate_shard` — per-entity RNG streams make the shard's records
   bit-identical to what a monolithic run would produce.
2. **Block** it with a :func:`~repro.blocking.factory.make_blocker`
   backend (ANN by default) and score PC/PQ counts against the shard's
   ground truth.
3. **Match** the candidates with an ESDE matcher fitted once on shard 0
   and persisted as a JSON payload, so every shard (and every resumed
   run) predicts with bit-identical thresholds. Feature extraction runs
   through a per-shard :class:`~repro.text.feature_store.FeatureStore`
   that dies with the shard — the memory ceiling is one shard, not one
   dataset.
4. **Checkpoint** the shard's counts through a
   :class:`~repro.runtime.state.StateDir` whose manifest carries the
   config fingerprint: the sweep holds the directory's lease while it
   runs, a SIGKILL mid-shard resumes at the last shard boundary, and
   ``repro doctor`` audits the journal against the manifest.
5. **Reduce** per-shard counts into dataset-level PC/PQ and matcher
   precision/recall/F1. Matches never cross shards (a shared entity
   renders both its records in one shard), so per-shard blocking loses no
   recall; cross-shard candidate pairs would only contribute negatives
   and are deliberately out of scope — documented in DESIGN.md §13.

Between phases the shared :class:`~repro.runtime.guard.ResourceGuard`
enforces ``--memory-budget`` / ``--disk-reserve``: a pressured
checkpoint aborts with ``BudgetExceeded`` at a shard boundary — never a
silent OOM kill.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro.blocking.base import evaluate_blocking
from repro.blocking.factory import make_blocker
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.splits import split_three_way
from repro.data.task import MatchingTask
from repro.datasets.entities import EntityFactory
from repro.datasets.generator import (
    SourcePair,
    generate_shard,
    shard_count,
)
from repro.matchers.esde import EsdeMatcher
from repro.runtime.cache import write_envelope
from repro.runtime.guard import ResourceGuard
from repro.runtime.state import SCALE_STATE, StateDir
from repro.scale.config import ScaleConfig, scale_profile

#: The final report, written beside the state directory's manifest and
#: journal once every shard is complete.
SCALE_REPORT_NAME = "scale.report.json"

_FIT_UNIT = "scale:fit"


def _shard_unit(shard_index: int) -> str:
    return f"scale:shard:{shard_index:05d}"


def config_fingerprint(config: ScaleConfig) -> str:
    """A short stable digest of everything that shapes the results."""
    key = repr((
        config.dataset_id,
        config.records,
        config.shard_size,
        config.blocker,
        config.matcher_variant,
        config.seed,
        config.fit_pairs,
    ))
    return hashlib.blake2b(key.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class ShardStats:
    """The reducible counts of one completed shard."""

    shard_index: int
    n_left: int
    n_right: int
    n_matches: int
    n_candidates: int
    block_tp: int  #: candidates that are true matches (PC/PQ numerator)
    tp: int
    fp: int
    fn: int
    seconds: float

    @property
    def n_records(self) -> int:
        return self.n_left + self.n_right

    def to_info(self) -> dict:
        """The journal ``info`` payload (JSON-clean, resume-identical)."""
        return {
            "shard_index": self.shard_index,
            "n_left": self.n_left,
            "n_right": self.n_right,
            "n_matches": self.n_matches,
            "n_candidates": self.n_candidates,
            "block_tp": self.block_tp,
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "seconds": round(self.seconds, 3),
        }

    @classmethod
    def from_info(cls, info: dict) -> "ShardStats":
        return cls(
            shard_index=int(info["shard_index"]),
            n_left=int(info["n_left"]),
            n_right=int(info["n_right"]),
            n_matches=int(info["n_matches"]),
            n_candidates=int(info["n_candidates"]),
            block_tp=int(info["block_tp"]),
            tp=int(info["tp"]),
            fp=int(info["fp"]),
            fn=int(info["fn"]),
            seconds=float(info["seconds"]),
        )


@dataclass(frozen=True)
class ScaleReport:
    """One sweep's reduced result: per-shard stats plus global metrics."""

    config: ScaleConfig
    fingerprint: str
    n_shards: int
    shards: tuple[ShardStats, ...]
    matcher_payload: dict
    resumed_shards: int

    @property
    def complete(self) -> bool:
        return len(self.shards) == self.n_shards

    @property
    def n_records(self) -> int:
        return sum(shard.n_records for shard in self.shards)

    @property
    def total_seconds(self) -> float:
        return sum(shard.seconds for shard in self.shards)

    @property
    def records_per_sec(self) -> float:
        seconds = self.total_seconds
        return self.n_records / seconds if seconds > 0 else 0.0

    @property
    def pair_completeness(self) -> float:
        matches = sum(shard.n_matches for shard in self.shards)
        if matches == 0:
            return 1.0
        return sum(shard.block_tp for shard in self.shards) / matches

    @property
    def pairs_quality(self) -> float:
        candidates = sum(shard.n_candidates for shard in self.shards)
        if candidates == 0:
            return 0.0
        return sum(shard.block_tp for shard in self.shards) / candidates

    @property
    def precision(self) -> float:
        tp = sum(shard.tp for shard in self.shards)
        fp = sum(shard.fp for shard in self.shards)
        return tp / (tp + fp) if tp + fp else 0.0

    @property
    def recall(self) -> float:
        tp = sum(shard.tp for shard in self.shards)
        fn = sum(shard.fn for shard in self.shards)
        return tp / (tp + fn) if tp + fn else 0.0

    @property
    def f1(self) -> float:
        precision, recall = self.precision, self.recall
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    def state(self) -> dict:
        """The *diffable* final table: deterministic, no wall-clock.

        Two runs of the same config — fresh, resumed after a SIGKILL,
        doctor-repaired — must produce equal states. Timings are
        excluded; every count and score is exact arithmetic over
        journaled integers.
        """
        return {
            "dataset_id": self.config.dataset_id,
            "records": self.config.records,
            "shard_size": self.config.shard_size,
            "blocker": self.config.blocker,
            "matcher": self.config.matcher_variant,
            "seed": self.config.seed,
            "fingerprint": self.fingerprint,
            "n_shards": self.n_shards,
            "complete": self.complete,
            "n_records": self.n_records,
            "matcher_payload": dict(self.matcher_payload),
            "totals": {
                "n_matches": sum(s.n_matches for s in self.shards),
                "n_candidates": sum(s.n_candidates for s in self.shards),
                "block_tp": sum(s.block_tp for s in self.shards),
                "tp": sum(s.tp for s in self.shards),
                "fp": sum(s.fp for s in self.shards),
                "fn": sum(s.fn for s in self.shards),
            },
            "pair_completeness": round(self.pair_completeness, 6),
            "pairs_quality": round(self.pairs_quality, 6),
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
            "shards": [
                {
                    key: value
                    for key, value in shard.to_info().items()
                    if key != "seconds"
                }
                for shard in self.shards
            ],
        }

    def to_table(self) -> tuple[list[str], list[list[str]]]:
        """(headers, rows) for :func:`repro.experiments.report.render`."""
        headers = [
            "shard", "records", "candidates", "PC", "PQ", "F1", "rec/s",
        ]
        rows: list[list[str]] = []
        for shard in self.shards:
            pc = (
                shard.block_tp / shard.n_matches if shard.n_matches else 1.0
            )
            pq = (
                shard.block_tp / shard.n_candidates
                if shard.n_candidates
                else 0.0
            )
            tp, fp, fn = shard.tp, shard.fp, shard.fn
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * p * r / (p + r) if p + r else 0.0
            rate = (
                shard.n_records / shard.seconds if shard.seconds > 0 else 0.0
            )
            rows.append([
                str(shard.shard_index),
                str(shard.n_records),
                str(shard.n_candidates),
                f"{pc:.3f}",
                f"{pq:.4f}",
                f"{f1:.3f}",
                f"{rate:,.0f}",
            ])
        rows.append([
            "ALL",
            str(self.n_records),
            str(sum(s.n_candidates for s in self.shards)),
            f"{self.pair_completeness:.3f}",
            f"{self.pairs_quality:.4f}",
            f"{self.f1:.3f}",
            f"{self.records_per_sec:,.0f}",
        ])
        return headers, rows


class _ShardTask:
    """The lightweight task shim shard prediction extracts features on.

    :class:`~repro.matchers.features.EsdeFeatureExtractor` needs only
    ``attributes`` and weak referenceability — the shard's
    :class:`~repro.text.feature_store.FeatureStore` is keyed weakly on
    this object, so dropping the shim frees the shard's token/q-gram
    planes (the scale mode memory ceiling).
    """

    def __init__(self, attributes: tuple[str, ...]) -> None:
        self.attributes = attributes


class ShardedSweep:
    """Drive one scale config shard-by-shard; see the module docstring."""

    def __init__(
        self, config: ScaleConfig, cache_dir: Path | str | None = None
    ) -> None:
        self.config = config
        self.fingerprint = config_fingerprint(config)
        self.profile = scale_profile(
            config.dataset_id, config.records, seed=config.seed
        )
        self.n_shards = shard_count(self.profile, config.shard_size)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.state = (
            StateDir(self.cache_dir, SCALE_STATE, fingerprint=self.fingerprint)
            if self.cache_dir is not None
            else None
        )
        self.guard = ResourceGuard(
            memory_budget_mb=config.memory_budget_mb,
            disk_reserve_mb=config.disk_reserve_mb,
            cache_dir=self.cache_dir,
        )
        self._factory = EntityFactory(
            self.profile.domain, seed=self.profile.seed
        )
        self._blocker = make_blocker(config.blocker)
        self.resumed_shards = 0

    # -- durable state ------------------------------------------------------

    def _journal_info(self, unit: str) -> dict | None:
        """A journaled unit's info, if it belongs to this config."""
        return self.state.info(unit) if self.state is not None else None

    def _commit(self, unit: str, info: dict) -> None:
        if self.state is not None:
            self.state.commit({unit: info})

    # -- fitting ------------------------------------------------------------

    def _fit_task(self, sources: SourcePair) -> MatchingTask:
        """A bounded matching task over shard 0's candidate pairs.

        Candidates come from the same blocker the sweep uses, labeled
        against the shard's ground truth, deterministically capped at
        ``fit_pairs`` (positives kept in full up to half the cap — this
        is where the small-split stratification fix matters: tiny
        positive classes must still reach validation and testing).
        """
        candidates = sorted(frozenset(self._blocker.candidates(sources)))
        positives = [key for key in candidates if key in sources.matches]
        negatives = [key for key in candidates if key not in sources.matches]
        if len(positives) < 3:
            raise RuntimeError(
                f"shard 0 of {self.profile.name} yielded only "
                f"{len(positives)} matching candidate pair(s); increase "
                "--shard-size or choose a higher-recall --blocker"
            )
        cap = self.config.fit_pairs
        rng = np.random.default_rng(self.config.seed)
        positives = positives[: max(3, cap // 2)]
        n_negatives = min(len(negatives), cap - len(positives))
        if n_negatives < 3:
            raise RuntimeError(
                f"shard 0 of {self.profile.name} yielded only "
                f"{len(negatives)} non-matching candidate pair(s); "
                "increase --shard-size"
            )
        chosen = rng.choice(len(negatives), size=n_negatives, replace=False)
        negatives = [negatives[i] for i in sorted(chosen)]

        pairs = LabeledPairSet()
        for left_id, right_id in positives:
            pairs.add(
                RecordPair(sources.left.get(left_id), sources.right.get(right_id)),
                1,
            )
        for left_id, right_id in negatives:
            pairs.add(
                RecordPair(sources.left.get(left_id), sources.right.get(right_id)),
                0,
            )
        training, validation, testing = split_three_way(
            pairs, seed=self.config.seed + 1
        )
        return MatchingTask(
            name=f"{self.profile.name}/fit",
            left=sources.left,
            right=sources.right,
            training=training,
            validation=validation,
            testing=testing,
        )

    def _fitted_payload(self, shard0: SourcePair | None) -> dict:
        """Fit on shard 0 (or reuse the journaled fit) -> matcher payload."""
        info = self._journal_info(_FIT_UNIT)
        if info is not None and isinstance(info.get("matcher"), dict):
            obs.inc("scale.fit_resumed")
            return info["matcher"]
        with obs.span("scale.fit", dataset=self.config.dataset_id):
            sources = (
                shard0
                if shard0 is not None
                else generate_shard(
                    self.profile, 0, self.config.shard_size, self._factory
                )
            )
            task = self._fit_task(sources)
            matcher = EsdeMatcher(self.config.matcher_variant)
            matcher.fit(task)
            payload = matcher.to_payload()
        self._commit(_FIT_UNIT, {"matcher": payload})
        return payload

    # -- per-shard pipeline --------------------------------------------------

    def _run_shard(
        self, shard_index: int, payload: dict, shard0: SourcePair | None
    ) -> ShardStats:
        start = time.perf_counter()
        with obs.span(
            "scale.shard",
            shard=shard_index,
            dataset=self.config.dataset_id,
        ):
            sources = (
                shard0
                if shard0 is not None and shard_index == 0
                else generate_shard(
                    self.profile,
                    shard_index,
                    self.config.shard_size,
                    self._factory,
                )
            )
            blocking = evaluate_blocking(
                self._blocker.candidates(sources), sources
            )

            # Label + predict the shard's candidates. The extractor hangs
            # off a per-shard shim task, so the FeatureStore (token and
            # q-gram planes, incidences) is freed with the shard.
            shard_task = _ShardTask(sources.left.schema.attributes)
            matcher = EsdeMatcher.from_payload(payload, shard_task)
            pairs = LabeledPairSet()
            for left_id, right_id in sorted(blocking.candidates):
                pairs.add(
                    RecordPair(
                        sources.left.get(left_id), sources.right.get(right_id)
                    ),
                    1 if (left_id, right_id) in sources.matches else 0,
                )
            if len(pairs):
                predictions = matcher.predict(pairs)
                labels = pairs.labels
                tp = int(np.sum((predictions == 1) & (labels == 1)))
                fp = int(np.sum((predictions == 1) & (labels == 0)))
                fn_candidates = int(np.sum((predictions == 0) & (labels == 1)))
            else:
                tp = fp = fn_candidates = 0
            # Matches the blocker dropped never reach the matcher: they
            # are false negatives of the end-to-end pipeline.
            fn = fn_candidates + (
                sources.n_matches - blocking.n_matching_candidates
            )
            stats = ShardStats(
                shard_index=shard_index,
                n_left=len(sources.left),
                n_right=len(sources.right),
                n_matches=sources.n_matches,
                n_candidates=blocking.n_candidates,
                block_tp=blocking.n_matching_candidates,
                tp=tp,
                fp=fp,
                fn=fn,
                seconds=time.perf_counter() - start,
            )
        obs.inc("scale.shards")
        obs.inc("scale.records", stats.n_records)
        if stats.seconds > 0:
            obs.gauge("scale.records_per_sec", stats.n_records / stats.seconds)
        return stats

    # -- driver --------------------------------------------------------------

    def run(self, max_shards: int | None = None) -> ScaleReport:
        """Run (or resume) the sweep; returns the reduced report.

        ``max_shards`` bounds how many shards this call processes (``0``
        only fits); a second ``run()`` picks up where the journal left
        off. The state directory's lease is held for the call: a second
        sweep on the same directory waits for it (or raises
        ``LeaseHeld``) before it may discard this one's state.
        """
        with self.state or nullcontext(), obs.span(
            "scale.sweep",
            dataset=self.config.dataset_id,
            records=self.config.records,
            shards=self.n_shards,
        ):
            if self.state is not None:
                self.state.open({
                    "dataset_id": self.config.dataset_id,
                    "records": self.config.records,
                    "shard_size": self.config.shard_size,
                    "blocker": self.config.blocker,
                    "matcher": self.config.matcher_variant,
                    "seed": self.config.seed,
                    "n_shards": self.n_shards,
                })
            self.resumed_shards = 0
            for warning in self.guard.preflight():
                obs.annotate(scale_preflight=warning)

            # Shard 0 does double duty (fit + first sweep shard) when the
            # fit is not already journaled; generate it once.
            shard0: SourcePair | None = None
            if (
                self._journal_info(_FIT_UNIT) is None
                and self._journal_info(_shard_unit(0)) is None
            ):
                shard0 = generate_shard(
                    self.profile, 0, self.config.shard_size, self._factory
                )
            payload = self._fitted_payload(shard0)

            stats: list[ShardStats] = []
            limit = self.n_shards if max_shards is None else min(
                self.n_shards, max_shards
            )
            processed = 0
            for shard_index in range(self.n_shards):
                unit = _shard_unit(shard_index)
                info = self._journal_info(unit)
                if info is not None:
                    stats.append(ShardStats.from_info(info))
                    self.resumed_shards += 1
                    continue
                if processed >= limit:
                    break
                self.guard.checkpoint(unit)
                shard_stats = self._run_shard(shard_index, payload, shard0)
                shard0 = None
                processed += 1
                stats.append(shard_stats)
                self._commit(unit, shard_stats.to_info())
            report = ScaleReport(
                config=self.config,
                fingerprint=self.fingerprint,
                n_shards=self.n_shards,
                shards=tuple(stats),
                matcher_payload=payload,
                resumed_shards=self.resumed_shards,
            )
            if self.cache_dir is not None and report.complete:
                write_envelope(
                    self.cache_dir / SCALE_REPORT_NAME, report.state()
                )
        return report


def run_scale_sweep(
    config: ScaleConfig, cache_dir: Path | str | None = None
) -> ScaleReport:
    """One-call convenience wrapper around :class:`ShardedSweep`."""
    return ShardedSweep(config, cache_dir=cache_dir).run()
