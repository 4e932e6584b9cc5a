"""ShardedSweep: reduction correctness, checkpoint/resume, state hygiene."""

from __future__ import annotations

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.blocking.base import evaluate_blocking
from repro.blocking.factory import make_blocker
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.datasets.generator import generate_shard
from repro.matchers.esde import EsdeMatcher
from repro.runtime.cache import read_envelope
from repro.runtime.guard import LEASE_NAME
from repro.runtime.journal import CheckpointJournal
from repro.runtime.state import SCALE_STATE
from repro.scale import (
    SCALE_REPORT_NAME,
    ScaleConfig,
    ShardedSweep,
    config_fingerprint,
)
from repro.scale.sweep import _ShardTask


@pytest.fixture(scope="module")
def config() -> ScaleConfig:
    return ScaleConfig(
        dataset_id="Ds2",
        records=800,
        shard_size=150,
        blocker="lsh",
        matcher="SA",
        seed=0,
        fit_pairs=200,
    )


@pytest.fixture(scope="module")
def clean_report(config):
    """One uninterrupted in-memory run (no cache dir) as the reference."""
    return ShardedSweep(config).run()


class TestReduction:
    def test_complete_run_covers_every_record(self, config, clean_report):
        assert clean_report.complete
        assert clean_report.n_shards == len(clean_report.shards)
        # records = 2 * matches + extras; profile rounding keeps it close.
        assert abs(clean_report.n_records - config.records) <= 3

    def test_metrics_are_exact_ratios_of_journaled_counts(self, clean_report):
        totals = clean_report.state()["totals"]
        assert clean_report.pair_completeness == pytest.approx(
            totals["block_tp"] / totals["n_matches"]
        )
        assert clean_report.pairs_quality == pytest.approx(
            totals["block_tp"] / totals["n_candidates"]
        )
        assert clean_report.precision == pytest.approx(
            totals["tp"] / (totals["tp"] + totals["fp"])
        )
        assert clean_report.recall == pytest.approx(
            totals["tp"] / (totals["tp"] + totals["fn"])
        )
        assert 0.0 < clean_report.f1 <= 1.0

    def test_reduction_matches_direct_recomputation(self, config, clean_report):
        """Re-derive every shard's counts outside the driver."""
        sweep = ShardedSweep(config)
        blocker = make_blocker(config.blocker)
        for stats in clean_report.shards:
            sources = generate_shard(
                sweep.profile, stats.shard_index, config.shard_size
            )
            blocking = evaluate_blocking(blocker.candidates(sources), sources)
            assert blocking.n_candidates == stats.n_candidates
            assert blocking.n_matching_candidates == stats.block_tp
            assert sources.n_matches == stats.n_matches
            matcher = EsdeMatcher.from_payload(
                clean_report.matcher_payload,
                _ShardTask(sources.left.schema.attributes),
            )
            pairs = LabeledPairSet()
            for left_id, right_id in sorted(blocking.candidates):
                pairs.add(
                    RecordPair(
                        sources.left.get(left_id),
                        sources.right.get(right_id),
                    ),
                    1 if (left_id, right_id) in sources.matches else 0,
                )
            if len(pairs):
                predictions = matcher.predict(pairs)
                labels = pairs.labels
                assert stats.tp == int(
                    np.sum((predictions == 1) & (labels == 1))
                )
                assert stats.fp == int(
                    np.sum((predictions == 1) & (labels == 0))
                )

    def test_missed_blocking_matches_count_as_false_negatives(
        self, clean_report
    ):
        for stats in clean_report.shards:
            assert stats.fn >= stats.n_matches - stats.block_tp

    def test_to_table_has_a_total_row(self, clean_report):
        headers, rows = clean_report.to_table()
        assert headers[0] == "shard"
        assert rows[-1][0] == "ALL"
        assert len(rows) == clean_report.n_shards + 1


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_state(
        self, config, clean_report, tmp_path
    ):
        state_dir = tmp_path / "state"
        partial = ShardedSweep(config, cache_dir=state_dir).run(max_shards=2)
        assert not partial.complete
        assert len(partial.shards) == 2
        # Mid-run state: journal has the fit + two shards, no report yet.
        assert not (state_dir / SCALE_REPORT_NAME).exists()

        resumed = ShardedSweep(config, cache_dir=state_dir).run()
        assert resumed.complete
        assert resumed.resumed_shards == 2
        assert resumed.state() == clean_report.state()
        assert (state_dir / SCALE_REPORT_NAME).exists()
        assert read_envelope(
            state_dir / SCALE_REPORT_NAME
        ) == clean_report.state()

    def test_torn_journal_tail_is_tolerated(self, config, clean_report, tmp_path):
        state_dir = tmp_path / "state"
        ShardedSweep(config, cache_dir=state_dir).run(max_shards=3)
        with (state_dir / SCALE_STATE.journal).open(
            "a", encoding="utf-8"
        ) as handle:
            handle.write('{"unit": "scale:shard:0000')  # SIGKILL mid-append
        resumed = ShardedSweep(config, cache_dir=state_dir).run()
        assert resumed.complete
        assert resumed.state() == clean_report.state()

    def test_completed_run_resumes_every_shard(self, config, tmp_path):
        state_dir = tmp_path / "state"
        first = ShardedSweep(config, cache_dir=state_dir).run()
        again = ShardedSweep(config, cache_dir=state_dir).run()
        assert again.resumed_shards == first.n_shards
        assert again.state() == first.state()

    def test_config_change_resets_stale_state(self, config, tmp_path):
        state_dir = tmp_path / "state"
        ShardedSweep(config, cache_dir=state_dir).run(max_shards=2)
        other = ScaleConfig(
            dataset_id=config.dataset_id,
            records=config.records,
            shard_size=config.shard_size,
            blocker=config.blocker,
            matcher=config.matcher,
            seed=config.seed + 1,  # different fingerprint
            fit_pairs=config.fit_pairs,
        )
        assert config_fingerprint(other) != config_fingerprint(config)
        report = ShardedSweep(other, cache_dir=state_dir).run()
        assert report.resumed_shards == 0
        assert report.complete
        manifest = read_envelope(state_dir / SCALE_STATE.manifest)
        assert manifest["fingerprint"] == config_fingerprint(other)

    def test_journal_entries_carry_the_fingerprint(self, config, tmp_path):
        state_dir = tmp_path / "state"
        ShardedSweep(config, cache_dir=state_dir).run(max_shards=1)
        journal = CheckpointJournal(state_dir / SCALE_STATE.journal)
        assert len(journal) >= 2  # the fit and at least one shard
        for unit in journal.completed:
            assert journal.info(unit)["fingerprint"] == config_fingerprint(config)


class TestStateLease:
    def test_second_sweep_never_resets_a_held_directory(
        self, config, clean_report, tmp_path, monkeypatch
    ):
        state_dir, reports = tmp_path / "state", {}
        first = ShardedSweep(config, cache_dir=state_dir)
        paused, proceed = threading.Event(), threading.Event()
        run_shard = first._run_shard

        def pausing_run_shard(index, *args):
            if index == 1:
                paused.set()
                proceed.wait(60)
            return run_shard(index, *args)

        def run(name, sweep):
            thread = threading.Thread(
                target=lambda: reports.update({name: sweep.run()})
            )
            thread.start()
            return thread

        monkeypatch.setattr(first, "_run_shard", pausing_run_shard)
        threads = [run("first", first)]
        try:
            assert paused.wait(60)  # the first sweep holds the lease
            journal = (state_dir / SCALE_STATE.journal).read_bytes()
            other = dataclasses.replace(config, seed=config.seed + 1)
            threads.append(run("second", ShardedSweep(other, cache_dir=state_dir)))
            time.sleep(0.5)
            # The second sweep waits for the lease instead of discarding
            # the holder's journal and manifest under it.
            assert (state_dir / SCALE_STATE.journal).read_bytes() == journal
            manifest = read_envelope(state_dir / SCALE_STATE.manifest)
            assert manifest["fingerprint"] == config_fingerprint(config)
        finally:
            proceed.set()
            for thread in threads:
                thread.join(120)
        assert not any(thread.is_alive() for thread in threads)
        assert reports["first"].state() == clean_report.state()
        assert reports["second"].complete and reports["second"].resumed_shards == 0

        # perfbench's scale-shards sequence in one process: a fit-only run,
        # then a fresh sweep object on the same directory. It only gets
        # the lease if run() released it on exit.
        fit_dir = tmp_path / "fit"
        ShardedSweep(config, cache_dir=fit_dir).run(max_shards=0)
        resumed = ShardedSweep(config, cache_dir=fit_dir).run()
        assert resumed.state() == clean_report.state()
        assert not (fit_dir / LEASE_NAME).exists()


class TestReportState:
    def test_state_excludes_wall_clock(self, clean_report):
        state = clean_report.state()
        assert "seconds" not in str(sorted(state["shards"][0]))
        for shard in state["shards"]:
            assert "seconds" not in shard

    def test_fit_payload_round_trips_in_state(self, clean_report):
        payload = clean_report.state()["matcher_payload"]
        assert payload["kind"] == "esde"
        assert payload["variant"] == "SA"
