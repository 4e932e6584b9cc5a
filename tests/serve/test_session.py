"""The session equivalence suite: parity, interleaving, snapshots, config."""

from __future__ import annotations

import dataclasses

import pytest

import repro
from repro import obs as obs_package
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.records import Record
from repro.datasets.generator import build_task_from_sources
from repro.experiments.matcher_suite import build_matcher
from repro.obs import Observability
from repro.serve import MatcherSession, QueryResult, SessionConfig, open_session
from repro.text.feature_store import store_for_task


@pytest.fixture(scope="module")
def serve_task(small_sources):
    # A dedicated task object: the session flips its feature store to
    # incremental mode, which must not leak into the shared fixture.
    return build_task_from_sources(
        small_sources,
        n_pairs=300,
        positive_fraction=0.25,
        seed=13,
        name="serve_task",
    )


@pytest.fixture(scope="module")
def session(serve_task):
    return open_session(serve_task, k=5)


def _clone(record: Record, new_id: str) -> Record:
    return Record(new_id, record.source, dict(record.values))


class TestSessionConfig:
    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.k = 3

    def test_kw_only(self):
        with pytest.raises(TypeError):
            SessionConfig("SA-ESDE")

    def test_validation(self):
        with pytest.raises(ValueError, match="matcher"):
            SessionConfig(matcher="")
        with pytest.raises(ValueError, match="blocker"):
            SessionConfig(blocker="exhaustive")
        with pytest.raises(ValueError, match="k"):
            SessionConfig(k=0)
        with pytest.raises(ValueError, match="bands"):
            SessionConfig(n_hashes=64, bands=48)

    def test_ann_config_mirrors_fields(self):
        config = SessionConfig(blocker="lsh", q=4, k=7, seed=3, bands=16)
        ann = config.ann_config()
        assert ann.backend == "lsh"
        assert (ann.q, ann.k, ann.seed, ann.bands) == (4, 7, 3, 16)

    def test_facade_exports(self):
        assert repro.SessionConfig is SessionConfig
        assert repro.MatcherSession is MatcherSession
        assert repro.open_session is open_session
        for name in ("MatcherSession", "SessionConfig", "open_session"):
            assert name in repro.__all__


class TestQueryParity:
    def test_query_batch_matches_offline_predictions(self, serve_task, session):
        """The tentpole invariant: serve == offline, bit for bit."""
        probes = serve_task.left.records()[:25]
        results = session.query_batch(probes)

        pair_set = LabeledPairSet()
        online: dict[tuple[str, str], int] = {}
        for probe, result in zip(probes, results):
            for record_id, verdict in zip(
                result.candidates.ids, result.predictions
            ):
                key = (probe.record_id, record_id)
                online[key] = verdict
                if key not in pair_set:
                    pair_set.add(
                        RecordPair(probe, serve_task.right.get(record_id)), 0
                    )

        offline = build_matcher(serve_task, session.config.matcher, 0)
        offline.fit(serve_task)
        predicted = offline.predict(pair_set)
        assert len(pair_set) > 0
        for pair, verdict in zip(pair_set.pairs, predicted.tolist()):
            assert int(verdict) == online[pair.key]

    def test_query_is_single_element_batch(self, serve_task, session):
        probe = serve_task.left.records()[0]
        single = session.query(probe)
        batch = session.query_batch([probe])[0]
        assert isinstance(single, QueryResult)
        assert single.candidates.ids == batch.candidates.ids
        assert single.predictions == batch.predictions

    def test_empty_batch(self, session):
        assert session.query_batch([]) == []

    def test_k_override_and_validation(self, serve_task, session):
        probe = serve_task.left.records()[1]
        assert len(session.query(probe, k=2).candidates) <= 2
        with pytest.raises(ValueError, match="k"):
            session.query(probe, k=0)


class TestIncrementalAdd:
    def test_add_then_query_without_rebuild(self, serve_task):
        with obs_package.use(Observability()) as o:
            local = open_session(serve_task, k=5)
            builds_after_open = o.metrics.counter("blocking.ann.index_builds")
            appends_after_open = o.metrics.counter(
                "features.incidence_appends"
            )
            incidences = {
                view: incidence
                for view, (__, incidence) in store_for_task(
                    serve_task
                )._incidences.items()
            }
            assert incidences  # the fit built the matcher's views
            donors = serve_task.right.records()[:6]
            probes = serve_task.left.records()[:5]
            # Interleave adds and queries; the index and incidence
            # structures must only ever append.
            for round_number, donor in enumerate(donors):
                added = local.add_records(
                    [_clone(donor, f"grown_{round_number}")]
                )
                assert added == 1
                result = local.query(_clone(donor, f"probe_{round_number}"))
                assert f"grown_{round_number}" in result.candidates.ids
                local.query_batch(probes)
            assert (
                o.metrics.counter("blocking.ann.index_builds")
                == builds_after_open
            )
            # Every view kept its incidence object and grew it in place.
            grown = store_for_task(serve_task)._incidences
            for view, incidence in incidences.items():
                assert grown[view][1] is incidence, view
            assert (
                o.metrics.counter("features.incidence_appends")
                > appends_after_open
            )
            assert o.metrics.counter("serve.records_added") == 6.0
            assert len(local) == len(serve_task.right) + 6

    def test_added_records_answer_like_rebuilt_session(self, serve_task):
        grown = open_session(serve_task, k=5)
        extra = [
            _clone(record, f"x{i}")
            for i, record in enumerate(serve_task.right.records()[10:20])
        ]
        grown.add_records(extra)
        probes = serve_task.left.records()[:10]
        grown_answers = grown.query_batch(probes)

        # A fresh session whose index was built over the grown record
        # list from scratch must answer identically.
        rebuilt = MatcherSession(
            serve_task,
            grown.config,
            records=list(grown.index.records),
        )
        for a, b in zip(grown_answers, rebuilt.query_batch(probes)):
            assert a.candidates.ids == b.candidates.ids
            assert a.candidates.scores == b.candidates.scores
            assert a.predictions == b.predictions

    def test_duplicate_id_rejected(self, serve_task):
        local = open_session(serve_task, k=3)
        existing = serve_task.right.records()[0]
        with pytest.raises(ValueError, match="already in session"):
            local.add_records([existing])

    def test_empty_add(self, session):
        assert session.add_records([]) == 0


class TestSnapshots:
    def test_save_load_round_trip(self, serve_task, tmp_path):
        original = open_session(serve_task, k=5)
        extra = [
            _clone(record, f"s{i}")
            for i, record in enumerate(serve_task.right.records()[:5])
        ]
        original.add_records(extra)
        path = tmp_path / "session.json"
        original.save(path)

        restored = MatcherSession.load(path)
        assert len(restored) == len(original)
        probes = serve_task.left.records()[:10]
        for a, b in zip(
            original.query_batch(probes), restored.query_batch(probes)
        ):
            assert a.candidates.ids == b.candidates.ids
            assert a.candidates.scores == b.candidates.scores
            assert a.predictions == b.predictions

    def test_load_rejects_non_session_payload(self, tmp_path):
        from repro.runtime.cache import write_envelope

        path = tmp_path / "other.json"
        write_envelope(path, {"format": "something-else"})
        with pytest.raises(ValueError, match="not a session snapshot"):
            MatcherSession.load(path)

    def test_restored_session_accepts_adds(self, serve_task, tmp_path):
        original = open_session(serve_task, k=3)
        path = tmp_path / "session.json"
        original.save(path)
        restored = MatcherSession.load(path)
        donor = serve_task.right.records()[3]
        restored.add_records([_clone(donor, "post_restore")])
        result = restored.query(_clone(donor, "probe"))
        assert "post_restore" in result.candidates.ids


class TestLifecycle:
    def test_stats_shape(self, serve_task, session):
        session.query(serve_task.left.records()[2])
        stats = session.stats()
        assert stats["records"] == len(session)
        assert stats["queries"] >= 1
        assert set(stats["latency"]) == {"block", "extract", "predict"}
        for phase in stats["latency"].values():
            assert {"count", "p50", "p99"} <= set(phase)

    def test_extract_latency_is_measured_with_observability_off(
        self, serve_task
    ):
        # The extract phase is the session store's own extraction time,
        # not the delta of a registry timer that a disabled instance
        # never moves.
        with obs_package.use(Observability(enabled=False)):
            local = open_session(serve_task, k=5)
            local.query_batch(serve_task.left.records()[:5])
        extract = local.latency["extract"]
        assert extract.count == 1
        assert extract.total > 0.0

    def test_closed_session_raises(self, serve_task):
        local = open_session(serve_task, k=3)
        with local:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            local.query(serve_task.left.records()[0])

    def test_open_session_overrides(self, serve_task):
        base = SessionConfig(k=4)
        patched = open_session(serve_task, base, k=2)
        assert patched.config.k == 2
        assert base.k == 4
