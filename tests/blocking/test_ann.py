"""Tests for the ANN blocking substrate (minhash LSH + small-world graph)."""

from __future__ import annotations

import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    AnnBlocker,
    AnnConfig,
    QGramBlocker,
    evaluate_blocking,
    make_index,
    provenance_sweep,
    tune_ann,
)
from repro.blocking import ann
from repro.blocking.ann import SmallWorldGraph
from repro.data.records import RecordStore, Schema
from repro.datasets.generator import SourcePair, build_task_from_sources
from repro.datasets.registry import SOURCE_DATASET_IDS, load_source_pair
from repro.datasets.sources import build_source_pair
from repro.serve import SessionConfig
from repro.text.kernels import (
    EMPTY_SIGNATURE,
    band_keys,
    minhash_params,
    minhash_signatures,
)
from tests.conftest import make_record


class TestMinhashKernels:
    def test_signature_shape_and_dtype(self):
        rows = [np.array([1, 2, 3], dtype=np.int64), np.array([4], dtype=np.int64)]
        signatures = minhash_signatures(rows, n_hashes=16, seed=0)
        assert signatures.shape == (2, 16)
        assert signatures.dtype == np.uint64

    def test_identical_sets_identical_signatures(self):
        a = np.array([10, 20, 30], dtype=np.int64)
        b = np.array([30, 10, 20, 10], dtype=np.int64)  # same set, dup/order
        signatures = minhash_signatures([a, b], n_hashes=64, seed=3)
        assert np.array_equal(signatures[0], signatures[1])

    def test_collision_rate_tracks_jaccard(self):
        # Signature agreement approximates Jaccard similarity: a pair
        # with J=0.8 must agree on far more hash positions than J=0.
        base = np.arange(100, dtype=np.int64)
        overlapping = np.arange(10, 110, dtype=np.int64)  # J ~ 0.82
        disjoint = np.arange(1000, 1100, dtype=np.int64)  # J = 0
        signatures = minhash_signatures(
            [base, overlapping, disjoint], n_hashes=256, seed=0
        )
        similar = float(np.mean(signatures[0] == signatures[1]))
        dissimilar = float(np.mean(signatures[0] == signatures[2]))
        assert similar > 0.6
        assert dissimilar < 0.1

    def test_empty_row_gets_sentinel(self):
        rows = [np.array([], dtype=np.int64), np.array([5], dtype=np.int64)]
        signatures = minhash_signatures(rows, n_hashes=8, seed=0)
        assert np.all(signatures[0] == EMPTY_SIGNATURE)
        assert not np.all(signatures[1] == EMPTY_SIGNATURE)

    def test_deterministic_per_seed(self):
        rows = [np.array([7, 8, 9], dtype=np.int64)]
        first = minhash_signatures(rows, n_hashes=32, seed=5)
        second = minhash_signatures(rows, n_hashes=32, seed=5)
        other = minhash_signatures(rows, n_hashes=32, seed=6)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_minhash_params_odd_multipliers(self):
        a, b = minhash_params(64, seed=0)
        assert a.dtype == np.uint64 and b.dtype == np.uint64
        assert np.all(a % np.uint64(2) == np.uint64(1))

    def test_band_keys_shape_and_validation(self):
        rows = [np.array([1, 2], dtype=np.int64)] * 3
        signatures = minhash_signatures(rows, n_hashes=16, seed=0)
        keys = band_keys(signatures, bands=4)
        assert keys.shape == (3, 4)
        with pytest.raises(ValueError):
            band_keys(signatures, bands=5)

    def test_band_keys_equal_for_equal_signatures(self):
        rows = [
            np.array([1, 2, 3], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
        ]
        signatures = minhash_signatures(rows, n_hashes=32, seed=1)
        keys = band_keys(signatures, bands=8)
        assert np.array_equal(keys[0], keys[1])


class TestAnnConfig:
    def test_defaults_valid(self):
        config = AnnConfig()
        assert config.backend == "lsh"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "faiss"},
            {"q": 0},
            {"n_hashes": 0},
            {"n_hashes": 64, "bands": 7},
            {"bands": 0},
            {"n_hashes": 64, "bands": 16, "min_shared_bands": 0},
            {"n_hashes": 64, "bands": 16, "min_shared_bands": 17},
            {"max_bucket": -1},
            {"k": 0},
            {"max_degree": 0},
            {"beam_width": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AnnConfig(**kwargs)

    def test_describe(self):
        lsh = AnnConfig(backend="lsh", n_hashes=64, bands=16, min_shared_bands=2)
        assert lsh.describe() == "lsh q=3 sig=64 bands=16 rows=4 shared>=2"
        graph = AnnConfig(backend="graph", k=5, max_degree=8, beam_width=16)
        assert graph.describe() == "graph q=3 K=5 deg=8 beam=16"


class TestAnnBlockerLsh:
    def test_deterministic(self, small_sources):
        config = AnnConfig(backend="lsh", n_hashes=64, bands=16)
        first = AnnBlocker(config).candidates(small_sources)
        second = AnnBlocker(config).candidates(small_sources)
        assert first == second

    def test_oriented_left_right(self, small_sources):
        config = AnnConfig(backend="lsh", n_hashes=64, bands=32)
        for left_id, right_id in AnnBlocker(config).candidates(small_sources):
            assert left_id in small_sources.left
            assert right_id in small_sources.right

    def test_finds_most_matches(self, small_sources):
        config = AnnConfig(backend="lsh", n_hashes=64, bands=32)
        result = evaluate_blocking(
            AnnBlocker(config).candidates(small_sources), small_sources
        )
        assert result.pair_completeness > 0.8

    def test_min_shared_bands_monotone(self, small_sources):
        # Demanding more shared buckets can only shrink the candidate set.
        loose = AnnBlocker(
            AnnConfig(backend="lsh", n_hashes=64, bands=16, min_shared_bands=1)
        ).candidates(small_sources)
        strict = AnnBlocker(
            AnnConfig(backend="lsh", n_hashes=64, bands=16, min_shared_bands=2)
        ).candidates(small_sources)
        assert strict <= loose

    def test_seed_changes_hash_family(self, small_sources):
        first = AnnBlocker(AnnConfig(seed=0)).candidates(small_sources)
        second = AnnBlocker(AnnConfig(seed=99)).candidates(small_sources)
        # Different hash families draw different bucket boundaries.
        assert first != second

    def test_max_bucket_zero_blocks_nothing(self, small_sources):
        config = AnnConfig(backend="lsh", max_bucket=0)
        assert AnnBlocker(config).candidates(small_sources) == set()


class TestAnnBlockerGraph:
    def test_deterministic(self, small_sources):
        config = AnnConfig(backend="graph", k=5)
        first = AnnBlocker(config).candidates(small_sources)
        second = AnnBlocker(config).candidates(small_sources)
        assert first == second

    def test_candidate_count_bounded_by_k(self, small_sources):
        config = AnnConfig(backend="graph", k=4)
        candidates = AnnBlocker(config).candidates(small_sources)
        assert len(candidates) <= 4 * len(small_sources.left)

    def test_oriented_left_right(self, small_sources):
        config = AnnConfig(backend="graph", k=3)
        for left_id, right_id in AnnBlocker(config).candidates(small_sources):
            assert left_id in small_sources.left
            assert right_id in small_sources.right

    def test_finds_most_matches(self, small_sources):
        result = evaluate_blocking(
            AnnBlocker(AnnConfig(backend="graph")).candidates(small_sources),
            small_sources,
        )
        assert result.pair_completeness > 0.7

    def test_search_interface(self, small_sources):
        index = make_index("graph", small_sources.right.records())
        record = next(iter(small_sources.left))
        result = index.search(record, 5)
        assert 0 < len(result) <= 5
        assert len(result.ids) == len(result.scores)
        for record_id in result.ids:
            assert record_id in small_sources.right
        assert list(result.scores) == sorted(result.scores, reverse=True)

    def test_search_self_retrieval(self, small_sources):
        # Querying with a record *of the indexed source* must retrieve
        # that record itself among the top hits (cosine 1.0 beats all).
        index = make_index("graph", small_sources.right.records())
        record = next(iter(small_sources.right))
        result = index.search(record, 3)
        assert record.record_id in result.ids
        assert max(result.scores) == pytest.approx(1.0)

    def test_insert_matches_rebuild(self, small_sources):
        # Appending records must answer bit-identically to an index
        # built over the full record list from scratch.
        records = small_sources.right.records()
        half = len(records) // 2
        grown = make_index("graph", records[:half])
        grown.insert(records[half:])
        rebuilt = make_index("graph", records)
        for probe in small_sources.left.records()[:15]:
            a, b = grown.search(probe, 5), rebuilt.search(probe, 5)
            assert a.ids == b.ids
            assert a.scores == b.scores

    def test_lsh_index_insert_matches_rebuild(self, small_sources):
        records = small_sources.right.records()
        half = len(records) // 2
        grown = make_index("lsh", records[:half])
        grown.insert(records[half:])
        rebuilt = make_index("lsh", records)
        for probe in small_sources.left.records()[:15]:
            a, b = grown.search(probe, 5), rebuilt.search(probe, 5)
            assert a.ids == b.ids
            assert a.scores == b.scores

    def test_insert_never_rebuilds(self, small_sources):
        from repro import obs as obs_package
        from repro.obs import Observability

        records = small_sources.right.records()
        with obs_package.use(Observability()) as o:
            index = make_index("graph", records[:20])
            index.insert(records[20:40])
            index.insert(records[40:60])
            assert o.metrics.counter("blocking.ann.index_builds") == 1.0
            assert o.metrics.counter("blocking.ann.index_inserts") == 40.0


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def _set_cosine(a, b) -> float:
    """Plain set cosine ``|a & b| / sqrt(|a| * |b|)`` (0 when either is empty)."""
    if not a or not b:
        return 0.0
    return len(set(a) & set(b)) / math.sqrt(len(set(a)) * len(set(b)))


def _grown_graph(rows, reseal_tail: int = ann.RESEAL_TAIL) -> SmallWorldGraph:
    """*rows* inserted one by one, re-sealing past *reseal_tail* tail nodes."""
    graph = SmallWorldGraph(max_degree=3, beam_width=4)
    with mock.patch.object(ann, "RESEAL_TAIL", reseal_tail):
        for row in rows:
            graph.add_row(np.array(sorted(row), dtype=np.int64))
    return graph


#: Ids 0..30 and 63, the last of the marker's initial 64 slots, are
#: indexable; 60..200 lie beyond every indexed row (but 63), and from 64
#: on also beyond the marker.
_ROWS = st.lists(
    st.frozensets(st.one_of(st.integers(0, 30), st.just(63)), max_size=10),
    min_size=1,
    max_size=24,
)
_PROBES = st.frozensets(
    st.one_of(st.integers(0, 30), st.integers(60, 200)), max_size=10
)
#: Re-seal thresholds small enough that the generated rows cross them.
_TAILS = st.integers(0, 6)


class TestSmallWorldKernel:
    @settings(max_examples=80, deadline=None)
    @given(_ROWS, _PROBES, _TAILS)
    def test_sims_match_set_cosine(self, rows, probe, reseal_tail):
        graph = _grown_graph(rows, reseal_tail)
        probe_ids = np.array(sorted(probe), dtype=np.int64)
        sims = graph._scores(probe_ids, len(probe))
        assert sims == [_set_cosine(probe, row) for row in rows]
        assert not graph._marker.any()
        found = graph.search(probe_ids, len(probe), 5)
        assert not graph._marker.any()
        for sim, node in found:
            assert sim == _set_cosine(probe, rows[node]) > 0.0

    @settings(max_examples=40, deadline=None)
    @given(_ROWS, _TAILS)
    def test_cached_edge_sims_are_symmetric_cosines(self, rows, reseal_tail):
        graph = _grown_graph(rows, reseal_tail)
        for node, (neighbors, sims) in enumerate(
            zip(graph._neighbors, graph._edge_sims)
        ):
            assert len(neighbors) == len(sims) <= graph.max_degree
            for other, sim in zip(neighbors, sims):
                assert sim == _set_cosine(rows[node], rows[other])
                assert sim == _set_cosine(rows[other], rows[node])

    def test_empty_rows_as_entry_points(self):
        # 16 nodes seed the beam at every even node plus the last; the
        # even rows are empty, so most entry points score 0.
        rows = [
            [] if node % 2 == 0 else [node, node + 1, node + 2]
            for node in range(16)
        ]
        probe = np.array([5, 6, 7], dtype=np.int64)
        for reseal_tail in (0, 5, ann.RESEAL_TAIL):
            graph = _grown_graph(rows, reseal_tail)
            entries = graph._entry_points()
            assert [node for node in entries if not rows[node]] == list(
                range(0, 16, 2)
            )
            sims = graph._scores(probe, 3)
            assert [sims[node] for node in entries] == [
                _set_cosine(probe.tolist(), rows[node]) for node in entries
            ]
            found = graph.search(probe, 3, 4)
            assert found and all(rows[node] for __, node in found)
            assert found[0] == (1.0, 5)

    def test_probe_without_known_ids_scores_nothing(self):
        unknown = np.array([90, 500], dtype=np.int64)
        for reseal_tail in (0, 1, ann.RESEAL_TAIL):
            graph = _grown_graph([[0, 1, 2], [1, 2, 3], [2, 3, 4]], reseal_tail)
            assert graph._scores(unknown, 2) == [0.0] * 3
            assert graph.search(unknown, 2, 3) == []
            # An empty probe (every code dropped by the index) with a
            # non-zero query size scores nothing and counts no evaluation.
            evals = graph.sim_evals
            assert graph.search(np.empty(0, dtype=np.int64), 4, 3) == []
            assert graph.sim_evals == evals
            assert not graph._marker.any()

    def test_grown_across_buffer_doubling_matches_rebuilt(self, small_sources):
        records = small_sources.right.records()
        grown = make_index("graph", records[:10])
        before = (len(grown.graph._flat), len(grown.graph._starts))
        grown.insert(records[10:])
        after = (len(grown.graph._flat), len(grown.graph._starts))
        assert after[0] > before[0] and after[1] > before[1]
        rebuilt = make_index("graph", records)
        assert grown.graph._neighbors == rebuilt.graph._neighbors
        assert grown.graph._edge_sims == rebuilt.graph._edge_sims
        rows = [grown.graph._row(node).tolist() for node in range(len(grown))]
        for node, (neighbors, sims) in enumerate(
            zip(grown.graph._neighbors, grown.graph._edge_sims)
        ):
            for other, sim in zip(neighbors, sims):
                assert sim == _set_cosine(rows[node], rows[other])
        for probe in small_sources.left.records()[:15]:
            a, b = grown.search(probe, 5), rebuilt.search(probe, 5)
            assert (a.ids, a.scores) == (b.ids, b.scores)

    def test_grown_across_reseals_with_searches_matches_rebuilt(
        self, small_sources
    ):
        # Single-record inserts with a search after each cross the
        # re-seal boundary twice; every score must stay the set cosine
        # and the final graph must equal one built in one shot.
        records = small_sources.right.records() + small_sources.left.records()
        probes = small_sources.left.records()[:15]
        grown = make_index("graph", records[:10])
        graph = grown.graph
        for step, record in enumerate(records[10:]):
            grown.insert([record])
            probe, size = grown.map_row(
                grown._store.rows([probes[step % len(probes)]], grown._view)[0]
            )
            rows = [set(graph._row(node).tolist()) for node in range(len(graph))]
            assert graph._scores(probe, size) == [
                len(set(probe.tolist()) & row) / math.sqrt(size * len(row))
                if row
                else 0.0
                for row in rows
            ]
            for sim, node in graph.search(probe, size, 5):
                assert sim == graph._scores(probe, size)[node] > 0.0
        assert 2 * ann.RESEAL_TAIL < graph._sealed < len(graph)
        rebuilt = make_index("graph", records)
        assert graph._neighbors == rebuilt.graph._neighbors
        assert graph._edge_sims == rebuilt.graph._edge_sims
        for probe in probes:
            a, b = grown.search(probe, 5), rebuilt.search(probe, 5)
            assert (a.ids, a.scores) == (b.ids, b.scores)


#: Digests of the small-world graph's outputs. The graph is exact and
#: deterministic, so any rewrite of its kernel must keep every one.
_SERVE_NEIGHBORS_DIGEST = "a65f048473f6875f"
_SERVE_PROBES_DIGEST = "d8e05fe9c4ff8d02"
_GRAPH_CANDIDATES_DIGESTS = {
    "abt_buy": (810, "2d226397e716d8bb"),
    "amazon_google": (1020, "8bcd9ed218f9c71c"),
    "dblp_acm": (1960, "8deab515d620c83d"),
    "imdb_tmdb": (1440, "92c4997de295281f"),
    "imdb_tvdb": (1410, "e2eb0266d877c7a2"),
    "tmdb_tvdb": (1110, "b7b15855ebc67543"),
    "walmart_amazon": (1660, "17dc27e696a22535"),
    "dblp_scholar": (1890, "f644ee77fe79f1b5"),
}


@pytest.fixture(scope="module")
def serve_graph():
    """The index ``repro serve dblp_scholar`` builds, with its task.

    Built over a fresh feature store: cosines do not depend on how codes
    are numbered, so it is the serve session's graph exactly.
    """
    task = build_task_from_sources(
        load_source_pair("dblp_scholar", 1.0),
        n_pairs=300,
        positive_fraction=0.25,
        seed=0,
    )
    config = SessionConfig(matcher="SA-ESDE", blocker="graph", k=10, seed=0)
    return task, make_index(config.ann_config(), task.right.records())


class TestGraphPin:
    def test_serve_index_neighbor_lists(self, serve_graph):
        __, index = serve_graph
        assert len(index) == 2377
        assert _digest(index.graph._neighbors) == _SERVE_NEIGHBORS_DIGEST

    def test_serve_index_top10(self, serve_graph):
        task, index = serve_graph
        answers = [
            [list(found.ids), [float(score).hex() for score in found.scores]]
            for found in (
                index.search(probe, 10) for probe in task.left.records()[:40]
            )
        ]
        assert _digest(answers) == _SERVE_PROBES_DIGEST

    @pytest.mark.parametrize("dataset_id", SOURCE_DATASET_IDS)
    def test_ann_blocker_candidates(self, dataset_id):
        result = AnnBlocker(AnnConfig(backend="graph")).candidate_result(
            load_source_pair(dataset_id, 0.3)
        )
        pairs = [list(pair) for pair in result.ids]
        scores = [float(score).hex() for score in result.scores]
        assert (len(result.ids), _digest([pairs, scores])) == (
            _GRAPH_CANDIDATES_DIGESTS[dataset_id]
        )


class TestTuneAnn:
    def test_meets_recall_target(self, small_sources):
        tuned = tune_ann(small_sources, recall_target=0.85)
        assert tuned.pair_completeness >= 0.85

    def test_tuned_config_reproduces_standalone(self, small_sources):
        # The determinism acceptance: rerunning the winning config from a
        # fresh blocker must rebuild the exact candidate set.
        tuned = tune_ann(small_sources, recall_target=0.85)
        standalone = AnnBlocker(tuned.config).candidates(small_sources)
        assert frozenset(standalone) == tuned.result.candidates

    def test_unreachable_target_returns_best_effort(self, small_sources):
        tuned = tune_ann(
            small_sources,
            recall_target=1.0,
            signature_grid=(16,),
            band_grid=(2,),
            min_shared_grid=(2,),
        )
        assert 0.0 <= tuned.pair_completeness <= 1.0

    def test_zero_match_sources_meet_any_target(self):
        # Integration of the vacuous-PC fix: with no true matches every
        # config meets the target, so the tuner picks the *smallest*
        # candidate set instead of falling back.
        schema = Schema(("name",))
        sources = SourcePair(
            name="no_matches",
            left=RecordStore(
                "L",
                schema,
                [make_record("a0", "L", name="alpha beta gamma")],
            ),
            right=RecordStore(
                "R",
                schema,
                [make_record("b0", "R", name="delta epsilon zeta")],
            ),
            matches=frozenset(),
        )
        tuned = tune_ann(sources, recall_target=0.9)
        assert tuned.pair_completeness == 1.0

    def test_largest_profile_meets_recall_and_cost_floors(self):
        # The largest generated profile at CI scale (629 x 2377 records):
        # tuned LSH must reach PC >= 0.9 with >= 10x fewer candidates
        # than the exhaustive q-gram baseline, and the winning config
        # must rebuild the same candidate set from a fresh blocker.
        sources = build_source_pair("dblp_scholar", 1.0)
        tuned = tune_ann(sources, recall_target=0.9, seed=0)
        lsh = evaluate_blocking(
            AnnBlocker(tuned.config).candidates(sources), sources
        )
        exhaustive = evaluate_blocking(
            QGramBlocker(q=3).candidates(sources), sources
        )
        assert lsh.candidates == tuned.result.candidates
        assert lsh.pair_completeness >= 0.9
        assert exhaustive.n_candidates >= 10 * lsh.n_candidates

    def test_invalid_args(self, small_sources):
        with pytest.raises(ValueError):
            tune_ann(small_sources, recall_target=0.0)
        with pytest.raises(ValueError):
            tune_ann(small_sources, signature_grid=())


class TestProvenanceSweep:
    def test_all_backends_present(self, small_sources):
        sweep = provenance_sweep(small_sources, recall_target=0.85)
        assert set(sweep) == {"exhaustive", "lsh", "graph"}
        for provenance in sweep.values():
            assert 0.0 <= provenance.cssr <= 1.0
            assert provenance.seconds >= 0.0
            assert provenance.config

    def test_lsh_prunes_the_cross_product(self, small_sources):
        sweep = provenance_sweep(small_sources, recall_target=0.85)
        assert sweep["lsh"].result.n_candidates < (
            len(small_sources.left) * len(small_sources.right)
        )

    def test_backend_subset(self, small_sources):
        sweep = provenance_sweep(
            small_sources, recall_target=0.85, backends=("exhaustive",)
        )
        assert set(sweep) == {"exhaustive"}
        baseline = evaluate_blocking(
            QGramBlocker(q=3).candidates(small_sources), small_sources
        )
        assert sweep["exhaustive"].result.n_candidates == baseline.n_candidates
