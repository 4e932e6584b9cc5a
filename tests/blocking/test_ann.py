"""Tests for the ANN blocking substrate (minhash LSH + small-world graph)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.blocking import (
    AnnBlocker,
    AnnConfig,
    QGramBlocker,
    evaluate_blocking,
    make_index,
    provenance_sweep,
    tune_ann,
)
from repro.data.records import RecordStore, Schema
from repro.datasets.generator import SourcePair
from repro.datasets.sources import build_source_pair
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
