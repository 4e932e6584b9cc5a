"""Tests for the two-source generator and pair sampling."""

from __future__ import annotations

import pytest

from repro.datasets.entities import EntityFactory, bibliographic_domain, product_domain
from repro.datasets.generator import (
    GeneratorProfile,
    build_task_from_sources,
    generate_source_pair,
    hard_negative_candidates,
    sample_candidate_pairs,
)
from repro.datasets.established import ESTABLISHED_PROFILES, build_established_task
from repro.datasets.noise import NoiseModel
from repro.datasets.registry import ESTABLISHED_DATASET_IDS
from repro.text.similarity import jaccard_similarity


@pytest.fixture(scope="module")
def profile() -> GeneratorProfile:
    return GeneratorProfile(
        name="gen_test",
        domain=product_domain("gen_test"),
        n_matches=60,
        left_extra=20,
        right_extra=30,
        synonym_rate_right=0.3,
        noise_left=NoiseModel(typo_rate=0.02),
        noise_right=NoiseModel(typo_rate=0.05),
        seed=11,
    )


@pytest.fixture(scope="module")
def sources(profile):
    return generate_source_pair(profile)


class TestEntityFactory:
    def test_generates_requested_count(self):
        factory = EntityFactory(bibliographic_domain(), seed=0)
        entities = factory.generate(25)
        assert len(entities) == 25
        assert len({e.entity_id for e in entities}) == 25

    def test_entities_cover_all_attributes(self):
        domain = bibliographic_domain()
        factory = EntityFactory(domain, seed=0)
        entity = factory.generate(1)[0]
        assert set(entity.parts) == set(domain.attribute_names())

    def test_family_variants_share_title(self):
        domain = bibliographic_domain()
        factory = EntityFactory(domain, seed=1)
        entities = factory.generate(60, family_fraction=0.9)
        titles = [e.parts["title"] for e in entities]
        assert len(set(map(tuple, titles))) < len(titles)

    def test_no_families_when_fraction_zero(self):
        domain = product_domain()
        factory = EntityFactory(domain, seed=2)
        entities = factory.generate(40, family_fraction=0.0)
        names = {tuple(e.parts["name"]) for e in entities}
        assert len(names) == 40


class TestGenerateSourcePair:
    def test_sizes(self, sources, profile):
        assert len(sources.left) == profile.n_matches + profile.left_extra
        assert len(sources.right) == profile.n_matches + profile.right_extra
        assert sources.n_matches == profile.n_matches

    def test_matches_reference_real_records(self, sources):
        for left_id, right_id in sources.matches:
            assert left_id in sources.left
            assert right_id in sources.right

    def test_matching_records_are_similar(self, sources):
        similarities = [
            jaccard_similarity(
                sources.left.get(left_id).tokens(),
                sources.right.get(right_id).tokens(),
            )
            for left_id, right_id in sorted(sources.matches)[:30]
        ]
        assert sum(similarities) / len(similarities) > 0.3

    def test_deterministic(self, profile):
        first = generate_source_pair(profile)
        second = generate_source_pair(profile)
        assert first.matches == second.matches
        assert [r.values for r in first.left] == [r.values for r in second.left]

    def test_vocabulary_attached(self, sources):
        assert sources.vocabulary is not None

    def test_invalid_profile(self):
        with pytest.raises(ValueError):
            GeneratorProfile(
                name="bad", domain=product_domain(), n_matches=0,
                left_extra=0, right_extra=0,
            )


class TestHardNegatives:
    def test_sorted_by_similarity(self, sources):
        pool = hard_negative_candidates(sources, per_left=3)
        scores = [score for score, __, __ in pool]
        assert scores == sorted(scores, reverse=True)

    def test_excludes_matches(self, sources):
        pool = hard_negative_candidates(sources, per_left=3)
        keys = {(left_id, right_id) for __, left_id, right_id in pool}
        assert not keys & sources.matches


def token_rescoring_hard_negatives(sources, per_left):
    """The pool as first written: each overlapping right record re-tokenized."""
    right_records = sources.right.records()
    index: dict[str, list[int]] = {}
    for position, record in enumerate(right_records):
        for token in record.tokens():
            index.setdefault(token, []).append(position)
    results = []
    for left_record in sources.left:
        left_tokens = left_record.tokens()
        overlapping = {
            position for token in left_tokens for position in index.get(token, ())
        }
        scored = []
        for position in overlapping:
            right_record = right_records[position]
            if (left_record.record_id, right_record.record_id) in sources.matches:
                continue
            similarity = jaccard_similarity(left_tokens, right_record.tokens())
            scored.append((similarity, right_record.record_id))
        scored.sort(key=lambda item: (-item[0], item[1]))
        for similarity, right_id in scored[:per_left]:
            results.append((similarity, left_record.record_id, right_id))
    results.sort(key=lambda item: (-item[0], item[1], item[2]))
    return results


@pytest.mark.parametrize("dataset_id", ESTABLISHED_DATASET_IDS)
def test_hard_negatives_equal_token_rescoring_on_established_profiles(
    dataset_id, monkeypatch
):
    """Every pool an established build draws equals the rescoring oracle."""
    import repro.datasets.generator as generator

    compared = []

    def checked(sources, per_left=5):
        pool = hard_negative_candidates(sources, per_left)
        assert pool == token_rescoring_hard_negatives(sources, per_left)
        compared.append(len(pool))
        return pool

    monkeypatch.setattr(generator, "hard_negative_candidates", checked)
    build_established_task(dataset_id, size_factor=0.3)
    if ESTABLISHED_PROFILES[dataset_id].hard_negative_fraction > 0:
        assert compared


class TestSampleCandidatePairs:
    def test_counts_and_imbalance(self, sources):
        pairs = sample_candidate_pairs(
            sources, n_pairs=200, positive_fraction=0.2, seed=0
        )
        assert len(pairs) == 200
        assert pairs.positive_count == 40

    def test_positive_cap_by_matches(self, sources):
        pairs = sample_candidate_pairs(
            sources, n_pairs=400, positive_fraction=0.5, seed=0
        )
        assert pairs.positive_count == sources.n_matches

    def test_match_recall_limits_positives(self, sources):
        pairs = sample_candidate_pairs(
            sources, n_pairs=200, positive_fraction=0.5,
            match_recall=0.5, seed=0,
        )
        assert pairs.positive_count == round(sources.n_matches * 0.5)

    def test_hard_negatives_are_harder(self, sources):
        easy = sample_candidate_pairs(
            sources, n_pairs=150, positive_fraction=0.2,
            hard_negative_fraction=0.0, seed=1,
        )
        hard = sample_candidate_pairs(
            sources, n_pairs=150, positive_fraction=0.2,
            hard_negative_fraction=1.0, seed=1,
        )

        def mean_negative_similarity(pairs):
            values = [
                jaccard_similarity(pair.left.tokens(), pair.right.tokens())
                for pair, label in pairs
                if label == 0
            ]
            return sum(values) / len(values)

        assert mean_negative_similarity(hard) > mean_negative_similarity(easy) + 0.05

    def test_no_duplicates_no_matches_mislabeled(self, sources):
        pairs = sample_candidate_pairs(
            sources, n_pairs=250, positive_fraction=0.2,
            hard_negative_fraction=0.5, seed=2,
        )
        for pair, label in pairs:
            is_match = pair.key in sources.matches
            assert label == int(is_match)

    def test_invalid_args(self, sources):
        with pytest.raises(ValueError):
            sample_candidate_pairs(sources, n_pairs=1, positive_fraction=0.5)
        with pytest.raises(ValueError):
            sample_candidate_pairs(sources, n_pairs=10, positive_fraction=0.0)
        with pytest.raises(ValueError):
            sample_candidate_pairs(
                sources, n_pairs=10, positive_fraction=0.5, match_recall=0.0
            )


class TestBuildTask:
    def test_splits_and_metadata(self, sources):
        task = build_task_from_sources(
            sources, n_pairs=300, positive_fraction=0.2, seed=3
        )
        assert len(task.all_pairs()) == 300
        assert task.metadata["vocabulary"] is sources.vocabulary
        assert task.metadata["n_source_matches"] == sources.n_matches
        # 3:1:1 split
        assert len(task.training) == pytest.approx(180, abs=4)
        assert len(task.testing) == pytest.approx(60, abs=4)
