"""Two-source clean-clean ER dataset generation and candidate-pair sampling.

The generator realizes the substitution described in DESIGN.md: it produces
datasets whose *difficulty structure* is controlled by three levers —
synonym divergence between the sources, token/attribute noise, and the
negative-pair sampling strategy (random negatives emulate loose blocking;
nearest-neighbour "hard" negatives emulate strict blocking).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.records import Record, RecordStore, Schema
from repro.data.splits import split_three_way
from repro.data.task import MatchingTask
from repro.datasets.entities import (
    RENDER_STREAM,
    DomainSpec,
    Entity,
    EntityFactory,
)
from repro.datasets.noise import NoiseModel
from repro.datasets.vocabulary import ConceptVocabulary


@dataclass(frozen=True)
class GeneratorProfile:
    """Everything needed to generate one two-source dataset.

    ``n_matches`` entities appear in both sources; ``left_extra`` /
    ``right_extra`` entities appear in one source only, so
    ``|D1| = n_matches + left_extra`` and ``|D2| = n_matches + right_extra``.

    ``synonym_rate_left`` / ``synonym_rate_right`` are the probabilities that
    a concept is rendered with a non-canonical surface form in the
    respective source: the higher the (combined) rate, the lower the lexical
    overlap between duplicates, and the bigger the advantage of the
    embedding-based matchers that know the synonym clusters.
    """

    name: str
    domain: DomainSpec
    n_matches: int
    left_extra: int
    right_extra: int
    synonym_rate_left: float = 0.0
    synonym_rate_right: float = 0.25
    noise_left: NoiseModel = field(default_factory=NoiseModel)
    noise_right: NoiseModel = field(default_factory=NoiseModel)
    family_fraction: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_matches < 1:
            raise ValueError(f"n_matches must be >= 1, got {self.n_matches}")
        if self.left_extra < 0 or self.right_extra < 0:
            raise ValueError("left_extra/right_extra must be >= 0")
        for rate_name in ("synonym_rate_left", "synonym_rate_right"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")


@dataclass(frozen=True)
class SourcePair:
    """Two duplicate-free sources plus the complete ground truth.

    ``matches`` holds (left_id, right_id) key pairs; because each entity
    appears at most once per source, matches form a partial 1:1 mapping —
    the record-linkage setting of the paper. ``vocabulary`` is the concept
    vocabulary the sources were rendered from; the synthetic language model
    treats it as its pre-training corpus (``None`` for externally loaded
    data, in which case embedders fall back to pure subword vectors).
    """

    name: str
    left: RecordStore
    right: RecordStore
    matches: frozenset[tuple[str, str]]
    vocabulary: "ConceptVocabulary | None" = None

    @property
    def n_matches(self) -> int:
        return len(self.matches)


class _Renderer:
    """Renders entities into records for one source."""

    def __init__(
        self,
        factory: EntityFactory,
        source: str,
        synonym_rate: float,
        noise: NoiseModel,
    ) -> None:
        self.factory = factory
        self.source = source
        self.synonym_rate = synonym_rate
        self.noise = noise

    def render(self, entity: Entity, rng: np.random.Generator) -> Record:
        values: dict[str, str] = {}
        for spec in self.factory.domain.attributes:
            if self.noise.drop_attribute(rng):
                values[spec.name] = ""
                continue
            tokens: list[str] = []
            for part in entity.parts[spec.name]:
                if part.literal is not None:
                    tokens.append(part.literal)
                    continue
                concept = self.factory.vocabulary.get(part.concept_id)
                if len(concept.surfaces) > 1 and rng.random() < self.synonym_rate:
                    alternatives = concept.surfaces[1:]
                    tokens.append(
                        alternatives[int(rng.integers(0, len(alternatives)))]
                    )
                else:
                    tokens.append(concept.canonical)
            tokens = self.noise.corrupt_tokens(tokens, rng)
            values[spec.name] = " ".join(tokens)
        values = self.noise.misplace_values(
            values, self.factory.domain.title_attribute, rng
        )
        return Record(
            record_id=f"{self.source}{entity.entity_id}",
            source=self.source,
            values=values,
        )


def generate_source_pair(
    profile: GeneratorProfile, shard_size: int | None = None
) -> SourcePair:
    """Generate the two sources and ground truth for *profile*.

    With ``shard_size=None`` (the default) generation runs the classic
    sequential-RNG path every existing profile and cached baseline was
    calibrated against. Passing a ``shard_size`` switches to the
    shard-deterministic path of :func:`generate_shard` and merges all
    shards into one :class:`SourcePair` — the records are bit-identical
    for **every** choice of ``shard_size`` (the ``repro.scale`` tentpole
    invariant), but form a different (equally valid) sample than the
    legacy path.
    """
    if shard_size is not None:
        return _generate_sharded(profile, shard_size)
    factory = EntityFactory(profile.domain, seed=profile.seed)
    rng = np.random.default_rng(profile.seed + 17)
    total = profile.n_matches + profile.left_extra + profile.right_extra
    entities = factory.generate(
        total, family_fraction=profile.family_fraction, rng=rng
    )
    shared = entities[: profile.n_matches]
    left_only = entities[profile.n_matches : profile.n_matches + profile.left_extra]
    right_only = entities[profile.n_matches + profile.left_extra :]

    schema = Schema(profile.domain.attribute_names())
    left_renderer = _Renderer(
        factory, "a", profile.synonym_rate_left, profile.noise_left
    )
    right_renderer = _Renderer(
        factory, "b", profile.synonym_rate_right, profile.noise_right
    )

    left = RecordStore(f"{profile.name}/A", schema)
    right = RecordStore(f"{profile.name}/B", schema)
    matches: set[tuple[str, str]] = set()
    for entity in shared:
        left_record = left_renderer.render(entity, rng)
        right_record = right_renderer.render(entity, rng)
        left.add(left_record)
        right.add(right_record)
        matches.add((left_record.record_id, right_record.record_id))
    for entity in left_only:
        left.add(left_renderer.render(entity, rng))
    for entity in right_only:
        right.add(right_renderer.render(entity, rng))
    return SourcePair(
        name=profile.name,
        left=left,
        right=right,
        matches=frozenset(matches),
        vocabulary=factory.vocabulary,
    )


# ---------------------------------------------------------------------------
# Shard-deterministic generation (repro.scale)
# ---------------------------------------------------------------------------


def total_entities(profile: GeneratorProfile) -> int:
    """How many latent entities *profile* describes (shared + extras)."""
    return profile.n_matches + profile.left_extra + profile.right_extra


def shard_count(profile: GeneratorProfile, shard_size: int) -> int:
    """Number of shards covering *profile* at *shard_size* entities each."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    total = total_entities(profile)
    return (total + shard_size - 1) // shard_size


def _render_rng(profile: GeneratorProfile, entity_index: int) -> np.random.Generator:
    """The render RNG of one entity: depends on the entity index only.

    Rendering draws (synonym choices, noise corruption) come from a
    per-entity stream — ``SeedSequence((seed, RENDER_STREAM, index))`` —
    so a record's bytes never depend on which shard rendered it. Shared
    entities render left first, then right, from the same stream.
    """
    return np.random.default_rng(
        np.random.SeedSequence((profile.seed, RENDER_STREAM, entity_index))
    )


def generate_shard(
    profile: GeneratorProfile,
    shard_index: int,
    shard_size: int,
    factory: EntityFactory | None = None,
) -> SourcePair:
    """Generate one shard of *profile* as a self-contained source pair.

    Shard ``k`` covers entity indexes ``[k * shard_size, (k+1) *
    shard_size)`` (clipped to the profile's total). Each entity derives
    its structure and render RNGs from ``(seed, stream, entity_index)``
    alone and family variants stay within fixed
    :data:`~repro.datasets.entities.FAMILY_BLOCK` blocks, so the records
    produced for an entity are bit-identical no matter how entities are
    grouped into shards. Matches never cross shards: a shared entity
    renders its left and right record in the same shard.

    Pass a pre-built *factory* to amortize vocabulary construction
    across shards (it is derived from the profile seed either way).
    Everything runs inside a ``datasets.shard_generate`` span.
    """
    with obs.span("datasets.shard_generate"):
        total = total_entities(profile)
        n_shards = shard_count(profile, shard_size)
        if not 0 <= shard_index < n_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range for {n_shards} shard(s)"
            )
        if factory is None:
            factory = EntityFactory(profile.domain, seed=profile.seed)
        lo = shard_index * shard_size
        hi = min(total, lo + shard_size)

        schema = Schema(profile.domain.attribute_names())
        left_renderer = _Renderer(
            factory, "a", profile.synonym_rate_left, profile.noise_left
        )
        right_renderer = _Renderer(
            factory, "b", profile.synonym_rate_right, profile.noise_right
        )
        left = RecordStore(f"{profile.name}/A[{shard_index}]", schema)
        right = RecordStore(f"{profile.name}/B[{shard_index}]", schema)
        matches: set[tuple[str, str]] = set()
        boundary = profile.n_matches + profile.left_extra
        for entity in factory.entity_range(lo, hi, profile.family_fraction):
            rng = _render_rng(profile, entity.entity_id)
            if entity.entity_id < profile.n_matches:
                left_record = left_renderer.render(entity, rng)
                right_record = right_renderer.render(entity, rng)
                left.add(left_record)
                right.add(right_record)
                matches.add((left_record.record_id, right_record.record_id))
            elif entity.entity_id < boundary:
                left.add(left_renderer.render(entity, rng))
            else:
                right.add(right_renderer.render(entity, rng))
        return SourcePair(
            name=f"{profile.name}[{shard_index}/{n_shards}]",
            left=left,
            right=right,
            matches=frozenset(matches),
            vocabulary=factory.vocabulary,
        )


def _generate_sharded(profile: GeneratorProfile, shard_size: int) -> SourcePair:
    """All shards of *profile*, merged back into one source pair."""
    factory = EntityFactory(profile.domain, seed=profile.seed)
    schema = Schema(profile.domain.attribute_names())
    left = RecordStore(f"{profile.name}/A", schema)
    right = RecordStore(f"{profile.name}/B", schema)
    matches: set[tuple[str, str]] = set()
    for shard_index in range(shard_count(profile, shard_size)):
        shard = generate_shard(profile, shard_index, shard_size, factory=factory)
        for record in shard.left:
            left.add(record)
        for record in shard.right:
            right.add(record)
        matches.update(shard.matches)
    return SourcePair(
        name=profile.name,
        left=left,
        right=right,
        matches=frozenset(matches),
        vocabulary=factory.vocabulary,
    )


def _token_index(
    records: Sequence[Record],
) -> tuple[dict[str, list[int]], list[int]]:
    """Token -> record positions, plus each record's distinct-token count."""
    index: dict[str, list[int]] = {}
    sizes: list[int] = []
    for position, record in enumerate(records):
        tokens = record.tokens()
        sizes.append(len(tokens))
        for token in tokens:
            index.setdefault(token, []).append(position)
    return index, sizes


def hard_negative_candidates(
    sources: SourcePair, per_left: int = 5
) -> list[tuple[float, str, str]]:
    """Most similar non-matching (left, right) pairs by token Jaccard.

    For every left record, the ``per_left`` highest-Jaccard non-matching
    right records are collected through an inverted token index (so only
    pairs sharing at least one token are scored). Returns
    (similarity, left_id, right_id) sorted by descending similarity —
    the pool that strict blocking would forward to matching.

    A pair's overlap count is its token intersection, so the Jaccard
    ``|L & R| / |L | R|`` comes from the index without re-tokenizing the
    right record.
    """
    right_records = sources.right.records()
    index, right_sizes = _token_index(right_records)
    results: list[tuple[float, str, str]] = []
    for left_record in sources.left:
        left_tokens = left_record.tokens()
        overlap_counts: dict[int, int] = {}
        for token in left_tokens:
            for position in index.get(token, ()):
                overlap_counts[position] = overlap_counts.get(position, 0) + 1
        scored: list[tuple[float, str]] = []
        for position, overlap in overlap_counts.items():
            right_id = right_records[position].record_id
            if (left_record.record_id, right_id) in sources.matches:
                continue
            union = len(left_tokens) + right_sizes[position] - overlap
            scored.append((overlap / union, right_id))
        scored.sort(key=lambda item: (-item[0], item[1]))
        for similarity, right_id in scored[:per_left]:
            results.append((similarity, left_record.record_id, right_id))
    results.sort(key=lambda item: (-item[0], item[1], item[2]))
    return results


def sample_candidate_pairs(
    sources: SourcePair,
    n_pairs: int,
    positive_fraction: float,
    hard_negative_fraction: float = 0.0,
    match_recall: float = 1.0,
    seed: int = 0,
) -> LabeledPairSet:
    """Build a labeled candidate-pair set from a source pair.

    Parameters
    ----------
    n_pairs:
        Total number of labeled pairs.
    positive_fraction:
        Fraction of pairs that are matches (the imbalance ratio of
        Table III). Capped by the available ground-truth matches.
    hard_negative_fraction:
        Fraction of the negatives drawn from the nearest-neighbour pool
        (strict blocking); the rest are uniform random non-matches (loose
        blocking).
    match_recall:
        Fraction of the *included* positives drawn from the full match set —
        modelling benchmarks whose blocking lost some duplicates.
    """
    if n_pairs < 2:
        raise ValueError(f"n_pairs must be >= 2, got {n_pairs}")
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError(
            f"positive_fraction must be in (0, 1), got {positive_fraction}"
        )
    if not 0.0 <= hard_negative_fraction <= 1.0:
        raise ValueError(
            f"hard_negative_fraction must be in [0, 1], got {hard_negative_fraction}"
        )
    if not 0.0 < match_recall <= 1.0:
        raise ValueError(f"match_recall must be in (0, 1], got {match_recall}")

    rng = np.random.default_rng(seed)
    sorted_matches = sorted(sources.matches)
    available_positives = int(round(len(sorted_matches) * match_recall))
    n_positives = min(int(round(n_pairs * positive_fraction)), available_positives)
    n_positives = max(n_positives, 1)
    n_negatives = n_pairs - n_positives

    chosen_indices = rng.choice(
        len(sorted_matches), size=n_positives, replace=False
    )
    positives = [sorted_matches[i] for i in sorted(chosen_indices)]

    negatives: list[tuple[str, str]] = []
    used: set[tuple[str, str]] = set(positives)
    n_hard = int(round(n_negatives * hard_negative_fraction))
    if n_hard:
        pool = hard_negative_candidates(sources, per_left=8)
        for __, left_id, right_id in pool:
            if len(negatives) >= n_hard:
                break
            key = (left_id, right_id)
            if key in used or key in sources.matches:
                continue
            used.add(key)
            negatives.append(key)

    left_ids = sources.left.ids()
    right_ids = sources.right.ids()
    attempts = 0
    max_attempts = 50 * n_negatives + 1000
    while len(negatives) < n_negatives and attempts < max_attempts:
        attempts += 1
        key = (
            left_ids[int(rng.integers(0, len(left_ids)))],
            right_ids[int(rng.integers(0, len(right_ids)))],
        )
        if key in used or key in sources.matches:
            continue
        used.add(key)
        negatives.append(key)
    if len(negatives) < n_negatives:
        raise RuntimeError(
            f"could only sample {len(negatives)} of {n_negatives} negatives "
            f"for {sources.name!r}"
        )

    pairs = LabeledPairSet()
    for left_id, right_id in positives:
        pairs.add(RecordPair(sources.left.get(left_id), sources.right.get(right_id)), 1)
    for left_id, right_id in negatives:
        pairs.add(RecordPair(sources.left.get(left_id), sources.right.get(right_id)), 0)
    return pairs


def build_task_from_sources(
    sources: SourcePair,
    n_pairs: int,
    positive_fraction: float,
    hard_negative_fraction: float = 0.0,
    match_recall: float = 1.0,
    seed: int = 0,
    name: str | None = None,
) -> MatchingTask:
    """Sample candidate pairs and split them 3:1:1 into a matching task."""
    pairs = sample_candidate_pairs(
        sources,
        n_pairs=n_pairs,
        positive_fraction=positive_fraction,
        hard_negative_fraction=hard_negative_fraction,
        match_recall=match_recall,
        seed=seed,
    )
    training, validation, testing = split_three_way(pairs, seed=seed + 1)
    return MatchingTask(
        name=name if name is not None else sources.name,
        left=sources.left,
        right=sources.right,
        training=training,
        validation=validation,
        testing=testing,
        metadata={
            "vocabulary": sources.vocabulary,
            # Provenance for Table VII: how much of the complete ground
            # truth the sampled candidate set retained (its PC), with PQ
            # being the imbalance ratio by definition.
            "n_source_matches": sources.n_matches,
        },
    )
