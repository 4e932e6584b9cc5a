"""Tests for the task-scoped embedder provider."""

from __future__ import annotations

from repro.data.derived import _STATE, release
from repro.embeddings.provider import (
    contextual_embedder_for_task,
    language_model_for_task,
    sentence_embedder_for_task,
    static_embedder_for_task,
)


class TestLanguageModelProvider:
    def test_model_cached_per_vocabulary(self, small_task):
        first = language_model_for_task(small_task)
        second = language_model_for_task(small_task)
        assert first is second

    def test_different_dimensions_distinct(self, small_task):
        small = language_model_for_task(small_task, dimension=16)
        large = language_model_for_task(small_task, dimension=32)
        assert small is not large
        assert small.dimension == 16 and large.dimension == 32

    def test_fallback_without_vocabulary(self, handmade_task):
        model = language_model_for_task(handmade_task)
        # No vocabulary: every token is OOV and embeds via subwords.
        assert model.token_concepts("widget") == []
        vector = model.token_vector("widget")
        assert vector.shape == (64,)

    def test_one_model_per_task_without_vocabulary(self, handmade_task):
        first = language_model_for_task(handmade_task)
        entries = len(_STATE[handmade_task])
        assert language_model_for_task(handmade_task) is first
        assert len(_STATE[handmade_task]) == entries

    def test_clear_cache(self, small_task):
        first = language_model_for_task(small_task)
        release(small_task)
        second = language_model_for_task(small_task)
        assert first is not second


class TestEmbedderFactories:
    def test_static(self, small_task):
        embedder = static_embedder_for_task(small_task)
        record = small_task.left.records()[0]
        assert embedder.embed_record(record).shape == (64,)

    def test_contextual_variants(self, small_task):
        bert = contextual_embedder_for_task(small_task, variant="B")
        roberta = contextual_embedder_for_task(small_task, variant="R")
        assert bert.variant == "B" and roberta.variant == "R"
        # Both share the underlying language model.
        assert bert.model is roberta.model

    def test_sentence_fitted_on_sources(self, small_task):
        embedder = sentence_embedder_for_task(small_task)
        record = small_task.right.records()[0]
        vector = embedder.embed_record(record)
        assert vector.shape == (64,)
