"""Convenience construction of embedders for a matching task.

The synthetic language model's "pre-training corpus" is the concept
vocabulary the task's sources were generated from, carried in
``task.metadata["vocabulary"]``. Tasks loaded from external files have no
vocabulary; the model then degrades gracefully to pure subword vectors —
the analogue of applying a pre-trained model to a domain it never saw.
"""

from __future__ import annotations

from repro.data.derived import derived
from repro.data.task import MatchingTask
from repro.datasets.vocabulary import ConceptVocabulary
from repro.embeddings.contextual import ContextualEmbedder
from repro.embeddings.lm import SyntheticLanguageModel
from repro.embeddings.sentence import SentenceEmbedder
from repro.embeddings.static import StaticEmbedder


def language_model_for_task(
    task: MatchingTask, dimension: int = 64
) -> SyntheticLanguageModel:
    """The shared synthetic LM of *task* (one per dimension).

    Token vectors are expensive enough to be worth sharing across
    matchers; the model is built once per task, with or without a
    vocabulary, and owned by :mod:`repro.data.derived`.
    """

    def build() -> SyntheticLanguageModel:
        vocabulary = task.metadata.get("vocabulary")
        if not isinstance(vocabulary, ConceptVocabulary):
            vocabulary = ConceptVocabulary(name=f"{task.name}-oov")
        return SyntheticLanguageModel(vocabulary, dimension=dimension, seed=0)

    return derived(task, ("language_model", dimension), build)


def static_embedder_for_task(
    task: MatchingTask, dimension: int = 64
) -> StaticEmbedder:
    """fastText-equivalent embedder for *task*."""
    return StaticEmbedder(language_model_for_task(task, dimension))


def contextual_embedder_for_task(
    task: MatchingTask, variant: str = "B", dimension: int = 64
) -> ContextualEmbedder:
    """BERT/RoBERTa-equivalent embedder for *task*."""
    return ContextualEmbedder(
        language_model_for_task(task, dimension), variant=variant
    )


def sentence_embedder_for_task(
    task: MatchingTask, dimension: int = 64
) -> SentenceEmbedder:
    """S-GTR-T5-equivalent embedder, fitted on both sources of *task*."""
    embedder = SentenceEmbedder(language_model_for_task(task, dimension))
    embedder.fit(list(task.left) + list(task.right))
    return embedder
