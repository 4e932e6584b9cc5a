"""EMTransformer stand-in: dynamic + heterogeneous + local (Table II row 2).

Brunner & Stockinger apply a BERT-family model out of the box to the
sequence-pair "[CLS] seq1 [SEP] seq2 [SEP]": all attribute values of each
record are concatenated into one sequence (heterogeneous — misplaced values
cost nothing) and each pair is classified independently (local). The
``variant`` selects the checkpoint: "B" (BERT) or "R" (RoBERTa).

The representation feeds the head with the standard sentence-pair features
[u * v, |u - v|] plus their cosine — the information a fine-tuned CLS head
extracts from the two sequence encodings.
"""

from __future__ import annotations

import numpy as np

from repro.data.pairs import RecordPair
from repro.data.task import MatchingTask
from repro.embeddings.contextual import ContextualEmbedder
from repro.embeddings.distances import cosine_vector_similarity
from repro.embeddings.provider import contextual_embedder_for_task
from repro.matchers.deep.base import DeepMatcherBase, TrainingRun
from repro.matchers.deep.lexical import LexicalEvidence
from repro.text.tokenize import tokenize
from repro.text.vectorize import TfIdfVectorizer


class EMTransformerNet(DeepMatcherBase):
    """Sequence-pair classification over contextual record encodings."""

    def __init__(
        self,
        variant: str = "B",
        epochs: int = 15,
        seed: int = 0,
        training: TrainingRun | None = None,
    ) -> None:
        if variant not in ("B", "R"):
            raise ValueError(f"variant must be 'B' or 'R', got {variant!r}")
        super().__init__(
            name=f"EMTransformer-{variant} ({epochs})",
            epochs=epochs,
            seed=seed + (0 if variant == "B" else 1),
            training=training,
        )
        self.variant = variant
        self._embedder: ContextualEmbedder | None = None
        self._record_cache: dict[str, np.ndarray] = {}
        self._lexical: LexicalEvidence | None = None

    def _prepare(self, task: MatchingTask) -> None:
        self._embedder = contextual_embedder_for_task(task, variant=self.variant)
        self._record_cache = {}
        corpus = [
            tokenize(record.full_text())
            for record in list(task.left) + list(task.right)
        ]
        corpus = [tokens for tokens in corpus if tokens]
        self._lexical = LexicalEvidence(TfIdfVectorizer().fit(corpus))

    def _record_vector(self, record) -> np.ndarray:
        assert self._embedder is not None
        cached = self._record_cache.get(record.record_id)
        if cached is None:
            cached = self._embedder.embed_record(record)
            self._record_cache[record.record_id] = cached
        return cached

    def _represent(self, pair: RecordPair) -> np.ndarray:
        assert self._lexical is not None
        left = self._record_vector(pair.left)
        right = self._record_vector(pair.right)
        return np.concatenate(
            (
                left * right,
                np.abs(left - right),
                [cosine_vector_similarity(left, right)],
                self._lexical.features(pair),
            )
        )
