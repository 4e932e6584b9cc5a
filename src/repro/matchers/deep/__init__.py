"""Deep-learning matcher stand-ins, one per Table II taxonomy row.

Each matcher keeps its original's architectural signature:

* :class:`DeepMatcherNet` — static embeddings, homogeneous per-attribute
  similarity vectors, highway-MLP classifier (local).
* :class:`EMTransformerNet` — dynamic sequence-pair encoding of the
  concatenated record (heterogeneous, local); ``variant="B"``/``"R"``
  mirror the BERT / RoBERTa checkpoints.
* :class:`GnemNet` — the global method: candidate pairs that share a record
  form a graph and one gated propagation step mixes neighbouring match
  scores.
* :class:`DittoNet` — EMTransformer plus TF-IDF summarization of long
  sequences and training-set augmentation.
* :class:`HierMatcherNet` — hierarchical token -> attribute -> entity
  cross-attribute alignment on static embeddings.

All train a numpy MLP head with minibatch Adam; the validation set selects
the best epoch (the protocol Section V-B enforces). A :class:`TrainingRun`
lets instances of one network that differ only in epochs share that
training.
"""

from repro.matchers.deep.base import DeepMatcherBase, TrainingRun
from repro.matchers.deep.deepmatcher import DeepMatcherNet
from repro.matchers.deep.emtransformer import EMTransformerNet
from repro.matchers.deep.gnem import GnemNet
from repro.matchers.deep.ditto import DittoNet
from repro.matchers.deep.hiermatcher import HierMatcherNet

__all__ = [
    "DeepMatcherBase",
    "DeepMatcherNet",
    "DittoNet",
    "EMTransformerNet",
    "GnemNet",
    "HierMatcherNet",
    "TrainingRun",
]
