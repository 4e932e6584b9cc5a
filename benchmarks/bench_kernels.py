"""Vectorized feature-kernel speedup: end-to-end ESDE extraction, ≥5x.

Times the full feature-extraction flow of one ESDE experiment on an
established dataset — fit extraction over the training and validation
splits plus predict extraction over a blocking-style candidate set (every
left record paired with ``CANDIDATES_PER_LEFT`` sampled right records) —
and compares two implementations of identical semantics:

* **scalar**: the per-pair oracle (``extractor.features(pair)`` in a
  Python loop, with the extractor's own per-record caches), which is the
  pre-vectorization behavior: fit and predict both walked every pair and
  computed the variant's full feature vector;
* **vector**: the batched path through the shared per-task
  :class:`~repro.text.feature_store.FeatureStore` —
  ``feature_matrix`` for the fit splits and the single-column
  ``feature_column`` fast path for predict.

Both paths must produce bit-identical features (asserted here, and more
exhaustively in ``tests/matchers/test_feature_parity.py``). DESIGN.md §9
budgets the vectorized flow at a ≥5x speedup for the q-gram profiles
(SAQ/SBQ); the assertion applies to the best rep of each side,
interleaved to absorb machine drift. The measured record is printed::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_kernels.py
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.task import MatchingTask
from repro.datasets import load_established_task
from repro.matchers.features import EsdeFeatureExtractor

DATASET = "Ds2"
VARIANTS = ("SAQ", "SBQ")
CANDIDATES_PER_LEFT = 25
#: Column extracted on the predict path (any valid index works; parity is
#: checked against the scalar oracle's same column).
PREDICT_COLUMN = 5
REPS = 2
SPEEDUP_FLOOR = 5.0


def _candidate_pairs(base: MatchingTask, seed: int = 0) -> LabeledPairSet:
    """A blocking-style candidate set: each left × sampled rights."""
    rights = list(base.right)
    rng = np.random.default_rng(seed)
    candidates = LabeledPairSet()
    for left in base.left:
        chosen = rng.choice(
            len(rights), size=CANDIDATES_PER_LEFT, replace=False
        )
        for index in chosen:
            candidates.add(RecordPair(left, rights[int(index)]), 0)
    return candidates


def _fresh_task(base: MatchingTask) -> MatchingTask:
    """A new task object so each measurement gets a fresh feature store."""
    return MatchingTask(
        "bench_kernels",
        base.left,
        base.right,
        base.training,
        base.validation,
        base.testing,
    )


def _scalar_flow(base, candidates, variant):
    """(seconds, matrices) for the per-pair oracle flow."""
    extractor = EsdeFeatureExtractor(variant, _fresh_task(base))
    task = extractor.task
    start = time.perf_counter()
    training = np.vstack([extractor.features(p) for p, __ in task.training])
    validation = np.vstack(
        [extractor.features(p) for p, __ in task.validation]
    )
    predict = np.vstack([extractor.features(p) for p in candidates.pairs])
    elapsed = time.perf_counter() - start
    return elapsed, (training, validation, predict[:, PREDICT_COLUMN])


def _vector_flow(base, candidates, variant):
    """(seconds, matrices) for the batched feature-store flow."""
    extractor = EsdeFeatureExtractor(variant, _fresh_task(base))
    task = extractor.task
    start = time.perf_counter()
    training = extractor.feature_matrix(task.training)
    validation = extractor.feature_matrix(task.validation)
    predict = extractor.feature_column(candidates, PREDICT_COLUMN)
    elapsed = time.perf_counter() - start
    return elapsed, (training, validation, predict)


def test_kernel_speedup():
    base = load_established_task(DATASET)
    candidates = _candidate_pairs(base)

    results = {}
    for variant in VARIANTS:
        # Warm-up rep pays allocator and import costs for both sides.
        _vector_flow(base, candidates, variant)
        scalar_seconds = float("inf")
        vector_seconds = float("inf")
        parity = True
        for __ in range(REPS):
            elapsed, scalar_out = _scalar_flow(base, candidates, variant)
            scalar_seconds = min(scalar_seconds, elapsed)
            elapsed, vector_out = _vector_flow(base, candidates, variant)
            vector_seconds = min(vector_seconds, elapsed)
            parity = parity and all(
                np.array_equal(scalar_block, vector_block)
                for scalar_block, vector_block in zip(scalar_out, vector_out)
            )
        results[variant] = {
            "scalar_seconds": round(scalar_seconds, 4),
            "vector_seconds": round(vector_seconds, 4),
            "speedup": round(scalar_seconds / vector_seconds, 2),
            "bit_identical": parity,
        }

    record = {
        "dataset": DATASET,
        "candidates_per_left": CANDIDATES_PER_LEFT,
        "candidate_pairs": len(candidates),
        "training_pairs": len(base.training),
        "validation_pairs": len(base.validation),
        "reps": REPS,
        "cpu_count": os.cpu_count(),
        "speedup_floor": SPEEDUP_FLOOR,
        "variants": results,
    }
    print()
    print(json.dumps(record, indent=2))

    for variant, result in results.items():
        assert result["bit_identical"], (
            f"{variant}: vectorized features differ from the scalar oracle"
        )
        assert result["speedup"] >= SPEEDUP_FLOOR, (
            f"{variant}: speedup {result['speedup']}x is below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
