"""Dataset registry: id-based loading with in-process caching.

Dataset generation is deterministic but not free (hard-negative mining is
O(n * overlap)); the registry memoizes built datasets so the experiment
harness and the test suite can request the same benchmark repeatedly.
"""

from __future__ import annotations

from repro import obs
from repro.data.task import MatchingTask
from repro.datasets.established import (
    ESTABLISHED_ORDER,
    ESTABLISHED_PROFILES,
    build_established_task,
)
from repro.datasets.generator import SourcePair
from repro.datasets.sources import (
    NEW_BENCHMARK_LABELS,
    SOURCE_ORDER,
    SOURCE_PROFILES,
    build_source_pair,
)

#: The 13 established benchmark ids in Table III order.
ESTABLISHED_DATASET_IDS: tuple[str, ...] = ESTABLISHED_ORDER

#: The 8 Table V source-pair ids in D_n1..D_n8 order.
SOURCE_DATASET_IDS: tuple[str, ...] = SOURCE_ORDER

_task_cache: dict[tuple[str, float], MatchingTask] = {}
_source_cache: dict[tuple[str, float], SourcePair] = {}


def load_established_task(
    dataset_id: str, size_factor: float = 1.0
) -> MatchingTask:
    """Build (or fetch from cache) one of the 13 established benchmarks.

    A build runs inside a ``datasets.generate`` span; a cache hit opens none.
    """
    key = (dataset_id, size_factor)
    if key not in _task_cache:
        with obs.span("datasets.generate", dataset=dataset_id):
            _task_cache[key] = build_established_task(dataset_id, size_factor)
    return _task_cache[key]


def load_source_pair(dataset_id: str, size_factor: float = 1.0) -> SourcePair:
    """Build (or fetch from cache) one of the 8 Table V source pairs."""
    key = (dataset_id, size_factor)
    if key not in _source_cache:
        _source_cache[key] = build_source_pair(dataset_id, size_factor)
    return _source_cache[key]


def clear_cache() -> None:
    """Drop all cached datasets (used by tests that probe determinism)."""
    _task_cache.clear()
    _source_cache.clear()


__all__ = [
    "ESTABLISHED_DATASET_IDS",
    "ESTABLISHED_PROFILES",
    "NEW_BENCHMARK_LABELS",
    "SOURCE_DATASET_IDS",
    "SOURCE_PROFILES",
    "clear_cache",
    "load_established_task",
    "load_source_pair",
]
