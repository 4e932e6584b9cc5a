"""The one owner of per-task derived state.

A task's feature store, lexical evidence and language models are built
from the task on first use and shared by every consumer of that task
(:func:`~repro.text.feature_store.store_for_task`,
:func:`~repro.matchers.deep.lexical.lexical_evidence_for_task`,
:func:`~repro.embeddings.provider.language_model_for_task`). They live
here, keyed weakly on the task object, so they go away in one of two ways:

* the task is garbage collected (serving sessions and scale mode's
  per-shard shim tasks rely on this);
* :func:`release` drops the task's entries while the task lives on. The
  dataset registry keeps every built task for the process, so
  :class:`~repro.experiments.runner.ExperimentRunner` releases a dataset's
  entries when its outermost per-dataset call returns.

Releasing only removes references. It never clears or mutates the
objects: a holder (a live session, or a unit abandoned at its deadline)
keeps using what it already has, and the next lookup builds afresh.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable, Hashable
from typing import TypeVar

T = TypeVar("T")

_STATE: "weakref.WeakKeyDictionary[object, dict[Hashable, object]]" = (
    weakref.WeakKeyDictionary()
)


def derived(task: object, key: Hashable, build: Callable[[], T]) -> T:
    """The entry *key* of *task*, built by ``build()`` on first use.

    *key* names the kind of state and its parameters, for example
    ``("language_model", 64)``.
    """
    entries = _STATE.get(task)
    if entries is None:
        entries = _STATE.setdefault(task, {})
    value = entries.get(key)
    if value is None:
        value = entries.setdefault(key, build())
    return value  # type: ignore[return-value]


def release(task: object) -> None:
    """Drop every entry of *task*; the objects themselves are untouched."""
    _STATE.pop(task, None)
