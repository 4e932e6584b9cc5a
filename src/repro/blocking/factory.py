"""One spec-driven factory for blockers and resident ANN indexes.

Before this module, every consumer built blockers its own way — the CLI
switched on ``--blocker`` strings, :func:`repro.blocking.ann
.provenance_sweep` constructed ``QGramBlocker``/``AnnBlocker`` inline,
and ``repro.serve`` would have added a fourth idiom. :func:`make_blocker`
is now the single construction path: a spec string (or an
:class:`~repro.blocking.ann.AnnConfig` passed through verbatim) plus
keyword options resolves to a configured blocker instance.
:func:`make_index` is its resident-index sibling: the same spec strings
resolve to an incremental :class:`~repro.blocking.ann.GraphIndex` or
:class:`~repro.blocking.ann.LshIndex` over a shared
:class:`~repro.text.feature_store.FeatureStore`, which is what the
``repro.serve`` session holds.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro import obs
from repro.blocking.ann import AnnBlocker, AnnConfig, GraphIndex, LshIndex
from repro.blocking.qgram import QGramBlocker
from repro.blocking.sorted_neighborhood import SortedNeighborhoodBlocker
from repro.blocking.token import TokenBlocker
from repro.text.feature_store import FeatureStore

#: Spec strings :func:`make_blocker` understands. ``exhaustive`` is the
#: classic per-left-record q-gram blocker (the provenance-sweep
#: baseline); ``qgram`` is its explicit alias.
BLOCKER_SPECS: tuple[str, ...] = (
    "exhaustive",
    "qgram",
    "token",
    "sorted-neighborhood",
    "lsh",
    "graph",
)

#: Spec strings :func:`make_index` understands — the resident backends.
INDEX_SPECS: tuple[str, ...] = ("lsh", "graph")


def make_blocker(spec: Union[str, AnnConfig], **options):
    """Build the blocker a spec names, passing *options* to its config.

    ``exhaustive`` / ``qgram`` -> :class:`QGramBlocker`; ``token`` ->
    :class:`TokenBlocker`; ``sorted-neighborhood`` ->
    :class:`SortedNeighborhoodBlocker`; ``lsh`` / ``graph`` ->
    :class:`AnnBlocker` over ``AnnConfig(backend=spec, **options)``. An
    :class:`AnnConfig` instance passes through to :class:`AnnBlocker`
    unchanged (*options* must then be empty). Unknown specs raise
    ``ValueError`` naming :data:`BLOCKER_SPECS`.
    """
    if isinstance(spec, AnnConfig):
        if options:
            raise ValueError(
                "options cannot be combined with an explicit AnnConfig: "
                f"{sorted(options)}"
            )
        return AnnBlocker(spec)
    if spec in ("exhaustive", "qgram"):
        return QGramBlocker(**options)
    if spec == "token":
        return TokenBlocker(**options)
    if spec == "sorted-neighborhood":
        return SortedNeighborhoodBlocker(**options)
    if spec in ("lsh", "graph"):
        return AnnBlocker(AnnConfig(backend=spec, **options))
    raise ValueError(
        f"unknown blocker spec {spec!r}; known specs: {BLOCKER_SPECS}"
    )


def make_index(
    spec: Union[str, AnnConfig],
    records: Sequence,
    *,
    store: FeatureStore | None = None,
    **options,
):
    """Build a resident, incremental ANN index over *records*.

    ``graph`` -> :class:`GraphIndex` (small-world beam search), ``lsh``
    -> :class:`LshIndex` (banded-minhash buckets); both support
    ``insert(records)`` appends and ``search(record, k) ->
    Candidates``. An :class:`AnnConfig` may be passed directly as the
    spec (its ``backend`` selects the index class). Pass a *store* to
    share tokenization with other consumers — ``repro.serve`` shares
    one store between its index and its feature extraction, so every
    record is tokenized exactly once.
    """
    if isinstance(spec, AnnConfig):
        if options:
            raise ValueError(
                "options cannot be combined with an explicit AnnConfig: "
                f"{sorted(options)}"
            )
        config = spec
    elif spec in INDEX_SPECS:
        config = AnnConfig(backend=spec, **options)
    else:
        raise ValueError(
            f"unknown index spec {spec!r}; known specs: {INDEX_SPECS}"
        )
    if store is None:
        store = FeatureStore()
    view = ("qgrams", None, config.q)
    with obs.span("blocking.index_build", backend=config.backend):
        records = list(records)
        rows = store.rows(records, view)
        index_class = GraphIndex if config.backend == "graph" else LshIndex
        return index_class(records, rows, config, store=store, view=view)
