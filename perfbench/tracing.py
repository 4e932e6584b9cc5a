"""Spans recorded from outside the program, around each layer's entry points.

:func:`install_layers` replaces the public entry points of each layer
(``generate_shard``, ``Matcher.fit``, ``AnnBlocker.candidates``,
``MatcherSession.query_batch``, ...) with thin wrappers that record a
span — name, start, end, parent, request id — into a :class:`Tracer`.
Nothing under ``src/`` changes: a module-level function is swapped in
every ``repro`` module that imported it by name, a method on the class
that defines it. Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_times` turns spans into each layer's *self* time (its spans
minus the part their child spans cover) and :func:`unattributed` into
the remainder of a measured window that no span covers; counts are
recorded at the same boundaries.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from harness import self_time, union_length

#: Layer span names → per-layer metric names (self time, seconds).
LAYER_TIMES = {
    "datasets.generate": "datasets.generate_s",
    "datasets.shard_generate": "datasets.shard_generate_s",
    "core.linearity": "core.linearity_s",
    "core.complexity": "core.complexity_s",
    "matchers.dl_fit": "matchers.dl_fit_s",
    "matchers.ml_fit": "matchers.ml_fit_s",
    "matchers.linear_fit": "matchers.linear_fit_s",
    "matchers.predict": "matchers.predict_s",
    "text.extract": "text.extract_s",
    "blocking.candidates": "blocking.candidates_s",
    "blocking.evaluate": "blocking.evaluate_s",
    "blocking.index_build": "blocking.index_build_s",
    "blocking.search": "blocking.search_s",
    "blocking.insert": "blocking.insert_s",
    "runtime.persist": "runtime.persist_s",
    "serve.query_batch": "serve.query_batch_s",
    "serve.add_records": "serve.add_records_s",
}

#: Counts recorded at the same boundaries.
LAYER_COUNTS = (
    "datasets.shards",
    "datasets.empty_side_shards",
    "matchers.pairs_scored",
    "text.extract_calls",
    "blocking.candidates",
    "blocking.matching_candidates",
)


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: tuple[str, ...] | None

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "rid": list(self.rid) if self.rid is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        rid = payload.get("rid")
        return cls(
            span_id=payload["id"],
            name=payload["name"],
            start=payload["start"],
            end=payload["end"],
            parent=payload["parent"],
            rid=tuple(rid) if rid is not None else None,
        )


class Tracer:
    """In-memory span and count recorder; thread-safe."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def call(self, name: str, fn, args, kwargs, rid=None):
        """Run ``fn(*args, **kwargs)`` inside a span called *name*."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, rid))

    def dump(self, path: Path | str) -> None:
        with self._lock:
            payload = {
                "spans": [span.to_dict() for span in self.spans],
                "counts": dict(self.counts),
            }
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_dump(path: Path | str) -> tuple[list[Span], dict[str, float]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [Span.from_dict(s) for s in payload["spans"]], payload["counts"]


# -- wrappers ----------------------------------------------------------------


def _wrapper(tracer: Tracer, fn, name, rid=None, after=None):
    """A function that records a span around *fn*.

    *name* is a string or ``name(args) -> str``; *rid* maps the call's
    arguments to request ids; *after(result, args)* records counts once
    the span has closed, so counting never inflates the layer's time.
    """

    def traced(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        request_ids = rid(args) if rid is not None else None
        result = tracer.call(span_name, fn, args, kwargs, request_ids)
        if after is not None:
            after(result, args)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", "traced")
    return traced


def wrap_function(tracer: Tracer, module, attr: str, name, **options) -> None:
    """Swap ``module.attr`` for a traced copy in every ``repro`` module."""
    original = getattr(module, attr)
    traced = _wrapper(tracer, original, name, **options)
    for module_name, loaded in list(sys.modules.items()):
        if loaded is None or not module_name.startswith("repro"):
            continue
        namespace = vars(loaded)
        for key, value in list(namespace.items()):
            if value is original:
                setattr(loaded, key, traced)


def wrap_method(tracer: Tracer, cls, attr: str, name, **options) -> None:
    """Swap the method *attr* defined on *cls* for a traced copy."""
    original = cls.__dict__[attr]
    setattr(cls, attr, _wrapper(tracer, original, name, **options))


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points; see the module docstring."""
    from repro.blocking import ann, base as blocking_base, factory
    from repro.core import linearity
    from repro.core.complexity import profile
    from repro.datasets import generator, registry
    from repro.experiments import matcher_suite
    from repro.matchers import base, features
    from repro.runtime import cache, journal
    from repro.serve import session

    def count_shard(sources, args) -> None:
        tracer.count("datasets.shards")
        if len(sources.left) == 0 or len(sources.right) == 0:
            tracer.count("datasets.empty_side_shards")

    def count_pairs(result, args) -> None:
        tracer.count("matchers.pairs_scored", len(args[1]))

    def count_extract(result, args) -> None:
        tracer.count("text.extract_calls")

    def count_candidates(candidates, args) -> None:
        sources = args[1]
        tracer.count("blocking.candidates", len(candidates))
        tracer.count(
            "blocking.matching_candidates",
            sum(1 for key in candidates if key in sources.matches),
        )

    def fit_name(args) -> str:
        return f"matchers.{matcher_suite.family_of(args[0].name)}_fit"

    def record_ids(args):
        records = args[1]
        if isinstance(records, (list, tuple)):
            return tuple(record.record_id for record in records)
        return None

    wrap_function(tracer, registry, "load_established_task", "datasets.generate")
    wrap_function(
        tracer, generator, "generate_shard", "datasets.shard_generate",
        after=count_shard,
    )
    wrap_function(tracer, linearity, "linearity_profile", "core.linearity")
    wrap_function(tracer, profile, "complexity_profile", "core.complexity")
    wrap_method(tracer, base.Matcher, "fit", fit_name)
    wrap_method(
        tracer, base.Matcher, "predict", "matchers.predict", after=count_pairs
    )
    for extractor in (features.EsdeFeatureExtractor, features.MagellanFeatureExtractor):
        for attr in ("feature_matrix", "feature_column"):
            if attr in extractor.__dict__:
                wrap_method(
                    tracer, extractor, attr, "text.extract", after=count_extract
                )
    wrap_method(
        tracer, ann.AnnBlocker, "candidates", "blocking.candidates",
        after=count_candidates,
    )
    wrap_function(tracer, blocking_base, "evaluate_blocking", "blocking.evaluate")
    wrap_function(tracer, factory, "make_index", "blocking.index_build")
    for index_class in (ann.GraphIndex, ann.LshIndex):
        wrap_method(tracer, index_class, "search", "blocking.search")
        wrap_method(tracer, index_class, "insert", "blocking.insert")
    wrap_function(tracer, cache, "write_envelope", "runtime.persist")
    wrap_method(tracer, journal.CheckpointJournal, "mark_done", "runtime.persist")
    wrap_method(
        tracer, session.MatcherSession, "query_batch", "serve.query_batch",
        rid=record_ids,
    )
    wrap_method(
        tracer, session.MatcherSession, "add_records", "serve.add_records",
        rid=record_ids,
    )


# -- roll-up ------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, by span id."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: self_time(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    }


def in_window(spans: list[Span], start: float, end: float) -> list[Span]:
    """Spans that began inside ``[start, end]``."""
    return [span for span in spans if start <= span.start <= end]


def unattributed(spans: list[Span], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` that no span covers."""
    covered = [
        (max(start, span.start), min(end, span.end))
        for span in spans
        if span.end > start and span.start < end
    ]
    return (end - start) - union_length(covered)


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds, keyed by per-layer metric name."""
    own = self_times(spans)
    totals = {metric: 0.0 for metric in LAYER_TIMES.values()}
    for span in spans:
        metric = LAYER_TIMES.get(span.name)
        if metric is not None:
            totals[metric] += own[span.span_id]
    return totals


def windowed_layers(spans: list[Span], windows) -> dict[str, tuple[float, str]]:
    """Layer self times and the unattributed remainder over measured windows.

    Each window is ``(start, end, weight)``: its spans are the ones that
    began inside it, and its times are scaled by ``weight`` (one over the
    number of windows averaged into one job).
    """
    times = {metric: 0.0 for metric in LAYER_TIMES.values()}
    idle = wall = 0.0
    for start, end, weight in windows:
        inside = in_window(spans, start, end)
        for name, value in layer_times(inside).items():
            times[name] += value * weight
        idle += unattributed(inside, start, end) * weight
        wall += (end - start) * weight
    layers = {name: (value, "s") for name, value in times.items()}
    layers["trace.unattributed_s"] = (idle, "s")
    layers["trace.unattributed_share"] = (idle / wall, "1")
    return layers


def request_session_seconds(spans: list[Span]) -> dict[str, float]:
    """Session time charged to each request id (a coalesced batch's
    whole duration is charged to every request in it)."""
    charged: dict[str, float] = {}
    for span in spans:
        if span.rid is None:
            continue
        for request_id in span.rid:
            charged[request_id] = charged.get(request_id, 0.0) + (span.end - span.start)
    return charged
