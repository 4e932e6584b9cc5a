"""Resident matching sessions: fit once, index once, answer queries forever.

The offline pipeline (:mod:`repro.experiments`) rebuilds everything per
run — fine for benchmark sweeps, wasteful for the paper's deployment
question ("how would this matcher behave as a service?"). This package
keeps a fitted matcher, a persistent ANN index and the task's
append-only :class:`~repro.text.feature_store.FeatureStore` resident in one
:class:`MatcherSession`:

* :meth:`MatcherSession.add_records` tokenizes/q-grams new records once
  and appends them to the index and incidence structures — never a full
  rebuild;
* :meth:`MatcherSession.query_batch` coalesces many queries into one ANN
  probe pass plus a single vectorized feature-kernel/predict call, and
  produces predictions bit-identical to the offline runner on the same
  candidate pairs;
* :meth:`MatcherSession.save` / :meth:`MatcherSession.load` snapshot a
  session onto the checksummed cache-envelope format;
* :class:`repro.serve.loop.ServeLoop` (``python -m repro serve``) wraps a
  session in a JSONL request loop with per-phase latency histograms and
  graceful drain on SIGTERM;
* :class:`repro.serve.frontend.SocketFrontend` (``--listen HOST:PORT`` /
  ``--socket PATH``) serves many concurrent clients over TCP or unix
  sockets behind a bounded admission queue, per-request deadlines,
  per-client circuit breakers and a single-writer dispatcher — so
  concurrency never changes predictions.
"""

from __future__ import annotations

from repro.serve.frontend import FrontendConfig, SocketFrontend
from repro.serve.session import (
    MatcherSession,
    QueryResult,
    SessionConfig,
    open_session,
)

__all__ = [
    "FrontendConfig",
    "MatcherSession",
    "QueryResult",
    "SessionConfig",
    "SocketFrontend",
    "open_session",
]
