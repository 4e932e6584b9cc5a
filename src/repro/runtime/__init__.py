"""Fault-tolerant execution layer for long experiment sweeps.

A full-suite regeneration is 13+ datasets x dozens of matchers; at that
scale failures must be data, not crashes. This package provides the four
pieces the experiment layer builds on:

* :mod:`repro.runtime.policy` — :class:`ExecutionPolicy` wraps an expensive
  unit of work with retries, exponential backoff (seeded deterministic
  jitter) and a per-unit wall-clock deadline; failures come back as
  structured :class:`FailureRecord` objects instead of exceptions.
* :mod:`repro.runtime.faults` — a seeded fault-injection registry; tests,
  benchmarks and the CLI arm faults (errors, hangs, cache corruption) at
  named sites to exercise the degradation paths deterministically.
* :mod:`repro.runtime.cache` — atomic writes (tmp file + ``os.replace``)
  and a versioned, checksummed envelope around every cache entry; corrupt
  or stale entries are quarantined and treated as misses.
* :mod:`repro.runtime.journal` — an append-only checkpoint journal so an
  interrupted run resumes from completed units.
* :mod:`repro.runtime.registry` — the process-wide fallback registry for
  absorbed :class:`FailureRecord` data and its lifecycle
  (:func:`clear_recorded_failures`), so run boundaries are managed here
  rather than in an experiments-internal module.
* :mod:`repro.runtime.breaker` — per-unit circuit breakers
  (:class:`BreakerRegistry`) that an :class:`ExecutionPolicy` can carry:
  after K consecutive failures a unit short-circuits to a structured
  ``CircuitOpen`` failure instead of burning its retry budget.
* :mod:`repro.runtime.state` — :class:`~repro.runtime.state.StateDir`,
  the one durable-state primitive of the runner, ``serve --state`` and
  ``scale-up --state``: a lease, a journal and the envelopes it trusts,
  with the commit, trust, reload, stale-state and pairing rules.
* :mod:`repro.runtime.doctor` — ``repro doctor``'s engine
  (:func:`run_doctor`): audits and repairs a directory tree (corrupt
  envelopes, quarantine retention, stale temp files, orphaned run
  leases, state-directory trust and pairing, torn journal tails).
* :mod:`repro.runtime.guard` — resource-aware supervision:
  :class:`AdaptiveDeadlineModel` per-phase deadlines, the
  :class:`ResourceGuard` memory/disk budgets that shed a pressured
  unit as ``BudgetExceeded``, and the
  :class:`RunLease` cache-directory lock with stale-lease takeover.

Every unit runs in the calling process, one after another: there is no
worker pool (DESIGN.md explains why).

The package is dependency-free (stdlib only) so every layer of the
repository may import it.
"""

from repro.runtime.breaker import BreakerRegistry, CircuitBreaker
from repro.runtime.cache import (
    CACHE_SCHEMA_VERSION,
    CacheCorruption,
    CacheError,
    CacheReadResult,
    CacheVersionMismatch,
    atomic_write_text,
    atomic_writer,
    quarantine,
    read_cached_payload,
    read_envelope,
    write_envelope,
)
from repro.runtime.doctor import (
    DoctorFinding,
    DoctorReport,
    run_doctor,
)
from repro.runtime.guard import (
    LEASE_NAME,
    AdaptiveDeadlineModel,
    BudgetExceeded,
    DiskFull,
    LeaseHeld,
    ResourceGuard,
    RunLease,
    audit_lease,
    pid_alive,
)
from repro.runtime.journal import CheckpointJournal
from repro.runtime.policy import (
    DeadlineExceeded,
    ExecutionOutcome,
    ExecutionPolicy,
    FailureRecord,
)
from repro.runtime.registry import (
    clear_recorded_failures,
    record_failure,
    recorded_failures,
)

__all__ = [
    "AdaptiveDeadlineModel",
    "BreakerRegistry",
    "BudgetExceeded",
    "CACHE_SCHEMA_VERSION",
    "CacheCorruption",
    "CacheError",
    "CacheReadResult",
    "CacheVersionMismatch",
    "CheckpointJournal",
    "CircuitBreaker",
    "DeadlineExceeded",
    "DiskFull",
    "DoctorFinding",
    "DoctorReport",
    "ExecutionOutcome",
    "ExecutionPolicy",
    "FailureRecord",
    "LEASE_NAME",
    "LeaseHeld",
    "ResourceGuard",
    "RunLease",
    "atomic_write_text",
    "atomic_writer",
    "audit_lease",
    "clear_recorded_failures",
    "pid_alive",
    "quarantine",
    "read_cached_payload",
    "read_envelope",
    "record_failure",
    "recorded_failures",
    "run_doctor",
    "write_envelope",
]
