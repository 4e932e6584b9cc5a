"""Resource-aware supervision: adaptive deadlines, budgets, run leases.

The retry/breaker/chaos layers handle failures that *raise*. Long sweeps
die differently: the resident set creeps past physical memory, the cache
volume fills mid-envelope, or a second run starts against the same cache
directory. This module gives the runner the primitives to survive them:

* :class:`AdaptiveDeadlineModel` — per-phase deadlines learned from prior
  unit durations (p99 × margin, clamped to a floor/ceiling), replacing a
  single fixed ``--timeout``. Deterministic: the deadline for a phase is
  a pure function of the observed-duration history.
* :class:`ResourceGuard` — in-process RSS + disk-space monitoring with a
  two-rung graceful-degradation ladder: shrink the kernel batch size,
  then disable the feature cache, and only then shed the unit as
  :class:`BudgetExceeded`. Every step emits a ``guard.*`` metric and
  annotates the active trace span.
* :class:`RunLease` — an owner-pid/heartbeat lock file on the cache
  directory so two concurrent runs cannot interleave journal or cache
  writes. Stale leases (dead pid, silent heartbeat) are taken over;
  the doctor repairs orphaned ones.

Everything here is stdlib-only at import time; the degradation ladder
lazy-imports the text layer inside its actions, keeping
:mod:`repro.runtime` importable without numpy.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import time
import uuid
from math import ceil
from pathlib import Path
from typing import Callable

from repro import obs
from repro.runtime import faults

#: Lock-file name inside a cache directory.
LEASE_NAME = "run.lease"

#: Heartbeats older than this (seconds) mark a lease as stale.
DEFAULT_STALE_AFTER = 30.0


class BudgetExceeded(RuntimeError):
    """A resource budget (memory, disk) was exhausted after degradation.

    A :class:`RuntimeError` subclass so the runner's default
    ``MATCHER_ERRORS`` retry/record machinery treats it as unit data, not
    a crash.
    """


class DiskFull(RuntimeError):
    """An atomic write hit ``ENOSPC``/``EDQUOT``; the partial tmp is gone."""


class LeaseHeld(RuntimeError):
    """Another live run holds the cache-directory lease."""


def pid_alive(pid: int) -> bool:
    """Is ``pid`` a live process? (signal-0 probe; EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def read_rss_mb() -> float | None:
    """Resident-set size of this process in MiB.

    Reads ``/proc/self/statm`` — Linux only; returns ``None`` elsewhere,
    and callers must treat that as "unknown", never as zero.
    """
    try:
        fields = Path("/proc/self/statm").read_text().split()
        pages = int(fields[1])
    except (OSError, ValueError, IndexError):
        return None
    return pages * os.sysconf("SC_PAGESIZE") / (1024 * 1024)


def disk_free_mb(path: Path | str) -> float | None:
    """Free space on the filesystem holding ``path``, in MiB."""
    try:
        usage = shutil.disk_usage(str(path))
    except OSError:
        return None
    return usage.free / (1024 * 1024)


# ---------------------------------------------------------------------------
# Adaptive deadlines
# ---------------------------------------------------------------------------


class AdaptiveDeadlineModel:
    """Per-key deadlines learned from observed durations.

    ``deadline_for(key)`` is p99(history) × ``margin``, clamped to
    ``[floor_seconds, ceiling_seconds]``. With fewer than ``min_samples``
    observations it falls back to ``fallback_seconds`` (``None`` = no
    deadline). The estimate is a pure function of the history — two runs
    observing the same durations in the same order compute identical
    deadlines, which keeps chaos replays deterministic.
    """

    def __init__(
        self,
        *,
        margin: float = 4.0,
        floor_seconds: float = 5.0,
        ceiling_seconds: float = 600.0,
        min_samples: int = 3,
        fallback_seconds: float | None = None,
        max_history: int = 256,
    ) -> None:
        if margin <= 0:
            raise ValueError(f"margin must be positive, got {margin}")
        if floor_seconds < 0 or ceiling_seconds < floor_seconds:
            raise ValueError(
                f"need 0 <= floor <= ceiling, got {floor_seconds}/{ceiling_seconds}"
            )
        self.margin = margin
        self.floor_seconds = floor_seconds
        self.ceiling_seconds = ceiling_seconds
        self.min_samples = min_samples
        self.fallback_seconds = fallback_seconds
        self.max_history = max_history
        self._history: dict[str, list[float]] = {}

    def observe(self, key: str, seconds: float) -> None:
        """Record one healthy duration for ``key``."""
        if seconds < 0:
            return
        history = self._history.setdefault(key, [])
        history.append(seconds)
        if len(history) > self.max_history:
            del history[: len(history) - self.max_history]

    def samples(self, key: str) -> int:
        return len(self._history.get(key, ()))

    def deadline_for(self, key: str) -> float | None:
        """The current deadline for ``key`` (``None`` = unbounded)."""
        history = self._history.get(key)
        if not history or len(history) < self.min_samples:
            return self.fallback_seconds
        ordered = sorted(history)
        index = min(len(ordered) - 1, ceil(0.99 * len(ordered)) - 1)
        estimate = ordered[index] * self.margin
        return min(self.ceiling_seconds, max(self.floor_seconds, estimate))

    def learned_deadline_for(self, key: str) -> float | None:
        """Like :meth:`deadline_for` but never the fallback.

        For callers that must not punish healthy units before the model
        has seen real durations — e.g. the matcher loop, where a fixed
        fallback deadline would be far too tight.
        """
        if self.samples(key) < self.min_samples:
            return None
        return self.deadline_for(key)

    def snapshot(self) -> dict[str, dict[str, float | int | None]]:
        """Per-key sample counts and current deadlines (diagnostics)."""
        return {
            key: {
                "samples": len(history),
                "deadline_seconds": self.deadline_for(key),
            }
            for key, history in sorted(self._history.items())
        }


# ---------------------------------------------------------------------------
# Degradation ladder + resource guard
# ---------------------------------------------------------------------------


def _degrade_shrink_batch() -> None:
    from repro.text import kernels

    current = kernels.batch_limit()
    kernels.set_batch_limit(256 if current is None else max(32, current // 4))


def _degrade_disable_feature_cache() -> None:
    from repro.text import feature_store

    feature_store.set_cache_disabled(True)


#: The graceful-degradation ladder, cheapest relief first. Each entry is
#: (name, action); actions mutate text-layer globals and are undone by
#: :func:`reset_global_degradations`.
_LADDER: tuple[tuple[str, Callable[[], None]], ...] = (
    ("shrink-kernel-batch", _degrade_shrink_batch),
    ("disable-feature-cache", _degrade_disable_feature_cache),
)

#: Ladder index of the disk-relevant step (smaller batches do nothing for
#: a full volume; only the cache writes do).
_DISK_STEP = 1


def reset_global_degradations() -> None:
    """Undo every ladder action (test/chaos hygiene).

    Imports lazily and tolerates an absent text layer so the runtime
    package stays usable standalone.
    """
    try:
        from repro.text import feature_store, kernels
    except Exception:  # pragma: no cover - text layer unavailable
        return
    kernels.set_batch_limit(None)
    feature_store.set_cache_disabled(False)


class ResourceGuard:
    """In-process memory/disk budget enforcement with graceful degradation.

    The runner calls :meth:`checkpoint` between units (and matchers). When
    RSS exceeds ``memory_budget_mb`` the guard applies ONE ladder step per
    checkpoint — giving the allocator a unit's worth of time to benefit —
    and, once the ladder is exhausted, sheds the unit by raising
    :class:`BudgetExceeded`. Disk pressure skips straight to the only step
    that helps (disabling cache writes) before shedding. Real resource
    reads are rate-limited to ``min_check_interval`` seconds; the chaos
    sites ``guard:oom`` and ``io:enospc`` are probed on every call so
    injected pressure is deterministic.
    """

    def __init__(
        self,
        *,
        memory_budget_mb: float | None = None,
        disk_reserve_mb: float | None = None,
        cache_dir: Path | str | None = None,
        min_check_interval: float = 1.0,
        rss_fn: Callable[[], float | None] | None = None,
        disk_free_fn: Callable[[Path], float | None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.memory_budget_mb = memory_budget_mb
        self.disk_reserve_mb = disk_reserve_mb
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.min_check_interval = min_check_interval
        self._rss_fn = rss_fn or read_rss_mb
        self._disk_free_fn = disk_free_fn or disk_free_mb
        self._clock = clock
        self._last_check = float("-inf")
        self._level = 0
        self._applied: list[str] = []

    @property
    def enabled(self) -> bool:
        return self.memory_budget_mb is not None or (
            self.disk_reserve_mb is not None and self.cache_dir is not None
        )

    @property
    def degradation_level(self) -> int:
        return self._level

    @property
    def degradations(self) -> tuple[str, ...]:
        return tuple(self._applied)

    def preflight(self) -> list[str]:
        """Check budgets before any work; returns human-readable warnings."""
        warnings: list[str] = []
        if self.disk_reserve_mb is not None and self.cache_dir is not None:
            free = self._disk_free_fn(self.cache_dir)
            if free is not None:
                obs.gauge("guard.disk_free_mb", free)
                if free < self.disk_reserve_mb:
                    warnings.append(
                        f"cache volume has {free:.0f} MiB free, below the "
                        f"{self.disk_reserve_mb:.0f} MiB reserve; disabling "
                        f"the feature cache"
                    )
                    self._apply_step(_DISK_STEP, reason="disk-preflight")
        if self.memory_budget_mb is not None:
            rss = self._rss_fn()
            if rss is not None:
                obs.gauge("guard.rss_mb", rss)
                if rss > self.memory_budget_mb:
                    warnings.append(
                        f"RSS {rss:.0f} MiB already over the "
                        f"{self.memory_budget_mb:.0f} MiB budget at startup"
                    )
        return warnings

    def _apply_step(self, index: int, *, reason: str) -> str:
        """Apply ladder step ``index`` (and everything below it) once."""
        target = min(index + 1, len(_LADDER))
        applied = "none"
        while self._level < target:
            name, action = _LADDER[self._level]
            action()
            self._level += 1
            self._applied.append(name)
            applied = name
            obs.inc("guard.degradations")
            obs.gauge("guard.degrade_level", float(self._level))
            obs.annotate(guard_degraded=name, guard_reason=reason)
        return applied

    def _disk_pressure(self) -> tuple[bool, str]:
        if self.disk_reserve_mb is None or self.cache_dir is None:
            return False, ""
        free = self._disk_free_fn(self.cache_dir)
        if free is None:
            return False, ""
        obs.gauge("guard.disk_free_mb", free)
        if free < self.disk_reserve_mb:
            return True, (
                f"{free:.0f} MiB free below reserve {self.disk_reserve_mb:.0f} MiB"
            )
        return False, ""

    def checkpoint(self, unit_id: str = "") -> None:
        """Enforce budgets between units; raise ``BudgetExceeded`` to shed.

        One ladder step per pressured checkpoint. The injected chaos sites
        are probed every call; real ``/proc`` and ``statvfs`` reads only
        every ``min_check_interval`` seconds.
        """
        injected = faults.triggered("guard:oom")
        now = self._clock()
        due = now - self._last_check >= self.min_check_interval
        if not injected and not due:
            return
        memory_hit, memory_reason = False, ""
        disk_hit, disk_reason = False, ""
        if injected:
            memory_hit, memory_reason = True, "injected guard:oom"
        if due:
            self._last_check = now
            if not memory_hit and self.memory_budget_mb is not None:
                rss = self._rss_fn()
                if rss is not None:
                    obs.gauge("guard.rss_mb", rss)
                    if rss > self.memory_budget_mb:
                        memory_hit = True
                        memory_reason = (
                            f"RSS {rss:.0f} MiB over budget "
                            f"{self.memory_budget_mb:.0f} MiB"
                        )
            disk_hit, disk_reason = self._disk_pressure()
        if disk_hit:
            if self._level >= len(_LADDER):
                obs.inc("guard.units_shed")
                raise BudgetExceeded(
                    f"disk budget exhausted for {unit_id or 'unit'}: {disk_reason}"
                )
            step = self._apply_step(_DISK_STEP, reason=disk_reason)
            obs.annotate(guard_unit=unit_id)
            if step == "none" and self._level >= len(_LADDER):
                obs.inc("guard.units_shed")
                raise BudgetExceeded(
                    f"disk budget exhausted for {unit_id or 'unit'}: {disk_reason}"
                )
            return
        if memory_hit:
            if self._level >= len(_LADDER):
                obs.inc("guard.units_shed")
                raise BudgetExceeded(
                    f"memory budget exhausted for {unit_id or 'unit'}: "
                    f"{memory_reason}"
                )
            self._apply_step(self._level, reason=memory_reason)
            obs.annotate(guard_unit=unit_id)


# ---------------------------------------------------------------------------
# Run lease
# ---------------------------------------------------------------------------


class RunLease:
    """An owner-pid/heartbeat lock file guarding one cache directory.

    ``acquire`` creates ``run.lease`` with ``O_CREAT | O_EXCL``; a second
    runner polls until the holder releases, the lease goes stale (owner
    pid dead, or heartbeat silent past ``stale_after_seconds``), or its
    timeout expires (:class:`LeaseHeld`). Ownership is a random token per
    instance — not the pid — so two runners in one process contend
    correctly. Re-entrant within an instance (depth counter), because the
    runner leases both whole batches (``sweep_all``) and single units.
    """

    def __init__(
        self,
        cache_dir: Path | str,
        *,
        stale_after_seconds: float = DEFAULT_STALE_AFTER,
        poll_seconds: float = 0.05,
        heartbeat_interval: float = 2.0,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(cache_dir) / LEASE_NAME
        self.stale_after_seconds = stale_after_seconds
        self.poll_seconds = poll_seconds
        self.heartbeat_interval = heartbeat_interval
        self._clock = clock
        self.token = uuid.uuid4().hex
        self._depth = 0
        self._last_heartbeat = float("-inf")

    # -- payload helpers ---------------------------------------------------

    def _payload(self) -> dict[str, object]:
        now = self._clock()
        return {
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "token": self.token,
            "acquired_at": now,
            "heartbeat_at": now,
        }

    def read(self) -> dict[str, object] | None:
        """The current lease contents, or ``None`` if absent/unparseable."""
        try:
            raw = self.path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError:
            return None
        return payload if isinstance(payload, dict) else None

    def _is_stale(self, payload: dict[str, object] | None) -> bool:
        """A lease nobody live is heartbeating (or garbage) is stale."""
        if payload is None:
            return True
        try:
            pid = int(payload["pid"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return True
        if not pid_alive(pid):
            return True
        try:
            beat = float(payload["heartbeat_at"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            return True
        return self._clock() - beat > self.stale_after_seconds

    def _write(self) -> None:
        """Overwrite the lease with our payload (atomic tmp + replace)."""
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(self._payload()), encoding="utf-8")
        os.replace(tmp, self.path)
        self._last_heartbeat = self._clock()

    def owned(self) -> bool:
        payload = self.read()
        return payload is not None and payload.get("token") == self.token

    # -- lifecycle ---------------------------------------------------------

    def acquire(self, timeout_seconds: float = 60.0) -> float:
        """Take the lease; returns seconds spent waiting (0.0 = uncontended).

        Waiting > 0 tells the caller another run may have produced the
        results meanwhile — re-check the cache before recomputing.
        """
        if self._depth > 0:
            self._depth += 1
            return 0.0
        start = self._clock()
        deadline = start + max(0.0, timeout_seconds)
        contended = False
        while True:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                contended = True
                payload = self.read()
                if payload is not None and payload.get("token") == self.token:
                    # Our own lease survived a crashy earlier acquire.
                    self._depth = 1
                    return self._clock() - start
                if self._is_stale(payload):
                    self._write()
                    confirmed = self.read()
                    if confirmed and confirmed.get("token") == self.token:
                        obs.inc("guard.lease_takeover")
                        self._depth = 1
                        return self._clock() - start
                    continue  # lost the takeover race; retry
                if self._clock() >= deadline:
                    holder = payload.get("pid", "?")
                    raise LeaseHeld(
                        f"cache lease {self.path} held by pid {holder}; "
                        f"gave up after {timeout_seconds:.1f}s"
                    )
                time.sleep(self.poll_seconds)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(self._payload()))
            self._last_heartbeat = self._clock()
            obs.inc("guard.lease_acquired")
            self._depth = 1
            return (self._clock() - start) if contended else 0.0

    def refresh(self) -> None:
        """Heartbeat the lease (rate-limited); detect and handle theft.

        The chaos site ``lease:steal`` plants a competing (dead-owner)
        lease here so the reclaim path runs under fault injection. A *live*
        thief means split-brain — raise :class:`LeaseHeld` rather than
        fight over the file.
        """
        if self._depth <= 0:
            return
        if faults.pending("lease:steal") is not None:
            thief = {
                "pid": -1,
                "host": "chaos",
                "token": "stolen-" + uuid.uuid4().hex[:8],
                "acquired_at": self._clock(),
                "heartbeat_at": self._clock(),
            }
            tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}s")
            tmp.write_text(json.dumps(thief), encoding="utf-8")
            os.replace(tmp, self.path)
        now = self._clock()
        payload = self.read()
        if payload is not None and payload.get("token") == self.token:
            if now - self._last_heartbeat >= self.heartbeat_interval:
                self._write()
            return
        # Foreign (or missing) lease while we believe we hold it.
        if self._is_stale(payload):
            self._write()
            obs.inc("guard.lease_reclaimed")
            return
        raise LeaseHeld(
            f"cache lease {self.path} was taken over by pid "
            f"{payload.get('pid', '?') if payload else '?'} while held"
        )

    def release(self) -> None:
        """Drop one level of re-entrancy; delete our lease file at depth 0."""
        if self._depth <= 0:
            return
        self._depth -= 1
        if self._depth > 0:
            return
        payload = self.read()
        if payload is not None and payload.get("token") == self.token:
            try:
                self.path.unlink()
            except OSError:
                pass

    def __enter__(self) -> "RunLease":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def audit_lease(path: Path | str, *, now: float | None = None) -> str | None:
    """Doctor-side lease triage; returns a finding detail or ``None``.

    Unparseable lease → orphaned; dead owner pid → orphaned; heartbeat
    silent past the default staleness window → stale. A lease owned by a
    live, recently-heartbeating pid is healthy (conservative: the doctor
    never deletes a live run's lease).
    """
    lease_path = Path(path)
    try:
        payload = json.loads(lease_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return "unparseable lease file"
    if not isinstance(payload, dict):
        return "unparseable lease file"
    try:
        pid = int(payload["pid"])
    except (KeyError, TypeError, ValueError):
        return "lease has no owner pid"
    if not pid_alive(pid):
        return f"owner pid {pid} is dead"
    try:
        beat = float(payload["heartbeat_at"])
    except (KeyError, TypeError, ValueError):
        return f"lease of pid {pid} has no heartbeat"
    current = time.time() if now is None else now
    if current - beat > DEFAULT_STALE_AFTER:
        return (
            f"owner pid {pid} alive but heartbeat silent for "
            f"{current - beat:.0f}s"
        )
    return None


__all__ = [
    "AdaptiveDeadlineModel",
    "BudgetExceeded",
    "DEFAULT_STALE_AFTER",
    "DiskFull",
    "LEASE_NAME",
    "LeaseHeld",
    "ResourceGuard",
    "RunLease",
    "audit_lease",
    "disk_free_mb",
    "pid_alive",
    "read_rss_mb",
    "reset_global_degradations",
]
