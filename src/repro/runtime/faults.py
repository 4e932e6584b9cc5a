"""Seeded fault injection: deterministic chaos for the experiment layer.

Production code calls :func:`fire` (and data-path readers/writers
:func:`corrupt_text` / :func:`torn_text`) at named *sites*; nothing
happens unless a test, benchmark or the CLI has armed a fault there.
Five kinds are supported:

* ``"error"``   — raise an exception (default :class:`InjectedFault`),
* ``"hang"``    — sleep ``hang_seconds`` to trip an execution deadline,
* ``"corrupt"`` — make a cache reader see garbled bytes, exercising the
  real checksum/quarantine path,
* ``"torn"``    — make a writer persist a truncated/garbled prefix of its
  bytes (:func:`torn_text`), simulating a crash mid-write,
* ``"kill"``    — SIGKILL the current process at the site, which the
  crash-consistency test uses to kill each durable-state writer.

Sites are plain strings. The experiment layer uses ``"matcher:<name>"``,
``"sweep:<dataset>"``, ``"dataset:<dataset>"``, ``"cache:read"``,
``"cache:write"``, ``"cache:torn-write"``, ``"journal:append"``,
``"io:write"`` and ``"io:read"``. A site may be armed with a trailing
``*`` wildcard (``"matcher:*"`` fires for every matcher); an exact armed
site always takes precedence over a wildcard one, and among wildcards the
longest prefix wins. Arming accepts ``times`` (fire the first N passes,
``None`` = every pass) and a seeded ``probability`` so soak tests can
inject rare faults reproducibly: the decision for pass *k* at a site is a
pure function of ``(seed, site, k)``.
"""

from __future__ import annotations

import errno
import hashlib
import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro import obs

KINDS = ("error", "hang", "corrupt", "torn", "kill")

#: Kinds that only garble data at read/write sites and never fire in
#: :func:`fire` (they act through :func:`corrupt_text` / :func:`torn_text`).
DATA_KINDS = ("corrupt", "torn")


class InjectedFault(RuntimeError):
    """The default exception raised by an armed ``"error"`` fault."""


class InjectedDiskFull(OSError):
    """A synthetic ENOSPC, raised by ``"error"`` faults at ``io:enospc``.

    Carries a real ``errno`` so the atomic-write machinery exercises its
    genuine disk-full branch (map to :class:`repro.runtime.guard.DiskFull`,
    clean up the partial temp file) rather than a test-only shortcut.
    """

    def __init__(self, message: str) -> None:
        super().__init__(errno.ENOSPC, message)


@dataclass
class _ArmedFault:
    site: str
    kind: str
    times: int | None
    exception: type[BaseException]
    hang_seconds: float
    probability: float
    seed: int
    fired: int = 0
    passes: int = 0

    def should_fire(self) -> bool:
        self.passes += 1
        if self.times is not None and self.fired >= self.times:
            return False
        if self.probability < 1.0:
            digest = hashlib.blake2b(
                f"{self.seed}:{self.site}:{self.passes}".encode(),
                digest_size=8,
            ).digest()
            if int.from_bytes(digest, "big") / 2**64 >= self.probability:
                return False
        self.fired += 1
        return True


_ARMED: dict[str, _ArmedFault] = {}


def arm(
    site: str,
    kind: str = "error",
    *,
    times: int | None = 1,
    exception: type[BaseException] = InjectedFault,
    hang_seconds: float = 30.0,
    probability: float = 1.0,
    seed: int = 0,
) -> None:
    """Arm a fault at ``site``; re-arming a site replaces its fault."""
    if kind not in KINDS:
        raise ValueError(f"unknown fault kind {kind!r}; expected one of {KINDS}")
    if not 0.0 < probability <= 1.0:
        raise ValueError(f"probability must be in (0, 1], got {probability}")
    _ARMED[site] = _ArmedFault(
        site=site,
        kind=kind,
        times=times,
        exception=exception,
        hang_seconds=hang_seconds,
        probability=probability,
        seed=seed,
    )


def disarm(site: str) -> None:
    """Remove the fault armed at ``site`` (no-op if none)."""
    _ARMED.pop(site, None)


def reset() -> None:
    """Disarm every fault (test teardown)."""
    _ARMED.clear()


def armed_sites() -> list[str]:
    """The currently armed sites (CLI summary / debugging)."""
    return sorted(_ARMED)


def _armed_for(site: str) -> _ArmedFault | None:
    """The fault governing ``site``: exact match first, then wildcards.

    A wildcard is an armed site ending in ``*`` whose prefix matches.
    Precedence is pinned by tests: exact beats wildcard, and among
    matching wildcards the longest (most specific) prefix wins, ties
    broken lexicographically for determinism.
    """
    fault = _ARMED.get(site)
    if fault is not None:
        return fault
    best: _ArmedFault | None = None
    best_key: tuple[int, str] | None = None
    for armed_site, armed in _ARMED.items():
        if not armed_site.endswith("*"):
            continue
        prefix = armed_site[:-1]
        if not site.startswith(prefix):
            continue
        key = (-len(prefix), armed_site)
        if best_key is None or key < best_key:
            best, best_key = armed, key
    return best


def fire(site: str) -> None:
    """Injection point: raise/hang/kill if a fault governs ``site``.

    ``corrupt``/``torn`` faults do not trigger here — they only affect the
    data-path hooks :func:`corrupt_text` and :func:`torn_text`.
    """
    fault = _armed_for(site)
    if fault is None or fault.kind in DATA_KINDS or not fault.should_fire():
        return
    obs.inc("faults.injected")
    if fault.kind == "hang":
        time.sleep(fault.hang_seconds)
        return
    if fault.kind == "kill":
        # A hard, uncatchable death at a deterministic point: the
        # crash-consistency checker's way of simulating a power cut.
        os.kill(os.getpid(), signal.SIGKILL)
        return
    if site == "io:enospc" and fault.exception is InjectedFault:
        raise InjectedDiskFull(f"injected fault at {site!r}")
    raise fault.exception(f"injected fault at {site!r}")


def pending(site: str) -> _ArmedFault | None:
    """Consume one firing decision at ``site`` without acting on it.

    For faults the *caller* must enact rather than this module — e.g. the
    run lease probes ``lease:steal`` to plant a competing lease file.
    Returns the armed fault (for ``hang_seconds`` etc.) when it fires,
    else ``None``.
    """
    fault = _armed_for(site)
    if fault is None or fault.kind in DATA_KINDS or not fault.should_fire():
        return None
    obs.inc("faults.injected")
    return fault


def triggered(site: str) -> bool:
    """True when an armed fault at ``site`` fires this pass (and consume it)."""
    return pending(site) is not None


def corrupt_text(site: str, text: str) -> str:
    """Injection point for cache readers: garble ``text`` if armed.

    Truncates to half length and flips the head so both JSON parsing and
    checksum verification are guaranteed to notice.
    """
    fault = _armed_for(site)
    if fault is None or fault.kind != "corrupt" or not fault.should_fire():
        return text
    obs.inc("faults.injected")
    return "\x00corrupt\x00" + text[: max(0, len(text) // 2)]


def torn_text(site: str, text: str) -> str:
    """Injection point for writers: return a torn prefix of ``text`` if armed.

    Simulates a kill mid-write: the survivor is a seeded-length prefix
    (25-90% of the original) with its final byte garbled, so a torn
    journal line or cache envelope is guaranteed to be unparseable rather
    than accidentally valid. The fraction is a pure function of
    ``(seed, site, pass)`` — reruns tear identically.
    """
    fault = _armed_for(site)
    if fault is None or fault.kind != "torn" or not fault.should_fire():
        return text
    obs.inc("faults.injected")
    digest = hashlib.blake2b(
        f"{fault.seed}:{site}:{fault.passes}".encode(), digest_size=8
    ).digest()
    fraction = 0.25 + 0.65 * (int.from_bytes(digest, "big") / 2**64)
    keep = max(1, int(len(text) * fraction))
    return text[: keep - 1] + "\x1a"


@contextmanager
def injected(site: str, kind: str = "error", **kwargs: object) -> Iterator[None]:
    """Arm a fault for the duration of a ``with`` block, then disarm it."""
    arm(site, kind, **kwargs)  # type: ignore[arg-type]
    try:
        yield
    finally:
        disarm(site)


def parse_spec(spec: str) -> tuple[str, str, int | None]:
    """Parse a CLI fault spec ``SITE=KIND[:TIMES]``.

    Examples: ``"matcher:DITTO (15)=error"``, ``"cache:read=corrupt:2"``,
    ``"sweep:Ds4=hang"``, ``"journal:append=torn"``, ``"matcher:*=kill"``.
    TIMES defaults to 1; ``*`` means every pass.
    """
    site, separator, rest = spec.rpartition("=")
    if not separator or not site:
        raise ValueError(
            f"bad fault spec {spec!r}; expected SITE=KIND[:TIMES], "
            f"e.g. 'matcher:DITTO (15)=error'"
        )
    kind, _, times_text = rest.partition(":")
    if kind not in KINDS:
        raise ValueError(
            f"bad fault kind {kind!r} in {spec!r}; expected one of {KINDS}"
        )
    if not times_text:
        times: int | None = 1
    elif times_text == "*":
        times = None
    else:
        try:
            times = int(times_text)
        except ValueError:
            raise ValueError(
                f"bad TIMES {times_text!r} in {spec!r}; expected an integer or '*'"
            ) from None
        if times < 1:
            raise ValueError(f"TIMES must be >= 1 in {spec!r}")
    return site, kind, times


def arm_from_spec(spec: str) -> str:
    """Arm a fault from a CLI spec; returns the site armed."""
    site, kind, times = parse_spec(spec)
    arm(site, kind, times=times)
    return site
