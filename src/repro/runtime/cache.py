"""Hardened cache persistence: atomic writes, envelopes, quarantine.

Every cache entry is wrapped in a versioned, checksummed envelope::

    {
      "cache_schema_version": 1,
      "checksum": "<blake2b-128 of the canonical payload JSON>",
      "payload": { ... }
    }

Writers go through :func:`atomic_write_text` (tmp file + ``os.replace``)
so an interrupted run never leaves a half-written artefact. Readers verify
version and checksum; anything unreadable, corrupt, or from another schema
version is *quarantined* (renamed to ``<name>.quarantined``) and treated
as a cache miss, so one bad file degrades to a recompute instead of
aborting a sweep.

A writer that hits ``ENOSPC``/``EDQUOT`` surfaces a typed
:class:`repro.runtime.guard.DiskFull` (after removing the partial temp
file) instead of leaking a raw :class:`OSError` past the policy layer.
"""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

from repro import obs
from repro.runtime import faults
from repro.runtime.guard import DiskFull

logger = logging.getLogger("repro.runtime.cache")

#: Version of the on-disk envelope; bump when the payload layout changes.
CACHE_SCHEMA_VERSION = 1

QUARANTINE_SUFFIX = ".quarantined"


class CacheError(RuntimeError):
    """Base class for cache-entry problems."""


class CacheCorruption(CacheError):
    """Unparseable JSON, missing envelope fields, or checksum mismatch."""


class CacheVersionMismatch(CacheError):
    """Entry written by a different envelope schema version."""


def _checksum(canonical_payload: str) -> str:
    return hashlib.blake2b(canonical_payload.encode(), digest_size=16).hexdigest()


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@contextmanager
def atomic_writer(path: Path | str, *, newline: str | None = None) -> Iterator[IO[str]]:
    """Open ``<path>.tmp<pid>`` for writing; publish via ``os.replace``.

    On any exception the temporary file is removed and the target is left
    untouched — the atomicity contract for CSV/JSON artefact writers. A
    full volume (``ENOSPC``/``EDQUOT``) becomes a typed
    :class:`~repro.runtime.guard.DiskFull` so the policy layer records it
    as a unit failure rather than crashing the run on a raw ``OSError``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    faults.fire("io:write")
    try:
        with tmp.open("w", newline=newline, encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        # The chaos site for disk exhaustion sits after the payload is
        # fully written but before publication — the worst moment, since
        # the tmp file now occupies the space the rename needs.
        faults.fire("io:enospc")
        os.replace(tmp, target)
        _fsync_directory(target.parent)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        if exc.errno in (errno.ENOSPC, errno.EDQUOT):
            obs.inc("guard.disk_full")
            raise DiskFull(f"{target}: no space left on device: {exc}") from exc
        raise
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fsync_directory(directory: Path) -> None:
    """Make a rename durable: fsync the directory entry (best effort).

    ``os.replace`` is atomic but the new directory entry can still be
    lost to a power cut until the directory itself is synced; platforms
    that cannot open a directory read-only simply skip this.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Path | str, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    with atomic_writer(path) as handle:
        handle.write(text)


def write_envelope(
    path: Path | str,
    payload: object,
    *,
    schema_version: int = CACHE_SCHEMA_VERSION,
) -> None:
    """Atomically write ``payload`` wrapped in a checksummed envelope.

    Runs inside a ``runtime.persist`` span.
    """
    with obs.span("runtime.persist"):
        faults.fire("cache:write")
        obs.inc("cache.write")
        envelope = {
            "cache_schema_version": schema_version,
            "checksum": _checksum(_canonical(payload)),
            "payload": payload,
        }
        # The torn-write site lets fault-injection tests publish a truncated
        # envelope (simulating a non-atomic filesystem or a crash that beat
        # the rename); readers then exercise the real quarantine path.
        text = faults.torn_text(
            "cache:torn-write", json.dumps(envelope, indent=1)
        )
        atomic_write_text(path, text)


def read_envelope(
    path: Path | str,
    *,
    expected_version: int = CACHE_SCHEMA_VERSION,
) -> object:
    """Read and verify an envelope; returns the payload or raises CacheError."""
    source = Path(path)
    faults.fire("cache:read")
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise CacheCorruption(f"{source}: unreadable: {exc}") from exc
    text = faults.corrupt_text("cache:read", text)
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CacheCorruption(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(envelope, dict) or "payload" not in envelope:
        raise CacheCorruption(f"{source}: not a cache envelope")
    version = envelope.get("cache_schema_version")
    if version != expected_version:
        raise CacheVersionMismatch(
            f"{source}: schema version {version!r}, expected {expected_version}"
        )
    payload = envelope["payload"]
    if envelope.get("checksum") != _checksum(_canonical(payload)):
        raise CacheCorruption(f"{source}: payload checksum mismatch")
    return payload


def quarantine(path: Path | str) -> Path:
    """Move a bad cache entry aside (never delete evidence); returns it."""
    source = Path(path)
    target = source.with_name(source.name + QUARANTINE_SUFFIX)
    try:
        os.replace(source, target)
    except OSError:
        # Fall back to removal if the rename is impossible (e.g. the file
        # vanished); the entry must not be picked up again either way.
        source.unlink(missing_ok=True)
    return target


@dataclass(frozen=True)
class CacheReadResult:
    """Outcome of a guarded cache read.

    ``payload is None`` means cache miss; ``error`` carries the reason when
    the miss came from a quarantined entry.
    """

    payload: object | None = None
    quarantined: Path | None = None
    error: str | None = None

    @property
    def hit(self) -> bool:
        return self.payload is not None


def read_cached_payload(
    path: Path | str,
    *,
    expected_version: int = CACHE_SCHEMA_VERSION,
) -> CacheReadResult:
    """Read an envelope, quarantining corrupt/stale entries as misses."""
    source = Path(path)
    if not source.exists():
        obs.inc("cache.miss")
        return CacheReadResult()
    try:
        payload = read_envelope(source, expected_version=expected_version)
    except CacheError as exc:
        moved = quarantine(source)
        logger.warning("quarantined cache entry %s: %s", moved, exc)
        obs.inc("cache.quarantined")
        return CacheReadResult(quarantined=moved, error=str(exc))
    obs.inc("cache.hit")
    return CacheReadResult(payload=payload)
