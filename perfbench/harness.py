"""Measurement helpers shared by every perfbench workload.

Everything here is pure Python over plain numbers so the rules can be
tested without running a workload (``perfbench/tests``):

* the tail rule — report the highest percentile of a fixed ladder that
  still has at least ten samples beyond it, and name it with its sample
  count;
* open-loop accounting — a request is timed from when it was *due*, and
  the generator's own lateness is reported beside it;
* interval arithmetic for self time and the unattributed remainder;
* timed regions, with the host steal during each printed beside it
  (:class:`Window`);
* the host fingerprint, and the committed digests that outputs must
  match bit for bit (:class:`ExpectedDigests`);
* the one-line JSON result every run ends with.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

#: Percentiles the tail rule may choose from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The *q*-th percentile (0-100) with linear interpolation.

    ``inf`` samples (requests that failed) sort beyond every finite one;
    a percentile that reaches them is ``inf``.
    """
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    fraction = rank - low
    if fraction == 0.0:
        return ordered[low]
    high = ordered[min(low + 1, len(ordered) - 1)]
    return ordered[low] + (high - ordered[low]) * fraction


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of *n* beyond it.

    ``None`` when *n* is too small for even the median to qualify
    (fewer than ``2 * MIN_BEYOND`` samples).
    """
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9:
            return q
    return None


def tail(samples) -> tuple[str, float]:
    """``(label, value)`` of the tail the sample supports.

    The label names the percentile and the sample count, e.g.
    ``"p95 of 576"``. A sample too small for the rule reports its
    maximum, labelled ``"max of 8"``, rather than a percentile it cannot
    support.
    """
    samples = list(samples)
    q = tail_percentile(len(samples))
    if q is None:
        return f"max of {len(samples)}", max(samples)
    return f"p{q:g} of {len(samples)}", percentile(samples, q)


def open_loop_schedule(n: int, rate: float, start: float) -> list[float]:
    """Due times of *n* requests sent at a fixed *rate* from *start*."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return [start + index / rate for index in range(n)]


def open_loop_timing(due: float, sent: float, done: float) -> tuple[float, float]:
    """``(latency, lateness)`` of one open-loop request.

    Latency runs from the due time, so a stall that delays later sends
    is charged to those requests; lateness is how far the generator
    itself fell behind its schedule (never negative).
    """
    return done - due, max(0.0, sent - due)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover."""
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return (end - start) - union_length(clipped)


def source_digest(root: Path) -> str:
    """Digest of the program's sources (``src/**/*.py``) under *root*."""
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    """HEAD's sha when *root* is a git checkout, else ``None``."""
    if not (root / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    sha = result.stdout.strip()
    return sha or None


def host_fingerprint(root: Path) -> dict:
    """What the numbers were measured on, printed with every run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
    }


def child_env(root: Path) -> dict:
    """The environment for a child: the program's sources and this directory on the path."""
    env = dict(os.environ)
    parts = [str(root / "src"), str(Path(__file__).resolve().parent)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float | None:
    """``VmHWM`` of a live process in MiB, or ``None`` if unreadable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def steal_seconds() -> float:
    """CPU time the hypervisor gave other guests since boot (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Window:
    """One timed region: its wall time, and the host steal inside it.

    On a shared host the hypervisor runs other guests on this guest's
    CPUs; ``/proc/stat`` counts that time as *steal*, summed over CPUs.
    Metrics are wall time; ``stolen`` is only printed beside them, so a
    slow run can be told apart from a slow host.
    """

    def __init__(self) -> None:
        self.start = self.end = 0.0
        self.stolen = 0.0

    def __enter__(self) -> "Window":
        self._steal = steal_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        self.stolen = max(0.0, steal_seconds() - self._steal)

    @property
    def wall(self) -> float:
        return self.end - self.start


def digest_of(payload) -> str:
    """Stable digest of a JSON-clean payload (floats compared exactly)."""
    text = json.dumps(payload, sort_keys=True, default=_exact)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=12).hexdigest()


def _exact(value):
    if isinstance(value, float):
        return value.hex()
    raise TypeError(f"not JSON-clean: {type(value).__name__}")


class ExpectedDigests:
    """Output digests committed beside the benchmark, keyed by inputs only.

    ``expected_digests.json`` maps an input key (workload, dataset, seed)
    to the digest this program's outputs had when the file was written
    (``record_digests.py``). A run whose outputs differ fails its check,
    whatever else changed in the program; so does a key with no entry.
    """

    PATH = Path(__file__).resolve().parent / "expected_digests.json"

    def __init__(self, path: Path | None = None) -> None:
        path = path if path is not None else self.PATH
        try:
            self.digests = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.digests = {}

    def matches(self, key: str, digest: str) -> bool:
        return self.digests.get(key) == digest

    def describe(self, key: str) -> str:
        expected = self.digests.get(key)
        return f"expected {expected}" if expected else f"no expected digest for {key}"


class Report:
    """Human-readable lines first, the JSON result line last."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stdout
        self.failures: list[str] = []

    def line(self, text: str) -> None:
        print(text, file=self.stream, flush=True)

    def check(self, ok: bool, what: str) -> bool:
        """Record one correctness gate; a failed gate fails the run."""
        self.line(f"check {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        suffix = f"  ({note})" if note else ""
        self.line(f"metric {name} = {value:.6g} {unit}{suffix}")


def result_line(
    correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]
) -> str:
    """The final stdout line: exactly the four keys the contract names."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }
    )
