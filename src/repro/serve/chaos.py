"""Chaos campaigns against a live socket front end.

The offline chaos engine (:mod:`repro.runtime.chaos`) proves sweep
verdicts survive faults; this module proves the *serving* claim: a
socket front end under injected accept/read/write/disconnect/batch
faults still answers every finally-admitted query **bit-identically** to
a fault-free offline :class:`~repro.serve.session.MatcherSession`. The
faults may cost retries, shed requests or drop connections — they must
never change a prediction, because the paper's verdicts only transfer to
a deployment whose matching behaviour is exactly reproducible.

:func:`run_frontend_plan` builds a fresh session + front end, arms one
:class:`~repro.runtime.chaos.FaultPlan` drawn from
:func:`~repro.runtime.chaos.frontend_site_pool`, and drives a scripted
client (adds, then queries, reconnect-and-retry on any failure) over
real TCP. Divergence = an admitted ``ok`` answer differing from the
offline baseline, or a final record count that drifted. A SIGKILL
(``--inject frontend:batch=kill``) ends the hosting process, so it is
exercised through the subprocess CLI path instead (see
``tests/serve/test_frontend_chaos.py`` and
``tests/runtime/test_crash_consistency.py``).
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import obs
from repro.data.records import Record
from repro.runtime import faults
from repro.runtime.chaos import FaultPlan, generate_frontend_plans
from repro.serve.frontend import FrontendConfig, SocketFrontend
from repro.serve.loop import ServeLoop
from repro.serve.session import MatcherSession

#: Error codes a scripted client treats as transient and retries.
RETRYABLE_CODES = (
    "overloaded",
    "deadline_exceeded",
    "circuit_open",
    "internal",
)


def record_payload(record: Record) -> dict:
    """One :class:`Record` → its wire-format request payload."""
    return {
        "record_id": record.record_id,
        "source": record.source,
        "values": dict(record.values),
    }


class RetryClient:
    """A scripted client that reconnects and retries through faults."""

    def __init__(
        self, address: str, *, timeout_seconds: float = 10.0
    ) -> None:
        host, _, port = address.rpartition(":")
        self._target = (host, int(port))
        self.timeout_seconds = timeout_seconds
        self.retries = 0
        self._sock: socket.socket | None = None
        self._file = None

    def _connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            self._target, timeout=self.timeout_seconds
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("r", encoding="utf-8")

    def _reset(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._file = None

    def request(self, payload: dict, *, attempts: int = 10) -> dict | None:
        """Send until an authoritative response arrives; ``None`` = gave up.

        Transient failures — a dropped connection, ``overloaded``,
        ``deadline_exceeded``, ``circuit_open``, ``internal`` — cost a
        retry with linear backoff. Anything else (an ``ok`` answer, a
        ``bad_request``) is authoritative and returned as-is.
        """
        for attempt in range(attempts):
            if attempt:
                self.retries += 1
                time.sleep(0.02 * attempt)
            try:
                self._connect()
                assert self._sock is not None and self._file is not None
                self._sock.sendall(
                    (json.dumps(payload) + "\n").encode("utf-8")
                )
                line = self._file.readline()
            except OSError:
                self._reset()
                continue
            if not line:
                self._reset()
                continue
            try:
                response = json.loads(line)
            except json.JSONDecodeError:
                self._reset()
                continue
            if response.get("event") == "drained":
                self._reset()
                continue
            if (
                not response.get("ok")
                and response.get("error") in RETRYABLE_CODES
            ):
                continue
            return response
        return None

    def close(self) -> None:
        self._reset()


@dataclass(frozen=True)
class FrontendPlanResult:
    """One executed front-end plan: parity divergences + retry cost."""

    plan: FaultPlan
    divergences: tuple[str, ...]
    answered: int
    unanswered: int
    retries: int

    @property
    def ok(self) -> bool:
        return not self.divergences


@dataclass(frozen=True)
class FrontendCampaignReport:
    """Every plan of one front-end chaos campaign."""

    seed: int
    results: tuple[FrontendPlanResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def divergent(self) -> tuple[FrontendPlanResult, ...]:
        return tuple(result for result in self.results if not result.ok)


def offline_baseline(
    session: MatcherSession,
    donors: Sequence[Record],
    probes: Sequence[Record],
    k: int,
) -> dict[str, dict]:
    """The fault-free ground truth: add donors, answer probes offline."""
    fresh = [r for r in donors if r.record_id not in session]
    session.add_records(fresh)
    results = session.query_batch(list(probes), k)
    return {
        probe.record_id: result.to_dict()
        for probe, result in zip(probes, results)
    }


def run_frontend_plan(
    plan: FaultPlan,
    session_factory: Callable[[], MatcherSession],
    donors: Sequence[Record],
    probes: Sequence[Record],
    *,
    k: int = 3,
    baseline: dict[str, dict] | None = None,
    config: FrontendConfig | None = None,
) -> FrontendPlanResult:
    """Drive the scripted workload under one armed plan; diff admitted answers.

    The workload: add ``donors`` (idempotent — the execution core
    deduplicates records already present, so a retried add is safe), then
    query every probe, retrying each request through transient failures.
    Every answered query must match ``baseline`` bit-for-bit.
    """
    if baseline is None:
        baseline = offline_baseline(session_factory(), donors, probes, k)
    session = session_factory()
    expected_records = len(session) + sum(
        1 for r in donors if r.record_id not in session
    )
    core = ServeLoop(session)
    frontend = SocketFrontend(
        core, listen="127.0.0.1:0", config=config or FrontendConfig()
    )
    divergences: list[str] = []
    answered = 0
    unanswered = 0
    add_ok = False
    faults.reset()
    plan.arm()
    client: RetryClient | None = None
    try:
        with obs.span("chaos.frontend_plan", plan=plan.plan_id):
            frontend.start()
            client = RetryClient(frontend.address())
            response = client.request(
                {
                    "op": "add",
                    "id": "chaos-add",
                    "records": [record_payload(r) for r in donors],
                }
            )
            add_ok = bool(response and response.get("ok"))
            if not add_ok:
                divergences.append(
                    f"add never succeeded under {plan.describe()}: {response}"
                )
            for probe in probes:
                response = client.request(
                    {
                        "op": "query",
                        "id": f"q-{probe.record_id}",
                        "record": record_payload(probe),
                        "k": k,
                    }
                )
                if response is None or not response.get("ok"):
                    # Never admitted: allowed (shedding is the contract),
                    # but an admitted answer must be exact.
                    unanswered += 1
                    continue
                answered += 1
                expected = baseline[probe.record_id]
                if response.get("result") != expected:
                    divergences.append(
                        f"probe {probe.record_id}: admitted answer diverged "
                        f"from offline baseline under {plan.describe()}"
                    )
            # Final-state drift: a retried add must converge to exactly
            # the fault-free record count (dedup makes replays safe).
            if add_ok and len(session) != expected_records:
                divergences.append(
                    f"final record count {len(session)} != "
                    f"expected {expected_records} under {plan.describe()}"
                )
    finally:
        faults.reset()
        if client is not None:
            client.close()
        frontend.stop()
    obs.inc("chaos.frontend_plans")
    if divergences:
        obs.inc("chaos.divergences", len(divergences))
    return FrontendPlanResult(
        plan=plan,
        divergences=tuple(divergences),
        answered=answered,
        unanswered=unanswered,
        retries=client.retries if client is not None else 0,
    )


def run_frontend_campaign(
    session_factory: Callable[[], MatcherSession],
    donors: Sequence[Record],
    probes: Sequence[Record],
    *,
    n_plans: int = 6,
    seed: int = 0,
    k: int = 3,
    config: FrontendConfig | None = None,
) -> FrontendCampaignReport:
    """A seeded schedule of in-process plans over the frontend sites."""
    plans = generate_frontend_plans(n_plans, seed)
    baseline = offline_baseline(session_factory(), donors, probes, k)
    results = tuple(
        run_frontend_plan(
            plan,
            session_factory,
            donors,
            probes,
            k=k,
            baseline=baseline,
            config=config,
        )
        for plan in plans
    )
    return FrontendCampaignReport(seed=seed, results=results)
