"""The serve tests' one wire client: payloads and a retrying socket client."""

from __future__ import annotations

import json
import socket
import time

#: Error codes the retrying client treats as transient.
RETRYABLE_CODES = (
    "overloaded",
    "deadline_exceeded",
    "circuit_open",
    "internal",
)


def record_payload(record, new_id=None):
    """One record as its wire-format payload, optionally under a new id."""
    return {
        "record_id": new_id if new_id is not None else record.record_id,
        "source": record.source,
        "values": dict(record.values),
    }


class RetryClient:
    """A scripted client that reconnects and retries through faults."""

    def __init__(self, address: str, *, timeout_seconds: float = 10.0) -> None:
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

        Transient failures — a dropped connection, a ``drained`` event or
        an error in :data:`RETRYABLE_CODES` — cost a retry with linear
        backoff. Anything else (an ``ok`` answer, a ``bad_request``) is
        authoritative and returned as-is.
        """
        for attempt in range(attempts):
            if attempt:
                self.retries += 1
                time.sleep(0.02 * attempt)
            try:
                self._connect()
                self._sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
                line = self._file.readline()
            except OSError:
                self._reset()
                continue
            try:
                response = json.loads(line)
            except json.JSONDecodeError:
                self._reset()  # EOF or a torn line
                continue
            if response.get("event") == "drained":
                self._reset()
                continue
            if not response.get("ok") and response.get("error") in RETRYABLE_CODES:
                continue
            return response
        return None

    def close(self) -> None:
        self._reset()
