"""Concurrent socket front end for ``repro.serve``: admission, deadlines, shedding.

The stdio :class:`~repro.serve.loop.ServeLoop` is single-client by
construction: one slow reader stalls the daemon and there is no notion
of overload. This module puts a zero-dependency threaded TCP/unix-socket
server in front of the *same* execution core, with the concurrency
shaped so it can never change predictions:

* **Reader threads** (one per connection) parse length-delimited JSONL
  with the shared :func:`~repro.serve.protocol.parse_request` and feed a
  **bounded admission queue** (:class:`AdmissionQueue`: depth cap +
  in-flight-bytes cap). A full queue sheds the request with a structured
  ``overloaded`` response and a ``serve.shed`` counter — the queue never
  grows without bound, and memory is capped by admitted bytes.
* A single **dispatcher thread** is the only thread that touches the
  :class:`~repro.serve.session.MatcherSession`. Mutating ops (``add``,
  ``snapshot``, ``shutdown``) execute through the core's
  :meth:`~repro.serve.loop.ServeLoop.handle`, preserving the exactly-once
  journal semantics and grown-vs-rebuilt bit-identity of the stdio path.
  Consecutive admitted queries with a compatible ``k`` are **coalesced**
  into one :meth:`~repro.serve.session.MatcherSession.query_batch` call
  (strictly FIFO — coalescing never reorders a query past a mutation, so
  every answer reflects the state at its admission order).
* Every admitted request carries a **deadline** from an
  :class:`~repro.runtime.guard.AdaptiveDeadlineModel` keyed by op; a
  request whose queue sojourn exceeds it answers ``deadline_exceeded``
  instead of executing — late work is refused, never silently stale.
* **Per-client circuit breakers** (:class:`~repro.runtime.breaker`)
  count protocol failures (bad lines, unknown ops, raising ops); an open
  breaker short-circuits that client to ``circuit_open`` on the reader
  thread without consuming dispatcher time.
* **Slow-client writes** are bounded by a send timeout; a write failure
  (or an injected ``frontend:write``/``frontend:disconnect`` fault)
  closes *that* client only — a peer vanishing mid-coalesced-batch never
  poisons the batch for its co-batched neighbours.
* ``health``/``ready`` are answered on the reader thread, bypassing
  admission entirely, so liveness probes keep working under overload.

**Drain.** SIGTERM (or the ``shutdown`` op) stops intake — readers
answer ``draining`` — while the dispatcher finishes every already
admitted request, then runs the core's drain path (snapshot → journal
truncate), broadcasts a final ``drained`` event to connected clients and
closes the listener. The SIGTERM handler stays installed through the
final snapshot (see :meth:`ServeLoop.run` for why).

**Fault sites.** ``frontend:accept``, ``frontend:read``,
``frontend:write``, ``frontend:disconnect`` and ``frontend:batch`` arm
:mod:`repro.runtime.faults` at the socket layer (the front-end fault
property in ``tests/serve/test_frontend_chaos.py`` draws from them); the
``kill`` kind at ``frontend:batch`` SIGKILLs mid-coalesced-batch for the
crash-consistency test.
"""

from __future__ import annotations

import signal
import socket
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO

from repro import obs
from repro.obs.metrics import LatencyHistogram
from repro.runtime import faults
from repro.runtime.breaker import BreakerRegistry
from repro.runtime.guard import AdaptiveDeadlineModel
from repro.serve.loop import ServeLoop, parse_record_payload
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    BadRequest,
    bad_request_response,
    encode_response,
    error_response,
    parse_request,
)

#: Fault-injection sites owned by the socket front end.
FAULT_SITES = (
    "frontend:accept",      # error/hang while accepting a connection
    "frontend:read",        # error/hang on a client's receive path
    "frontend:write",       # error/hang while sending a response
    "frontend:disconnect",  # force-close a client right after admission
    "frontend:batch",       # error/hang/kill at the top of a coalesced batch
)

#: Ops that are answered inline on the reader thread, bypassing admission.
_FAST_OPS = ("health", "ready")

#: Ops the dispatcher may coalesce into one ``query_batch`` call.
_QUERY_OPS = ("query", "query_batch")


@dataclass(frozen=True, kw_only=True)
class FrontendConfig:
    """Admission, deadline and breaker settings for a socket front end."""

    max_queue_depth: int = 64
    max_inflight_bytes: int = 8 * 1024 * 1024
    max_line_bytes: int = MAX_LINE_BYTES
    coalesce_max: int = 16
    send_timeout_seconds: float = 5.0
    poll_seconds: float = 0.05
    deadline_margin: float = 4.0
    deadline_floor_seconds: float = 0.25
    deadline_ceiling_seconds: float = 60.0
    fallback_deadline_seconds: float | None = 30.0
    breaker_threshold: int = 5
    breaker_cooldown_seconds: float = 1.0
    listen_backlog: int = 128

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_inflight_bytes < 1:
            raise ValueError(
                f"max_inflight_bytes must be >= 1, got {self.max_inflight_bytes}"
            )
        if self.coalesce_max < 1:
            raise ValueError(
                f"coalesce_max must be >= 1, got {self.coalesce_max}"
            )
        if self.send_timeout_seconds <= 0:
            raise ValueError(
                f"send_timeout_seconds must be positive, "
                f"got {self.send_timeout_seconds}"
            )
        if self.poll_seconds <= 0:
            raise ValueError(
                f"poll_seconds must be positive, got {self.poll_seconds}"
            )

    def deadline_model(self) -> AdaptiveDeadlineModel:
        return AdaptiveDeadlineModel(
            margin=self.deadline_margin,
            floor_seconds=self.deadline_floor_seconds,
            ceiling_seconds=self.deadline_ceiling_seconds,
            fallback_seconds=self.fallback_deadline_seconds,
        )


@dataclass
class _Admitted:
    """One request that made it past admission, waiting for the dispatcher."""

    client: "_Client"
    request: dict
    op: str
    request_id: object
    cost: int
    received_at: float
    deadline_seconds: float | None

    def expired(self, now: float) -> bool:
        return (
            self.deadline_seconds is not None
            and now - self.received_at > self.deadline_seconds
        )


class AdmissionQueue:
    """Bounded FIFO: depth-capped queue, byte-capped admitted-but-unfinished.

    ``offer`` refuses (returns ``False``) instead of blocking — shedding
    is the caller's job. Bytes are reserved at admission and released by
    ``done`` *after* execution, so the byte cap bounds total buffered
    request payload, not just what is queued.
    """

    def __init__(self, max_depth: int, max_bytes: int) -> None:
        self.max_depth = max_depth
        self.max_bytes = max_bytes
        self._items: deque[_Admitted] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._inflight_bytes = 0

    def offer(self, item: _Admitted) -> bool:
        with self._lock:
            if len(self._items) >= self.max_depth:
                return False
            # A lone oversized request is admitted when nothing else is in
            # flight (the line cap already bounds it); otherwise it waits
            # like everyone else or is shed.
            if (
                self._inflight_bytes + item.cost > self.max_bytes
                and self._inflight_bytes > 0
            ):
                return False
            self._items.append(item)
            self._inflight_bytes += item.cost
            self._ready.notify()
            return True

    def take(self, timeout: float) -> _Admitted | None:
        with self._ready:
            if not self._items:
                self._ready.wait(timeout)
            if not self._items:
                return None
            return self._items.popleft()

    def take_head_if(self, predicate) -> _Admitted | None:
        """Pop the head only when it matches — FIFO-preserving coalescing."""
        with self._lock:
            if self._items and predicate(self._items[0]):
                return self._items.popleft()
            return None

    def done(self, item: _Admitted) -> None:
        with self._lock:
            self._inflight_bytes -= item.cost

    def depth(self) -> int:
        with self._lock:
            return len(self._items)

    def inflight_bytes(self) -> int:
        with self._lock:
            return self._inflight_bytes


class _Client:
    """One connection: socket + write lock + liveness flag."""

    def __init__(
        self, client_id: str, sock: socket.socket, frontend: "SocketFrontend"
    ) -> None:
        self.client_id = client_id
        self.sock = sock
        self.frontend = frontend
        self.alive = True
        self._send_lock = threading.Lock()

    def send(self, response: dict) -> bool:
        """Write one response; on failure close this client only."""
        payload = encode_response(response)
        with self._send_lock:
            if not self.alive:
                return False
            try:
                faults.fire("frontend:write")
                self.sock.settimeout(self.frontend.config.send_timeout_seconds)
                self.sock.sendall(payload)
                return True
            except (OSError, faults.InjectedFault):
                # Slow or vanished client: bounded by the send timeout,
                # and the failure is contained to this connection.
                obs.inc("serve.frontend.write_errors")
                self._close_locked()
                return False

    def close(self) -> None:
        with self._send_lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if not self.alive:
            return
        self.alive = False
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass
        self.frontend._forget(self)


class SocketFrontend:
    """Threaded TCP/unix-socket server around a single-writer serve core."""

    def __init__(
        self,
        core: ServeLoop,
        *,
        listen: str | None = None,
        socket_path: str | Path | None = None,
        config: FrontendConfig | None = None,
    ) -> None:
        if (listen is None) == (socket_path is None):
            raise ValueError("exactly one of listen/socket_path is required")
        self.core = core
        self.session = core.session
        self.config = config or FrontendConfig()
        self.listen = listen
        self.socket_path = None if socket_path is None else Path(socket_path)
        self.draining = core.draining  # shared: shutdown op drains both
        self.deadlines = self.config.deadline_model()
        self.breakers = BreakerRegistry(
            failure_threshold=self.config.breaker_threshold,
            cooldown_seconds=self.config.breaker_cooldown_seconds,
        )
        self.queue = AdmissionQueue(
            self.config.max_queue_depth, self.config.max_inflight_bytes
        )
        self.latency: dict[str, LatencyHistogram] = {}
        self._listener: socket.socket | None = None
        self._clients: dict[str, _Client] = {}
        self._clients_lock = threading.Lock()
        self._threads: list[threading.Thread] = []
        self._dispatcher: threading.Thread | None = None
        self._started = threading.Event()
        self._drained = threading.Event()
        self._started_at: float | None = None
        self._client_seq = 0
        self._stats_lock = threading.Lock()
        self._counts = {
            "connections": 0,
            "requests": 0,
            "admitted": 0,
            "shed": 0,
            "deadline_exceeded": 0,
            "circuit_open": 0,
            "bad_lines": 0,
            "batches": 0,
            "coalesced": 0,
            "disconnects": 0,
        }

    # -- bookkeeping -------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self._counts[key] += amount

    def _observe(self, op: str, sojourn_seconds: float) -> None:
        with self._stats_lock:
            histogram = self.latency.get(op)
            if histogram is None:
                histogram = self.latency[op] = LatencyHistogram()
            histogram.observe(sojourn_seconds)
        obs.observe(f"serve.frontend.{op}_seconds", sojourn_seconds)

    def frontend_stats(self) -> dict:
        """JSON-ready front-end state: queue, counters, per-op latency."""
        with self._stats_lock:
            counts = dict(self._counts)
            latency = {
                op: histogram.to_dict()
                for op, histogram in sorted(self.latency.items())
            }
        return {
            "address": self.address(),
            "queue_depth": self.queue.depth(),
            "inflight_bytes": self.queue.inflight_bytes(),
            "max_queue_depth": self.config.max_queue_depth,
            "max_inflight_bytes": self.config.max_inflight_bytes,
            "draining": self.draining.is_set(),
            "open_breakers": self.breakers.open_keys(),
            "deadlines": self.deadlines.snapshot(),
            "counts": counts,
            "latency": latency,
        }

    def address(self) -> str:
        """The bound address: ``host:port`` (TCP) or the socket path."""
        if self.socket_path is not None:
            return str(self.socket_path)
        if self._listener is not None:
            host, port = self._listener.getsockname()[:2]
            return f"{host}:{port}"
        return self.listen or ""

    def _forget(self, client: _Client) -> None:
        with self._clients_lock:
            if self._clients.pop(client.client_id, None) is not None:
                self._count("disconnects")
                obs.inc("serve.frontend.disconnects")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind, listen, and start the accept + dispatcher threads."""
        if self._started.is_set():
            raise RuntimeError("frontend already started")
        if self.socket_path is not None:
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
            # A leftover path from a killed daemon would block the bind;
            # the state lease — not the socket file — guards against two
            # live daemons, so a stale path is safe to clear.
            self.socket_path.unlink(missing_ok=True)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(self.socket_path))
        else:
            host, _, port_text = (self.listen or "").rpartition(":")
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(
                    f"--listen expects HOST:PORT, got {self.listen!r}"
                ) from None
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host or "127.0.0.1", port))
        listener.listen(self.config.listen_backlog)
        listener.settimeout(self.config.poll_seconds)
        self._listener = listener
        self.core.acquire_state()
        self._started_at = time.monotonic()
        self._started.set()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="frontend-dispatch"
        )
        self._dispatcher.start()
        accept = threading.Thread(
            target=self._accept_loop, daemon=True, name="frontend-accept"
        )
        accept.start()
        self._threads.append(accept)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and wait for the dispatcher to finish (tests, shutdown)."""
        self.draining.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout)

    def serve_forever(
        self,
        *,
        install_signals: bool = True,
        output_stream: IO[str] | None = None,
    ) -> int:
        """Run until SIGTERM or a ``shutdown`` op; returns the exit code.

        Emits a ``ready`` event with the bound address on
        ``output_stream`` (default stdout) so callers — `scripts/verify.sh`,
        the benchmarks — can discover an ephemeral port.
        """
        import json as _json

        sink = output_stream if output_stream is not None else sys.stdout
        previous_handler = None
        if install_signals:
            previous_handler = signal.signal(
                signal.SIGTERM, lambda signum, frame: self.draining.set()
            )
        try:
            self.start()
            sink.write(
                _json.dumps(
                    {
                        "ok": True,
                        "event": "ready",
                        "address": self.address(),
                        "records": len(self.session),
                    }
                )
                + "\n"
            )
            sink.flush()
            assert self._dispatcher is not None
            # The dispatcher owns the drain (snapshot included); keeping
            # the SIGTERM handler installed until it exits means a second
            # SIGTERM mid-snapshot just re-sets the drain flag.
            while self._dispatcher.is_alive():
                self._dispatcher.join(timeout=0.2)
        finally:
            if install_signals and previous_handler is not None:
                signal.signal(signal.SIGTERM, previous_handler)
        return 0

    # -- accept + read -----------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self.draining.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed under us during drain
            try:
                faults.fire("frontend:accept")
            except faults.InjectedFault:
                obs.inc("serve.frontend.accept_errors")
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            if conn.family == socket.AF_INET:
                # Request/response over small JSONL lines: Nagle's
                # algorithm interacting with delayed ACKs adds tens of
                # milliseconds to the tail under concurrent clients.
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._clients_lock:
                self._client_seq += 1
                client = _Client(f"client-{self._client_seq}", conn, self)
                self._clients[client.client_id] = client
            self._count("connections")
            obs.inc("serve.frontend.connections")
            reader = threading.Thread(
                target=self._read_loop,
                args=(client,),
                daemon=True,
                name=f"frontend-read-{client.client_id}",
            )
            reader.start()

    def _read_loop(self, client: _Client) -> None:
        buffer = b""
        client.sock.settimeout(self.config.poll_seconds)
        while client.alive:
            try:
                faults.fire("frontend:read")
                chunk = client.sock.recv(65536)
            except socket.timeout:
                continue
            except (OSError, faults.InjectedFault):
                obs.inc("serve.frontend.read_errors")
                client.close()
                return
            if not chunk:
                client.close()
                return
            buffer += chunk
            while b"\n" in buffer:
                line, _, buffer = buffer.partition(b"\n")
                self._on_line(client, line.decode("utf-8", errors="replace"))
            if len(buffer) > self.config.max_line_bytes:
                # An unterminated over-long line cannot be resynced: the
                # only safe recovery is to drop the connection.
                self._count("bad_lines")
                client.send(
                    bad_request_response(
                        f"request line exceeds {self.config.max_line_bytes} "
                        "bytes; disconnecting"
                    )
                )
                client.close()
                return

    def _on_line(self, client: _Client, line: str) -> None:
        breaker = self.breakers.breaker_for(client.client_id)
        try:
            request = parse_request(line, max_bytes=self.config.max_line_bytes)
        except BadRequest as exc:
            self._count("bad_lines")
            breaker.record_failure()
            client.send(bad_request_response(exc))
            return
        if request is None:
            return
        self._count("requests")
        obs.inc("serve.frontend.requests")
        op = request.get("op")
        op_key = op if isinstance(op, str) else "unknown"
        request_id = request.get("id")
        if op in _FAST_OPS:
            # Liveness probes must answer under overload and during
            # drain: no breaker, no admission, no dispatcher.
            client.send(self._echo(self._fast_response(op), request_id))
            return
        if not breaker.allow():
            self._count("circuit_open")
            obs.inc("serve.frontend.circuit_open")
            client.send(
                self._echo(
                    error_response(
                        "circuit_open",
                        f"{client.client_id} breaker is open; back off",
                    ),
                    request_id,
                )
            )
            return
        if self.draining.is_set():
            client.send(
                self._echo(
                    error_response("draining", "server is draining"), request_id
                )
            )
            return
        item = _Admitted(
            client=client,
            request=request,
            op=op_key,
            request_id=request_id,
            cost=len(line.encode("utf-8", errors="replace")),
            received_at=time.monotonic(),
            deadline_seconds=self.deadlines.deadline_for(op_key),
        )
        if not self.queue.offer(item):
            self._count("shed")
            obs.inc("serve.shed")
            client.send(
                self._echo(
                    error_response(
                        "overloaded",
                        "admission queue full; retry with backoff",
                        queue_depth=self.queue.depth(),
                        inflight_bytes=self.queue.inflight_bytes(),
                    ),
                    request_id,
                )
            )
            return
        self._count("admitted")
        obs.inc("serve.frontend.admitted")
        if faults.triggered("frontend:disconnect"):
            # Chaos: the peer vanishes right after admission — its
            # request is already in the queue and must not poison the
            # batch it gets coalesced into.
            client.close()

    def _fast_response(self, op: str) -> dict:
        if op == "health":
            uptime = (
                0.0
                if self._started_at is None
                else time.monotonic() - self._started_at
            )
            with self._clients_lock:
                clients = len(self._clients)
            return {
                "ok": True,
                "op": "health",
                "records": len(self.session),
                "uptime_seconds": round(uptime, 3),
                "clients": clients,
                "queue_depth": self.queue.depth(),
                "inflight_bytes": self.queue.inflight_bytes(),
                "draining": self.draining.is_set(),
            }
        ready = self._started.is_set() and not self.draining.is_set()
        return {"ok": True, "op": "ready", "ready": ready}

    @staticmethod
    def _echo(response: dict, request_id: object) -> dict:
        if request_id is not None:
            response["id"] = request_id
        return response

    # -- dispatch ----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            item = self.queue.take(self.config.poll_seconds)
            if item is None:
                if self.draining.is_set() and self.queue.depth() == 0:
                    break
                continue
            try:
                self._dispatch(item)
            finally:
                self.queue.done(item)
        self._shutdown_sequence()

    def _dispatch(self, first: _Admitted) -> None:
        now = time.monotonic()
        if self._reject_expired(first, now):
            return
        if first.op in _QUERY_OPS:
            self._dispatch_queries(first)
            return
        started = time.monotonic()
        try:
            response = self.core.handle(first.request)
        except faults.InjectedFault as exc:
            response = error_response("internal", f"injected: {exc}")
        except Exception as exc:  # robustness: the daemon keeps serving
            obs.inc("serve.request_errors")
            response = error_response("internal", f"{type(exc).__name__}: {exc}")
        elapsed = time.monotonic() - started
        ok = bool(response.get("ok"))
        if ok:
            self.deadlines.observe(first.op, elapsed)
        self._record_outcome(first, ok)
        if first.op == "stats" and ok:
            response["frontend"] = self.frontend_stats()
        self._observe(first.op, time.monotonic() - first.received_at)
        first.client.send(self._echo(response, first.request_id))

    def _record_outcome(self, item: _Admitted, ok: bool) -> None:
        breaker = self.breakers.breaker_for(item.client.client_id)
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    def _reject_expired(self, item: _Admitted, now: float) -> bool:
        if not item.expired(now):
            return False
        self._count("deadline_exceeded")
        obs.inc("serve.frontend.deadline_exceeded")
        item.client.send(
            self._echo(
                error_response(
                    "deadline_exceeded",
                    f"queued {now - item.received_at:.3f}s > deadline "
                    f"{item.deadline_seconds:.3f}s",
                ),
                item.request_id,
            )
        )
        return True

    def _dispatch_queries(self, first: _Admitted) -> None:
        """Coalesce the head-run of compatible queries into one batch."""
        batch = [first]
        taken: list[_Admitted] = []
        first_k = first.request.get("k")
        probe_ids: set[str] = set()

        def _compatible(item: _Admitted) -> bool:
            if item.op not in _QUERY_OPS or item.request.get("k") != first_k:
                return False
            # Two probes sharing a record_id would collide in the batch
            # verdict keys; flush first, coalesce the duplicate later.
            try:
                ids = self._probe_ids(item)
            except Exception:
                return False
            return not (ids & probe_ids)

        try:
            probe_ids |= self._probe_ids(first)
        except Exception:
            probe_ids = set()
        while len(batch) < self.config.coalesce_max:
            item = self.queue.take_head_if(_compatible)
            if item is None:
                break
            taken.append(item)
            batch.append(item)
            try:
                probe_ids |= self._probe_ids(item)
            except Exception:
                pass
        try:
            self._execute_query_batch(batch)
        finally:
            for item in taken:
                self.queue.done(item)

    @staticmethod
    def _probe_ids(item: _Admitted) -> set[str]:
        if item.op == "query":
            return {str(item.request["record"]["record_id"])}
        return {
            str(entry["record_id"])
            for entry in item.request.get("records", [])
        }

    def _execute_query_batch(self, batch: list[_Admitted]) -> None:
        now = time.monotonic()
        live = [item for item in batch if not self._reject_expired(item, now)]
        if not live:
            return
        self._count("batches")
        if len(live) > 1:
            self._count("coalesced", len(live) - 1)
            obs.inc("serve.frontend.coalesced", len(live) - 1)
        # Chaos site: error/hang/kill exactly when a multi-request batch
        # is about to touch the session — the point where a crash is most
        # entangled across clients.
        try:
            faults.fire("frontend:batch")
        except faults.InjectedFault as exc:
            for item in live:
                self._record_outcome(item, False)
                item.client.send(
                    self._echo(
                        error_response("internal", f"injected: {exc}"),
                        item.request_id,
                    )
                )
            return
        probes = []
        spans: list[tuple[_Admitted, int, int]] = []
        failed: list[tuple[_Admitted, dict]] = []
        for item in live:
            try:
                if item.op == "query":
                    records = [parse_record_payload(item.request["record"])]
                else:
                    records = [
                        parse_record_payload(entry)
                        for entry in item.request.get("records", [])
                    ]
            except Exception as exc:
                failed.append(
                    (
                        item,
                        error_response(
                            "internal", f"{type(exc).__name__}: {exc}"
                        ),
                    )
                )
                continue
            spans.append((item, len(probes), len(records)))
            probes.extend(records)
        for item, response in failed:
            self._record_outcome(item, False)
            item.client.send(self._echo(response, item.request_id))
        if not spans:
            return
        k = live[0].request.get("k")
        started = time.monotonic()
        try:
            results = self.session.query_batch(probes, k)
        except faults.InjectedFault as exc:
            results = None
            error = error_response("internal", f"injected: {exc}")
        except Exception as exc:
            obs.inc("serve.request_errors")
            results = None
            error = error_response("internal", f"{type(exc).__name__}: {exc}")
        elapsed = time.monotonic() - started
        if results is None:
            for item, _, _ in spans:
                self._record_outcome(item, False)
                item.client.send(self._echo(dict(error), item.request_id))
            return
        for item, offset, count in spans:
            slice_ = results[offset : offset + count]
            if item.op == "query":
                response = {
                    "ok": True,
                    "op": "query",
                    "result": slice_[0].to_dict(),
                }
            else:
                response = {
                    "ok": True,
                    "op": "query_batch",
                    "results": [result.to_dict() for result in slice_],
                }
            self.deadlines.observe(item.op, elapsed)
            self._record_outcome(item, True)
            self._observe(item.op, time.monotonic() - item.received_at)
            # A vanished peer fails its own send; co-batched neighbours
            # already have their slices and answer normally.
            item.client.send(self._echo(response, item.request_id))

    # -- drain -------------------------------------------------------------

    def _shutdown_sequence(self) -> None:
        # Late admissions can race the drain flag; answer them instead of
        # leaving the client hanging until the socket closes.
        while True:
            item = self.queue.take(0.0)
            if item is None:
                break
            try:
                item.client.send(
                    self._echo(
                        error_response("draining", "server is draining"),
                        item.request_id,
                    )
                )
            finally:
                self.queue.done(item)
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        # The durable half: snapshot then truncate the journal, exactly
        # the stdio loop's drain path (single writer — this thread).
        self.core._drain_state()
        drained = {
            "ok": True,
            "event": "drained",
            "stats": self.session.stats(),
        }
        with self._clients_lock:
            clients = list(self._clients.values())
        for client in clients:
            client.send(dict(drained))
            client.close()
        if self.socket_path is not None:
            self.socket_path.unlink(missing_ok=True)
        self.core.release_state()
        self.session.close()
        obs.inc("serve.frontend.drained")
        self._drained.set()
