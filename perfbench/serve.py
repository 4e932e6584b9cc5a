"""serve-mix: a resident matching server under a seeded query/add mix.

The server is ``python -m repro serve dblp_scholar --listen 127.0.0.1:0
--state DIR --snapshot-every 100`` in a child process (through
:mod:`serve_launcher` when traced): every 100th acknowledged add writes
a session snapshot and journals the adds it covers, so durable writes
run beside the queries (three in the closed loop, two in the open loop).
One generator thread drives two connections with a ``selectors`` loop —
about 80% ``query`` (k=10) and 20% ``add`` — in three phases:

* warmup (closed loop) — excluded from every figure, reported as a count;
* closed loop — each connection sends its next request when the previous
  answer arrives; gives requests/s;
* open loop — requests are due at a fixed rate well below the closed-loop
  throughput, alternating connections; each is timed from its due time,
  and the generator's own lateness is reported beside it.

Set-up is the measured server's spawn to ``ready``: one sample per run,
since each costs ~9 s.

Correctness: every answered query equals the offline session's answer
(:mod:`serve_reference`), and the final record count equals the initial
one plus the adds acknowledged.
"""

from __future__ import annotations

import json
import math
import random
import selectors
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from harness import (
    Window,
    child_env,
    open_loop_schedule,
    open_loop_timing,
    percentile,
    process_peak_rss_mb,
    tail,
)

DATASET = "dblp_scholar"
K = 10
QUERY_SHARE = 0.8
WARMUP_REQUESTS = 100
#: Closed-loop requests per second of ``--seconds``.
CLOSED_PER_SECOND = 150
#: Open-loop arrival rate (requests/s) and its share of ``--seconds``.
OPEN_RATE = 60.0
OPEN_SHARE = 2.0
#: Acknowledged adds between session snapshots (``--snapshot-every``).
SNAPSHOT_EVERY = 100
READY_TIMEOUT_S = 120.0
PHASE_TIMEOUT_S = 120.0


@dataclass
class Request:
    rid: str
    op: str
    line: bytes
    record: dict
    due: float | None = None
    sent: float | None = None
    done: float | None = None
    response: dict | None = field(default=None, repr=False)
    position: int | None = None  #: an acknowledged add's place in server order

    @property
    def ok(self) -> bool:
        return bool(self.response and self.response.get("ok"))


def _payload(record) -> dict:
    return {
        "record_id": record.record_id,
        "source": record.source,
        "values": dict(record.values),
    }


def make_requests(seed: int, seconds: int) -> dict[str, list[Request]]:
    """The seeded request mix of each phase.

    Probes copy the values of a random left-hand record under a fresh id;
    adds copy one under a fresh right-hand id, so a later probe of the
    same entity finds it. Each phase holds exactly ``QUERY_SHARE``
    queries, shuffled.
    """
    from repro.datasets.registry import load_source_pair

    sources = load_source_pair(DATASET, 1.0)
    left = sources.left.records()
    right_source = sources.right.records()[0].source
    rng = random.Random(seed)
    sizes = {
        "warmup": WARMUP_REQUESTS,
        "closed": CLOSED_PER_SECOND * seconds,
        "open": int(OPEN_RATE * OPEN_SHARE * seconds),
    }
    phases: dict[str, list[Request]] = {}
    serial = 0
    for phase, size in sizes.items():
        n_queries = round(QUERY_SHARE * size)
        ops = ["query"] * n_queries + ["add"] * (size - n_queries)
        rng.shuffle(ops)
        requests = []
        for op in ops:
            base = rng.choice(left)
            serial += 1
            if op == "query":
                record = {**_payload(base), "record_id": f"q{seed}-{serial}"}
                message = {"op": "query", "id": record["record_id"], "record": record, "k": K}
            else:
                record = {
                    "record_id": f"n{seed}-{serial}",
                    "source": right_source,
                    "values": dict(base.values),
                }
                message = {"op": "add", "id": record["record_id"], "records": [record]}
            line = (json.dumps(message) + "\n").encode("utf-8")
            requests.append(Request(record["record_id"], op, line, record))
        phases[phase] = requests
    return phases


# -- the server process -------------------------------------------------------


class Server:
    """One server child: spawn, wait for ``ready``, talk, shut down."""

    def __init__(self, root: Path, state_dir: Path, spans_out: Path | None) -> None:
        args = [
            "serve", DATASET, "--listen", "127.0.0.1:0", "--state", str(state_dir),
            "--snapshot-every", str(SNAPSHOT_EVERY),
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            command = [sys.executable, str(launcher), str(spans_out), "--", *args]
        with Window() as self.startup:
            self.proc = subprocess.Popen(
                command,
                cwd=root,
                env=child_env(root),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                text=True,
            )
            ready = read_ready(self.proc, READY_TIMEOUT_S)
        self.address = ready["address"]
        self.initial_records = int(ready["records"])

    def request(self, message: dict) -> dict:
        """One blocking request on a fresh connection."""
        host, _, port = self.address.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=60) as sock:
            sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
            with sock.makefile("r", encoding="utf-8") as handle:
                return json.loads(handle.readline())

    def shutdown(self) -> None:
        try:
            self.request({"op": "shutdown"})
        except OSError:
            pass
        self.close()

    def close(self) -> None:
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def read_ready(proc: subprocess.Popen, timeout: float) -> dict:
    """The child's first JSON line with ``"event": "ready"``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event.get("event") == "ready":
                return event
    finally:
        timer.cancel()
    proc.wait()
    raise RuntimeError(f"child exited ({proc.returncode}) before it was ready")


# -- the generator --------------------------------------------------------------


class Connection:
    def __init__(self, address: str) -> None:
        host, _, port = address.rpartition(":")
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()


def drive(connections: list[Connection], requests: list[Request], open_rate: float | None) -> None:
    """Send *requests*; closed loop when *open_rate* is None.

    A single thread owns both connections: it sends whatever is due and
    reads whatever answers arrived, so the generator never needs more
    than one thread however many requests are outstanding.
    """
    selector = selectors.DefaultSelector()
    for connection in connections:
        selector.register(connection.sock, selectors.EVENT_READ, connection)
    by_id = {request.rid: request for request in requests}
    pending = list(reversed(requests))
    remaining = len(requests)
    if open_rate is not None:
        due = open_loop_schedule(len(requests), open_rate, time.perf_counter() + 0.05)
        for request, when in zip(requests, due):
            request.due = when
    deadline = time.perf_counter() + PHASE_TIMEOUT_S
    turn = 0

    def send(connection: Connection, request: Request) -> None:
        request.sent = time.perf_counter()
        connection.sock.sendall(request.line)

    try:
        if open_rate is None:
            for connection in connections:
                if pending:
                    send(connection, pending.pop())
        while remaining:
            now = time.perf_counter()
            if now > deadline:
                raise RuntimeError(f"phase timed out with {remaining} request(s) unanswered")
            timeout = 0.5
            if open_rate is not None:
                while pending and pending[-1].due <= now:
                    send(connections[turn % len(connections)], pending.pop())
                    turn += 1
                if pending:
                    timeout = max(0.0, pending[-1].due - time.perf_counter())
            for key, _ in selector.select(timeout):
                connection = key.data
                chunk = connection.sock.recv(1 << 16)
                if not chunk:
                    raise RuntimeError("server closed a connection mid-phase")
                connection.buffer += chunk
                *lines, connection.buffer = connection.buffer.split(b"\n")
                for line in lines:
                    finished = time.perf_counter()
                    response = json.loads(line)
                    request = by_id[str(response.get("id"))]
                    request.done = finished
                    request.response = response
                    remaining -= 1
                    if open_rate is None and pending:
                        send(connection, pending.pop())
    finally:
        selector.close()


# -- the workload ----------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1000.0


def run(ctx) -> dict:
    report = ctx.report
    phases = make_requests(ctx.seed, ctx.seconds)
    spans_out = ctx.work / "server_spans.json" if ctx.trace else None
    server = Server(ctx.root, ctx.work / "state", spans_out)
    connections = []
    try:
        connections = [Connection(server.address) for _ in range(2)]
        windows = {}
        for phase in ("warmup", "closed", "open"):
            with Window() as windows[phase]:
                drive(connections, phases[phase], OPEN_RATE if phase == "open" else None)
        stats = server.request({"op": "stats"})
        health = server.request({"op": "health"})
        peak_rss = process_peak_rss_mb(server.proc.pid)
    finally:
        for connection in connections:
            connection.close()
        shutdown_at = time.perf_counter()
        server.shutdown()

    every = [request for phase in phases.values() for request in phase]
    failed = [request for request in every if not request.ok]
    acked_adds = [request for request in every if request.op == "add" and request.ok]
    log = build_log(server.initial_records, every)
    log_path = ctx.work / "replay_log.json"
    log_path.write_text(json.dumps(log), encoding="utf-8")
    verdict = run_reference(ctx.root, log_path)

    report.check(
        verdict["n_mismatches"] == 0,
        f"{verdict['verified']} answered queries bit-identical to the offline session "
        f"({verdict['n_mismatches']} mismatched: {verdict['mismatches'][:3]})",
    )
    final_records = int(health.get("records", -1))
    report.check(
        final_records == server.initial_records + len(acked_adds)
        and verdict["final_records"] == final_records,
        f"records resident exactly once: served {final_records}, offline "
        f"{verdict['final_records']}, expected {server.initial_records} + "
        f"{len(acked_adds)} acknowledged adds",
    )

    closed, open_ = windows["closed"], windows["open"]
    rps = len(phases["closed"]) / closed.wall
    # A failed or shed request misses any limit: it sorts as ``inf``.
    latency = {
        op: [
            _ms(open_loop_timing(r.due, r.sent, r.done)[0]) if r.ok else math.inf
            for r in phases["open"]
            if r.op == op
        ]
        for op in ("query", "add")
    }
    lateness = [_ms(open_loop_timing(r.due, r.sent, r.done)[1]) for r in phases["open"]]
    query_tail_label, query_tail = tail(latency["query"])
    add_tail_label, add_tail = tail(latency["add"])
    setup = server.startup.wall

    report.line(
        f"serve-mix: {len(phases['warmup'])} warmup request(s) excluded; closed loop "
        f"{len(phases['closed'])} requests on 2 connections; open loop {len(phases['open'])} "
        f"requests at {OPEN_RATE:g}/s"
    )
    report.line(
        f"serve-mix: closed loop {closed.wall:.3f} s (host steal {closed.stolen:.2f} CPU-s), "
        f"open loop {open_.wall:.3f} s (host steal {open_.stolen:.2f} CPU-s)"
    )
    report.metric("setup_s", setup, "s", "spawn to ready")
    report.metric("serve_rps", rps, "1/s", "closed loop")
    report.metric("query_p50_ms", percentile(latency["query"], 50), "ms", f"open loop, {len(latency['query'])} samples")
    report.metric("query_tail_ms", query_tail, "ms", query_tail_label)
    report.metric("add_p50_ms", percentile(latency["add"], 50), "ms", f"open loop, {len(latency['add'])} samples")
    report.metric("add_tail_ms", add_tail, "ms", add_tail_label)
    report.metric("serve.generator_late_ms", statistics.fmean(lateness), "ms", f"mean; max {max(lateness):.3f} ms")
    report.metric("error_rate", len(failed) / len(every), "1", f"{len(failed)} of {len(every)}")

    e2e = {
        "setup_s": (setup, "s"),
        "wall_s": (closed.wall, "s"),
        "records_per_s": (rps, "1/s"),
        "p50_ms": (percentile(latency["query"], 50), "ms"),
        "tail_ms": (query_tail, "ms"),
        "peak_rss_mb": (peak_rss if peak_rss is not None else float("nan"), "MB"),
    }
    frontend = stats.get("frontend", {}).get("counts", {})
    layers = {
        "serve.batches": (float(frontend.get("batches", 0)), "count"),
        "serve.coalesced": (float(frontend.get("coalesced", 0)), "count"),
        "serve.generator_late_ms": (statistics.fmean(lateness), "ms"),
    }
    if spans_out is not None:
        layers.update(
            server_layers(spans_out, server.startup.start, shutdown_at, phases, closed, open_)
        )
    return {
        "attempted": len(every),
        "failed": len(failed),
        "e2e": e2e,
        "layers": layers,
    }


def build_log(initial_records: int, requests: list[Request]) -> dict:
    """What the offline replay needs: adds in server order, query windows."""
    adds = [r for r in requests if r.op == "add" and r.ok]
    for add in adds:
        add.position = int(add.response["records"]) - initial_records
    acked = sorted((add.done, add.position) for add in adds)
    queries = []
    for query in (r for r in requests if r.op == "query" and r.ok):
        lo = max((pos for done, pos in acked if done < query.sent), default=0)
        hi = max((add.position for add in adds if add.sent < query.done), default=0)
        queries.append(
            {"record": query.record, "lo": lo, "hi": hi, "result": query.response["result"]}
        )
    return {
        "initial_records": initial_records,
        "adds": [{"pos": add.position, "record": add.record} for add in adds],
        "queries": queries,
    }


def run_reference(root: Path, log_path: Path) -> dict:
    """Run the offline replay (:mod:`serve_reference`); returns its verdict."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "serve_reference.py"), str(log_path)],
        cwd=root,
        env=child_env(root),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=READY_TIMEOUT_S + PHASE_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"offline replay failed with exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def server_layers(spans_out: Path, started: float, stopped: float, phases, closed: Window, open_: Window) -> dict:
    """Per-layer metrics from the traced server's spans."""
    from tracing import in_window, layer_times, load_dump, request_session_seconds, unattributed

    spans, counts = load_dump(spans_out)
    spans = in_window(spans, started, stopped)
    layers = {name: (value, "s") for name, value in layer_times(spans).items()}
    charged = request_session_seconds(spans)
    measured = [r for phase in ("closed", "open") for r in phases[phase] if r.ok]
    waits = [_ms((r.done - r.sent) - charged.get(r.rid, 0.0)) for r in measured]
    layers["serve.frontend_wait_ms"] = (statistics.fmean(waits), "ms")
    idle = unattributed(spans, closed.start, open_.end)
    layers["trace.unattributed_s"] = (idle, "s")
    layers["trace.unattributed_share"] = (idle / (open_.end - closed.start), "1")
    for name in ("matchers.pairs_scored", "text.extract_calls"):
        layers[name] = (counts.get(name, 0.0), "count")
    return layers
