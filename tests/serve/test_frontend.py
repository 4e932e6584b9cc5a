"""Tests for the concurrent socket front end: admission, deadlines, breakers."""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro import obs
from repro.datasets.generator import build_task_from_sources
from repro.runtime import faults
from repro.runtime.state import SERVE_STATE
from repro.serve import FrontendConfig, SocketFrontend, open_session
from repro.serve.frontend import AdmissionQueue, _Admitted
from repro.serve.loop import ServeLoop


@pytest.fixture(scope="module")
def frontend_task(small_sources):
    return build_task_from_sources(
        small_sources,
        n_pairs=300,
        positive_fraction=0.25,
        seed=17,
        name="frontend_task",
    )


def record_payload(record, new_id=None):
    return {
        "record_id": new_id if new_id is not None else record.record_id,
        "source": record.source,
        "values": dict(record.values),
    }


class StubClient:
    """A fake connection for driving admission without sockets."""

    client_id = "stub"

    def __init__(self):
        self.sent = []
        self.alive = True

    def send(self, response):
        self.sent.append(response)
        return self.alive

    def close(self):
        self.alive = False


def make_frontend(session, **config_overrides):
    """A frontend that is NOT started: admission runs, dispatch doesn't."""
    core = ServeLoop(session)
    config = FrontendConfig(**config_overrides)
    return SocketFrontend(core, listen="127.0.0.1:0", config=config)


def wire_client(frontend, timeout=30.0):
    host, _, port = frontend.address().rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    return sock, sock.makefile("r", encoding="utf-8")


def rpc(sock, handle, payload):
    sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
    return json.loads(handle.readline())


class TestFrontendConfig:
    def test_defaults_validate(self):
        config = FrontendConfig()
        assert config.max_queue_depth >= 1
        assert config.deadline_model().fallback_seconds is not None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_queue_depth": 0},
            {"max_inflight_bytes": 0},
            {"coalesce_max": 0},
            {"send_timeout_seconds": 0.0},
            {"poll_seconds": -1.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            FrontendConfig(**overrides)

    def test_requires_exactly_one_address(self, frontend_task):
        session = open_session(frontend_task, k=3)
        core = ServeLoop(session)
        with pytest.raises(ValueError, match="exactly one"):
            SocketFrontend(core)
        with pytest.raises(ValueError, match="exactly one"):
            SocketFrontend(core, listen="x:0", socket_path="y")


class TestAdmissionQueue:
    @staticmethod
    def item(cost=10, op="query"):
        return _Admitted(
            client=StubClient(),
            request={"op": op},
            op=op,
            request_id=None,
            cost=cost,
            received_at=time.monotonic(),
            deadline_seconds=None,
        )

    def test_depth_cap_sheds(self):
        queue = AdmissionQueue(max_depth=2, max_bytes=10_000)
        assert queue.offer(self.item())
        assert queue.offer(self.item())
        assert not queue.offer(self.item())
        assert queue.depth() == 2

    def test_byte_cap_sheds_but_releases_on_done(self):
        queue = AdmissionQueue(max_depth=100, max_bytes=25)
        first = self.item(cost=20)
        assert queue.offer(first)
        assert not queue.offer(self.item(cost=20))
        taken = queue.take(0.1)
        assert taken is first
        # Bytes stay reserved while executing: still over the cap.
        assert not queue.offer(self.item(cost=20))
        queue.done(first)
        assert queue.offer(self.item(cost=20))

    def test_lone_oversized_item_admitted_when_idle(self):
        queue = AdmissionQueue(max_depth=4, max_bytes=10)
        assert queue.offer(self.item(cost=50))

    def test_take_head_if_preserves_fifo(self):
        queue = AdmissionQueue(max_depth=10, max_bytes=10_000)
        query = self.item(op="query")
        add = self.item(op="add")
        assert queue.offer(add) and queue.offer(query)
        # Head is the add: a query-only predicate must NOT reach past it.
        assert queue.take_head_if(lambda it: it.op == "query") is None
        assert queue.take(0.1) is add
        assert queue.take_head_if(lambda it: it.op == "query") is query


class TestAdmissionControl:
    """Admission decisions without a running dispatcher (deterministic)."""

    def test_overload_sheds_with_structured_response(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = make_frontend(session, max_queue_depth=2)
        client = StubClient()
        probe = frontend_task.left.records()[0]
        line = json.dumps(
            {"op": "query", "record": record_payload(probe), "k": 3}
        )
        before = obs.counter("serve.shed")
        for _ in range(5):
            frontend._on_line(client, line)
        shed = [r for r in client.sent if r.get("error") == "overloaded"]
        assert len(shed) == 3
        assert all("queue_depth" in r for r in shed)
        assert frontend.queue.depth() == 2
        assert obs.counter("serve.shed") - before == 3
        assert frontend.frontend_stats()["counts"]["shed"] == 3

    def test_health_and_ready_bypass_admission(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = make_frontend(session, max_queue_depth=1)
        client = StubClient()
        # Fill the queue, then probe liveness: both must still answer.
        frontend._on_line(client, json.dumps({"op": "stats"}))
        frontend._on_line(client, json.dumps({"op": "health"}))
        frontend._on_line(client, json.dumps({"op": "ready"}))
        health, ready = client.sent[-2:]
        assert health["ok"] and health["op"] == "health"
        assert health["queue_depth"] == 1
        assert ready["op"] == "ready"
        assert ready["ready"] is False  # not started

    def test_expired_request_answers_deadline_exceeded(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = make_frontend(
            session, fallback_deadline_seconds=0.001
        )
        client = StubClient()
        frontend._on_line(client, json.dumps({"op": "stats", "id": "late"}))
        time.sleep(0.01)
        item = frontend.queue.take(0.1)
        try:
            frontend._dispatch(item)
        finally:
            frontend.queue.done(item)
        response = client.sent[-1]
        assert response["error"] == "deadline_exceeded"
        assert response["id"] == "late"
        assert frontend.frontend_stats()["counts"]["deadline_exceeded"] == 1

    def test_repeated_bad_lines_open_the_breaker(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = make_frontend(
            session, breaker_threshold=2, breaker_cooldown_seconds=60.0
        )
        client = StubClient()
        frontend._on_line(client, "not json")
        frontend._on_line(client, "still not json")
        frontend._on_line(client, json.dumps({"op": "stats"}))
        response = client.sent[-1]
        assert response["error"] == "circuit_open"
        assert frontend.queue.depth() == 0  # never admitted
        assert "stub" in frontend.frontend_stats()["open_breakers"]

    def test_draining_refuses_new_work(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = make_frontend(session)
        frontend.draining.set()
        client = StubClient()
        frontend._on_line(client, json.dumps({"op": "stats"}))
        assert client.sent[-1]["error"] == "draining"

    def test_vanished_peer_does_not_poison_co_batched_client(
        self, frontend_task
    ):
        session = open_session(frontend_task, k=3)
        frontend = make_frontend(session)
        ghost, survivor = StubClient(), StubClient()
        probes = frontend_task.left.records()[:2]
        frontend._on_line(
            ghost,
            json.dumps(
                {"op": "query", "record": record_payload(probes[0]), "k": 3}
            ),
        )
        frontend._on_line(
            survivor,
            json.dumps(
                {"op": "query", "record": record_payload(probes[1]), "k": 3}
            ),
        )
        ghost.close()  # vanishes after admission, before dispatch
        item = frontend.queue.take(0.1)
        try:
            frontend._dispatch(item)  # coalesces both into one batch
        finally:
            frontend.queue.done(item)
        assert frontend.frontend_stats()["counts"]["batches"] == 1
        assert frontend.frontend_stats()["counts"]["coalesced"] == 1
        ok = [r for r in survivor.sent if r.get("ok")]
        assert len(ok) == 1 and ok[0]["op"] == "query"
        expected = session.query(probes[1], 3).to_dict()
        assert ok[0]["result"] == expected


class TestOverTheWire:
    """Full-stack tests against a started TCP/unix front end."""

    def test_tcp_round_trip_parity_and_stats(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = SocketFrontend(
            ServeLoop(session), listen="127.0.0.1:0", config=FrontendConfig()
        )
        frontend.start()
        try:
            sock, handle = wire_client(frontend)
            probe = frontend_task.left.records()[0]
            donor = frontend_task.right.records()[0]
            expected = session.query(probe, 3).to_dict()
            response = rpc(
                sock,
                handle,
                {
                    "op": "query",
                    "record": record_payload(probe),
                    "k": 3,
                    "id": "q1",
                },
            )
            assert response["ok"] and response["id"] == "q1"
            # Bit-identical to the offline session's answer.
            assert response["result"] == expected
            added = rpc(
                sock,
                handle,
                {
                    "op": "add",
                    "records": [record_payload(donor, "wire-add")],
                },
            )
            assert added["ok"] and added["added"] == 1
            stats = rpc(sock, handle, {"op": "stats"})
            assert stats["ok"]
            assert stats["frontend"]["counts"]["admitted"] >= 3
            assert "query" in stats["frontend"]["latency"]
            assert stats["frontend"]["latency"]["query"]["count"] >= 1
            unknown = rpc(sock, handle, {"op": "nope"})
            assert unknown["error"] == "unknown_op"
            sock.close()
        finally:
            frontend.stop()

    def test_unix_socket_round_trip_and_cleanup(self, frontend_task, tmp_path):
        session = open_session(frontend_task, k=3)
        path = tmp_path / "serve.sock"
        frontend = SocketFrontend(ServeLoop(session), socket_path=path)
        frontend.start()
        try:
            assert path.exists()
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(30.0)
            sock.connect(str(path))
            handle = sock.makefile("r", encoding="utf-8")
            health = rpc(sock, handle, {"op": "health"})
            assert health["ok"] and health["clients"] == 1
            ready = rpc(sock, handle, {"op": "ready"})
            assert ready["ready"] is True
            sock.close()
        finally:
            frontend.stop()
        assert not path.exists()  # drain unlinks the socket path

    def test_concurrent_clients_and_drain_broadcast(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = SocketFrontend(
            ServeLoop(session), listen="127.0.0.1:0", config=FrontendConfig()
        )
        frontend.start()
        try:
            clients = [wire_client(frontend) for _ in range(3)]
            probes = frontend_task.left.records()[:3]
            expected = [session.query(p, 3).to_dict() for p in probes]
            for (sock, handle), probe, want in zip(clients, probes, expected):
                got = rpc(
                    sock,
                    handle,
                    {"op": "query", "record": record_payload(probe), "k": 3},
                )
                assert got["ok"] and got["result"] == want
        finally:
            frontend.stop()
        # Every still-connected client got the drained broadcast.
        for sock, handle in clients:
            events = [json.loads(line) for line in handle if line.strip()]
            assert any(e.get("event") == "drained" for e in events)
            sock.close()

    def test_drain_snapshots_state(self, frontend_task, tmp_path):
        state = tmp_path / "state"
        session = open_session(frontend_task, k=3)
        frontend = SocketFrontend(
            ServeLoop(session, state_dir=state), listen="127.0.0.1:0"
        )
        frontend.start()
        try:
            sock, handle = wire_client(frontend)
            donor = frontend_task.right.records()[1]
            added = rpc(
                sock,
                handle,
                {
                    "op": "add",
                    "id": "drain-add",
                    "records": [record_payload(donor, "drained-record")],
                },
            )
            assert added["ok"]
            sock.close()
        finally:
            frontend.stop()
        assert (state / SERVE_STATE.manifest).exists()
        assert (state / SERVE_STATE.journal).exists()
        assert not list(state.glob("*.tmp*"))
        from repro.serve import MatcherSession

        restored = MatcherSession.load(state / SERVE_STATE.manifest)
        assert "drained-record" in restored._records

    def test_write_fault_disconnects_only_that_client(self, frontend_task):
        session = open_session(frontend_task, k=3)
        frontend = SocketFrontend(
            ServeLoop(session), listen="127.0.0.1:0", config=FrontendConfig()
        )
        frontend.start()
        try:
            doomed_sock, doomed_handle = wire_client(frontend)
            healthy_sock, healthy_handle = wire_client(frontend)
            faults.arm("frontend:write", "error", times=1)
            doomed_sock.sendall(b'{"op": "health"}\n')
            # The injected write failure drops the doomed connection.
            assert doomed_handle.readline() == ""
            health = rpc(healthy_sock, healthy_handle, {"op": "health"})
            assert health["ok"]
            healthy_sock.close()
        finally:
            faults.reset()
            frontend.stop()
