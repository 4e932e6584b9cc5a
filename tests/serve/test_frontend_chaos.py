"""Concurrency fuzz, fault property and SIGKILL for the socket front end.

The contract under test is the paper's reproducibility invariant carried
into serving: interleaved clients, injected faults and even a SIGKILL
mid-coalesced-batch may cost retries or shed requests, but the final
session state must be bit-identical to a sequential replay of the
admitted operations, and every admitted answer must match the offline
session.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.datasets.generator import build_task_from_sources
from repro.runtime import faults
from repro.runtime.state import SERVE_STATE
from repro.serve import FrontendConfig, MatcherSession, SocketFrontend, open_session
from repro.serve.loop import ServeLoop
from tests.serve.client import RetryClient, record_payload

#: Front-end fault sites. Each degrades one connection or one request,
#: never the daemon; ``hang`` only stretches wall time (the deadline
#: model covers it) and ``kill`` is the subprocess case below.
FRONTEND_SITES = (
    "frontend:accept",
    "frontend:read",
    "frontend:write",
    "frontend:disconnect",
    "frontend:batch",
    "serve:request",
)


@pytest.fixture(scope="module")
def chaos_task(small_sources):
    return build_task_from_sources(
        small_sources,
        n_pairs=300,
        positive_fraction=0.25,
        seed=17,
        name="chaos_task",
    )


@pytest.fixture(scope="module")
def session_snapshot(chaos_task, tmp_path_factory):
    """A fitted session on disk: each plan loads a fresh, identical copy."""
    path = tmp_path_factory.mktemp("chaos") / "session.json"
    open_session(chaos_task, k=3).save(path)
    return path


class TestConcurrentFuzz:
    def test_interleaved_clients_replay_to_identical_state(
        self, chaos_task, session_snapshot
    ):
        """N threads of adds/queries/garbage/disconnects; replay parity."""
        session = MatcherSession.load(session_snapshot)
        frontend = SocketFrontend(
            ServeLoop(session),
            listen="127.0.0.1:0",
            config=FrontendConfig(max_queue_depth=8, coalesce_max=4),
        )
        frontend.start()
        n_threads = 4
        donors = chaos_task.right.records()[: n_threads * 3]
        probes = chaos_task.left.records()[:6]
        admitted_adds: list[dict] = []
        errors: list[str] = []
        lock = threading.Lock()

        def worker(thread_id: int) -> None:
            client = RetryClient(frontend.address())
            try:
                for round_no in range(3):
                    donor = donors[thread_id * 3 + round_no]
                    new_id = f"t{thread_id}-d{round_no}"
                    response = client.request(
                        {
                            "op": "add",
                            "id": f"add-{new_id}",
                            "records": [
                                dict(
                                    record_payload(donor),
                                    record_id=new_id,
                                )
                            ],
                        }
                    )
                    if response is None or not response.get("ok"):
                        with lock:
                            errors.append(f"add {new_id} failed: {response}")
                        continue
                    with lock:
                        admitted_adds.append(
                            {"id": new_id, "records": response["records"]}
                        )
                    if thread_id == 0 and round_no == 1:
                        # Hostile client: garbage, then vanish mid-stream.
                        try:
                            client._connect()
                            client._sock.sendall(b"garbage not json\n")
                        except OSError:
                            pass
                        client._reset()
                    query = client.request(
                        {
                            "op": "query",
                            "record": record_payload(
                                probes[(thread_id + round_no) % len(probes)]
                            ),
                            "k": 3,
                        }
                    )
                    if query is None or not query.get("ok"):
                        with lock:
                            errors.append(f"query failed: {query}")
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"fuzz-{i}")
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(admitted_adds) == n_threads * 3

        # The add responses carry the post-add record count — a unique
        # position in the single-writer's serialization. Replaying the
        # admitted adds in that order onto a fresh copy of the same
        # snapshot must land in a bit-identical final state.
        replay = MatcherSession.load(session_snapshot)
        order = sorted(admitted_adds, key=lambda entry: entry["records"])
        assert [entry["records"] for entry in order] == list(
            range(len(replay) + 1, len(replay) + len(order) + 1)
        )
        by_id = {
            f"t{t}-d{r}": donors[t * 3 + r]
            for t in range(n_threads)
            for r in range(3)
        }
        for entry in order:
            donor = by_id[entry["id"]]
            replay.add_records(
                [
                    type(donor)(
                        entry["id"], donor.source, dict(donor.values)
                    )
                ]
            )
        assert set(session._records) == set(replay._records)
        # All workers have joined, so the session is quiescent: a final
        # query pass over both copies must be bit-identical. (Before
        # stop() — the drain closes the session.)
        concurrent_answers = session.query_batch(list(probes), 3)
        replayed_answers = replay.query_batch(list(probes), 3)
        frontend.stop()
        assert [r.to_dict() for r in concurrent_answers] == [
            r.to_dict() for r in replayed_answers
        ]


@pytest.fixture(scope="module")
def workload(chaos_task, session_snapshot):
    """Donors to add, probes to query, and the fault-free answers."""
    donors = [
        type(record)(f"chaos-d{i}", record.source, dict(record.values))
        for i, record in enumerate(chaos_task.right.records()[:4])
    ]
    probes = chaos_task.left.records()[:4]
    session = MatcherSession.load(session_snapshot)
    session.add_records(donors)
    answers = {
        probe.record_id: result.to_dict()
        for probe, result in zip(probes, session.query_batch(probes, 3))
    }
    return donors, probes, answers, len(session)


@pytest.mark.fault_smoke
@seed(20240401)
@settings(max_examples=10, deadline=None)
@given(
    armed=st.lists(
        st.sampled_from(FRONTEND_SITES), min_size=1, max_size=2, unique=True
    )
)
def test_faulted_frontend_answers_like_the_offline_session(
    armed, session_snapshot, workload
):
    """Add the donors, query every probe, retrying through the faults."""
    donors, probes, answers, expected_records = workload
    session = MatcherSession.load(session_snapshot)
    frontend = SocketFrontend(ServeLoop(session), listen="127.0.0.1:0")
    for site in armed:
        faults.arm(site, "error", times=1)
    client = None
    try:
        frontend.start()
        client = RetryClient(frontend.address())
        added = client.request(
            {
                "op": "add",
                "id": "chaos-add",
                "records": [record_payload(r) for r in donors],
            }
        )
        assert added is not None and added["ok"], added
        for probe in probes:
            response = client.request(
                {"op": "query", "record": record_payload(probe), "k": 3}
            )
            # Bounded faults (times=1): every probe is answered in the end,
            # and bit-identically to the offline session.
            assert response is not None and response["ok"], response
            assert response["result"] == answers[probe.record_id]
        # A replayed add dedupes, so the record count cannot drift.
        assert len(session) == expected_records
    finally:
        faults.reset()
        if client is not None:
            client.close()
        frontend.stop()


def _spawn_serve(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else "")
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "dblp_scholar",
            "--scale",
            "0.15",
            "--k",
            "3",
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _connect(address: str):
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=60)
    return sock, sock.makefile("r", encoding="utf-8")


@pytest.mark.slow
@pytest.mark.fault_smoke
class TestKillDuringBatch:
    def test_sigkill_mid_batch_resumes_consistent(self, tmp_path):
        state = tmp_path / "state"
        proc = _spawn_serve(
            "--state",
            str(state),
            "--listen",
            "127.0.0.1:0",
            "--inject",
            "frontend:batch=kill:1",
        )
        probe_payload = {
            "record_id": "kill-probe",
            "source": "left",
            "values": {"title": "deep learning entity matching survey"},
        }
        try:
            ready = json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            sock, handle = _connect(ready["address"])
            sock.sendall(
                (
                    json.dumps(
                        {"op": "query", "record": probe_payload, "k": 3}
                    )
                    + "\n"
                ).encode()
            )
            # The armed kill fires at the top of the coalesced batch:
            # hard SIGKILL, no response, no drain.
            assert handle.readline() == ""
            assert proc.wait(timeout=120) == -signal.SIGKILL
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)

        # The kill left an orphaned lease; the doctor repairs it and the
        # state directory audits clean afterwards.
        from repro.experiments.cli import main

        assert main(["doctor", "--cache", str(state)]) == 0
        assert main(["doctor", "--cache", str(state), "--check"]) == 0

        # Resume without faults: the daemon serves, and its answer is
        # bit-identical to the offline session loaded from the snapshot
        # it drains to — the fault-free baseline.
        proc = _spawn_serve("--state", str(state), "--listen", "127.0.0.1:0")
        try:
            ready = json.loads(proc.stdout.readline())
            sock, handle = _connect(ready["address"])
            sock.sendall(
                (
                    json.dumps(
                        {"op": "query", "record": probe_payload, "k": 3}
                    )
                    + "\n"
                ).encode()
            )
            answer = json.loads(handle.readline())
            assert answer["ok"]
            sock.sendall(b'{"op": "shutdown"}\n')
            shutdown = json.loads(handle.readline())
            assert shutdown["ok"]
            assert proc.wait(timeout=120) == 0
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)

        restored = MatcherSession.load(state / SERVE_STATE.manifest)
        from repro.data.records import Record

        offline = restored.query(
            Record(
                probe_payload["record_id"],
                probe_payload["source"],
                dict(probe_payload["values"]),
            ),
            3,
        )
        assert answer["result"] == offline.to_dict()
