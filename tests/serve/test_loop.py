"""Tests for the JSONL serve loop: protocol, durability, drain, faults."""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import obs
from repro.datasets.generator import build_task_from_sources
from repro.runtime import faults
from repro.runtime.state import SERVE_STATE
from repro.serve import MatcherSession, open_session
from repro.serve.loop import ServeLoop
from tests.serve.client import record_payload


@pytest.fixture(scope="module")
def loop_task(small_sources):
    return build_task_from_sources(
        small_sources,
        n_pairs=300,
        positive_fraction=0.25,
        seed=17,
        name="loop_task",
    )


def run_requests(session, requests, **loop_options):
    """Feed JSONL requests through a loop; returns the response dicts."""
    source = io.StringIO(
        "".join(json.dumps(request) + "\n" for request in requests)
    )
    sink = io.StringIO()
    loop = ServeLoop(session, **loop_options)
    code = loop.run(source, sink, install_signals=False)
    assert code == 0
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class TestProtocol:
    def test_request_response_cycle(self, loop_task):
        session = open_session(loop_task, k=3)
        donor = loop_task.right.records()[0]
        probe = loop_task.left.records()[0]
        responses = run_requests(
            session,
            [
                {"op": "stats"},
                {"op": "add", "records": [record_payload(donor, "fresh")]},
                {"op": "query", "record": record_payload(donor, "probe")},
                {"op": "query_batch", "records": [record_payload(probe)]},
                {"op": "nope"},
            ],
        )
        ready, stats, add, query, batch, unknown, drained = responses
        assert ready["event"] == "ready"
        assert stats["ok"] and stats["stats"]["records"] == len(loop_task.right)
        assert add["ok"] and add["added"] == 1
        assert query["ok"]
        assert "fresh" in query["result"]["candidates"]
        assert batch["ok"] and len(batch["results"]) == 1
        assert not unknown["ok"] and unknown["error"] == "unknown_op"
        assert "unknown op" in unknown["detail"]
        assert drained["event"] == "drained"
        assert set(drained["stats"]["latency"]) == {
            "block",
            "extract",
            "predict",
        }

    def test_malformed_requests_keep_serving(self, loop_task):
        session = open_session(loop_task, k=3)
        source = io.StringIO('not json\n[1, 2]\n{"op": "stats"}\n')
        sink = io.StringIO()
        before = obs.counter("serve.bad_request")
        assert ServeLoop(session).run(
            source, sink, install_signals=False
        ) == 0
        responses = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert responses[1]["error"] == "bad_request"  # parse error
        assert responses[2]["error"] == "bad_request"  # non-object request
        assert responses[3]["ok"]  # still serving
        assert obs.counter("serve.bad_request") - before == 2

    def test_torn_line_is_structured_bad_request(self, loop_task):
        # A client dying mid-write leaves a torn prefix of a valid
        # request; the loop answers a structured event and keeps going.
        session = open_session(loop_task, k=3)
        torn = json.dumps({"op": "stats"})[:-4]
        source = io.StringIO(torn + "\n" + '{"op": "stats"}\n')
        sink = io.StringIO()
        assert ServeLoop(session).run(
            source, sink, install_signals=False
        ) == 0
        responses = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert responses[1]["error"] == "bad_request"
        assert "JSON" in responses[1]["detail"]
        assert responses[2]["ok"]

    def test_shutdown_op_drains(self, loop_task):
        session = open_session(loop_task, k=3)
        responses = run_requests(
            session, [{"op": "shutdown"}, {"op": "stats"}]
        )
        assert responses[1]["draining"]
        # Shutdown stops intake at once: the queued stats request is
        # dropped and the next event is the drain summary.
        assert responses[2]["event"] == "drained"
        assert len(responses) == 3

    def test_snapshot_requires_state(self, loop_task):
        session = open_session(loop_task, k=3)
        responses = run_requests(session, [{"op": "snapshot"}])
        assert not responses[1]["ok"]
        assert "state" in responses[1]["error"]


class TestDurability:
    def test_snapshot_and_resume(self, loop_task, tmp_path):
        state = tmp_path / "state"
        session = open_session(loop_task, k=3)
        donors = loop_task.right.records()[:4]
        responses = run_requests(
            session,
            [
                {
                    "op": "add",
                    "id": "batch-1",
                    "records": [
                        record_payload(donor, f"r{i}")
                        for i, donor in enumerate(donors)
                    ],
                },
                {"op": "snapshot"},
            ],
            state_dir=state,
        )
        assert responses[1]["added"] == 4
        assert responses[2]["ok"]
        assert (state / SERVE_STATE.manifest).exists()
        assert (state / SERVE_STATE.journal).exists()

        restored = MatcherSession.load(state / SERVE_STATE.manifest)
        assert len(restored) == len(loop_task.right) + 4
        result = restored.query(record_payload_record(donors[0], "probe"))
        assert "r0" in result.candidates.ids

    def test_journaled_add_replay_skipped(self, loop_task, tmp_path):
        state = tmp_path / "state"
        session = open_session(loop_task, k=3)
        donor = loop_task.right.records()[0]
        add = {
            "op": "add",
            "id": "a1",
            "records": [record_payload(donor, "once")],
        }
        run_requests(
            session, [add], state_dir=state, snapshot_every=1
        )
        # Same request replayed against a resumed session: the journal
        # marks it done (the snapshot covers it), so it is skipped.
        resumed = MatcherSession.load(state / SERVE_STATE.manifest)
        responses = run_requests(resumed, [add], state_dir=state)
        assert responses[1]["skipped"]
        assert responses[1]["added"] == 0
        assert len(resumed) == len(loop_task.right) + 1

    def test_replay_without_journal_mark_deduplicates(
        self, loop_task, tmp_path
    ):
        # A crash between snapshot and journal append re-delivers an add
        # whose records the snapshot already holds: they deduplicate
        # instead of erroring.
        state = tmp_path / "state"
        session = open_session(loop_task, k=3)
        donor = loop_task.right.records()[1]
        add = {"op": "add", "records": [record_payload(donor, "dup")]}
        run_requests(
            session, [add, {"op": "snapshot"}], state_dir=state
        )
        resumed = MatcherSession.load(state / SERVE_STATE.manifest)
        responses = run_requests(resumed, [add], state_dir=state)
        assert responses[1]["ok"]
        assert responses[1]["added"] == 0
        assert responses[1]["deduplicated"] == 1

    def test_drain_snapshots_final_state(self, loop_task, tmp_path):
        state = tmp_path / "state"
        session = open_session(loop_task, k=3)
        donor = loop_task.right.records()[2]
        run_requests(
            session,
            [{"op": "add", "records": [record_payload(donor, "late")]}],
            state_dir=state,
        )
        # No explicit snapshot op: the drain-time snapshot covers it.
        restored = MatcherSession.load(state / SERVE_STATE.manifest)
        assert "late" in restored._records


class TestSigtermOrdering:
    def test_second_sigterm_mid_drain_snapshot_defers(
        self, loop_task, tmp_path, monkeypatch
    ):
        # Regression: the loop used to restore the previous SIGTERM
        # handler *before* the drain-time snapshot ran, so a second
        # SIGTERM landing mid-save terminated the process and could
        # strand a session.json.tmp<pid> as the only copy. The handler
        # must stay installed through the final snapshot.
        state = tmp_path / "state"
        session = open_session(loop_task, k=3)
        hits = []
        previous = signal.signal(
            signal.SIGTERM, lambda signum, frame: hits.append("outer")
        )
        try:
            original_save = session.save
            fired = []

            def killing_save(path):
                if not fired:
                    fired.append(True)
                    os.kill(os.getpid(), signal.SIGTERM)
                return original_save(path)

            monkeypatch.setattr(session, "save", killing_save)
            loop = ServeLoop(session, state_dir=state)
            assert (
                loop.run(io.StringIO(""), io.StringIO(), install_signals=True)
                == 0
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        # The mid-snapshot SIGTERM hit the loop's own (still installed)
        # handler, not whatever was there before.
        assert hits == []
        assert (state / SERVE_STATE.manifest).exists()
        assert not list(state.glob("*.tmp*"))


def record_payload_record(record, new_id):
    from repro.data.records import Record

    return Record(new_id, record.source, dict(record.values))


def _start_serve(tmp_path, *extra_args):
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
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _send(proc, request):
    proc.stdin.write(json.dumps(request) + "\n")
    proc.stdin.flush()


def _read_response(proc, timeout=120.0):
    line = proc.stdout.readline()
    assert line, "serve process closed stdout early"
    return json.loads(line)


@pytest.mark.slow
class TestSigtermDrain:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc = _start_serve(tmp_path)
        try:
            ready = _read_response(proc)
            assert ready["event"] == "ready"
            _send(proc, {"op": "stats"})
            assert _read_response(proc)["ok"]
            proc.send_signal(signal.SIGTERM)
            # Graceful drain: final event emitted, exit code 0, stdin
            # still open (the drain must not depend on EOF).
            drained = _read_response(proc)
            assert drained["event"] == "drained"
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)
