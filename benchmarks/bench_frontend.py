"""Socket front-end benchmark: overload shedding and admitted tail latency.

Starts a :class:`~repro.serve.frontend.SocketFrontend` over a session
on dblp_scholar at CI scale, then drives it at two operating points and
prints the measured record:

* **1x** — one closed-loop client: baseline throughput and p99 latency,
  over ``N_BASELINE`` requests cycling through the burst's probes, so
  the p99 has a dozen samples beyond it and does not swing with one slow
  request;
* **4x** — several concurrent closed-loop clients against a deliberately
  small admission queue: sustained overload.

The acceptance contract: under ~4x load the front end sheds excess
requests with structured ``overloaded`` responses instead of queuing
unboundedly or crashing, no request fails hard, the *admitted* query
p99 stays within ``P99_RATIO_CEILING`` of the 1x p99 (admission control
protects the work it accepts), and every admitted answer is
bit-identical to the offline session's answer for the same probe::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_frontend.py
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

from repro.datasets.generator import build_task_from_sources
from repro.datasets.sources import build_source_pair
from repro.serve import FrontendConfig, SocketFrontend, open_session
from repro.serve.loop import ServeLoop

DATASET = "dblp_scholar"
SCALE = 1.0
SEED = 0
K = 5
N_PROBES = 120
N_BASELINE = 1200
N_WARMUP = 30
N_BURST_CLIENTS = 4
N_PER_BURST_CLIENT = 60
MAX_QUEUE_DEPTH = 2
COALESCE_MAX = 2
P99_RATIO_CEILING = 5.0


def _payload(record) -> dict:
    return {
        "record_id": record.record_id,
        "source": record.source,
        "values": dict(record.values),
    }


def _percentile(samples: list[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def _run_client(address: str, requests: list[dict], out: dict) -> None:
    """One closed-loop client; records latencies per outcome bucket."""
    host, _, port = address.rpartition(":")
    latencies: list[tuple[str, float, dict]] = []
    try:
        sock = socket.create_connection((host, int(port)), timeout=60)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        handle = sock.makefile("r", encoding="utf-8")
        for request in requests:
            line = (json.dumps(request) + "\n").encode("utf-8")
            started = time.perf_counter()
            sock.sendall(line)
            raw = handle.readline()
            elapsed = time.perf_counter() - started
            if not raw:
                latencies.append(("disconnect", elapsed, {}))
                break
            response = json.loads(raw)
            if response.get("ok"):
                bucket = "ok"
            else:
                bucket = response.get("error", "error")
            latencies.append((bucket, elapsed, response))
        sock.close()
    except OSError as exc:
        latencies.append(("oserror", 0.0, {"detail": str(exc)}))
    out[threading.get_ident()] = latencies


def test_frontend_sheds_under_overload_with_bounded_admitted_p99():
    sources = build_source_pair(DATASET, SCALE)
    task = build_task_from_sources(
        sources,
        n_pairs=300,
        positive_fraction=0.25,
        seed=SEED,
        name=f"{DATASET}_frontend",
    )
    session = open_session(task, k=K, seed=SEED)
    probes = task.left.records()[:N_PROBES]
    # The ground truth for parity: the offline session's own answers.
    expected = {
        probe.record_id: result.to_dict()
        for probe, result in zip(probes, session.query_batch(probes, K))
    }

    frontend = SocketFrontend(
        ServeLoop(session),
        listen="127.0.0.1:0",
        # A deliberately tight queue: the point is to force shedding and
        # bound how long any admitted request can wait behind others.
        config=FrontendConfig(
            max_queue_depth=MAX_QUEUE_DEPTH, coalesce_max=COALESCE_MAX
        ),
    )
    frontend.start()
    try:
        address = frontend.address()

        # -- 1x: one closed-loop client ---------------------------------
        requests = [
            {"op": "query", "record": _payload(probe), "k": K}
            for probe in probes
        ]
        # Cold similarity caches inflate the first queries; warm them so
        # the 1x baseline measures steady state.
        warmup_out: dict = {}
        _run_client(address, requests[:N_WARMUP], warmup_out)
        baseline_requests = [
            requests[i % len(requests)] for i in range(N_BASELINE)
        ]
        baseline_out: dict = {}
        started = time.perf_counter()
        _run_client(address, baseline_requests, baseline_out)
        baseline_seconds = time.perf_counter() - started
        (baseline,) = baseline_out.values()
        baseline_ok = [lat for bucket, lat, _ in baseline if bucket == "ok"]
        assert len(baseline_ok) == N_BASELINE, (
            f"1x load already failing: {len(baseline_ok)}/{N_BASELINE} ok"
        )
        p99_1x = _percentile(baseline_ok, 0.99)
        qps_1x = N_BASELINE / baseline_seconds

        # -- 4x: concurrent closed-loop clients vs a tiny queue ---------
        burst_out: dict = {}
        threads = []
        for client_no in range(N_BURST_CLIENTS):
            client_requests = [
                {
                    "op": "query",
                    "record": _payload(
                        probes[(client_no + 3 * i) % len(probes)]
                    ),
                    "k": K,
                }
                for i in range(N_PER_BURST_CLIENT)
            ]
            threads.append(
                threading.Thread(
                    target=_run_client,
                    args=(address, client_requests, burst_out),
                )
            )
        burst_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600)
        burst_seconds = time.perf_counter() - burst_started
        assert not any(thread.is_alive() for thread in threads)

        outcomes = [entry for client in burst_out.values() for entry in client]
        admitted = [entry for entry in outcomes if entry[0] == "ok"]
        shed = [entry for entry in outcomes if entry[0] == "overloaded"]
        expired = [
            entry for entry in outcomes if entry[0] == "deadline_exceeded"
        ]
        hard_failures = [
            entry
            for entry in outcomes
            if entry[0] in ("disconnect", "oserror", "internal")
        ]
        parity_mismatches = sum(
            1
            for _, _, response in admitted
            if response["result"]
            != expected[response["result"]["query_id"]]
        )
        p99_admitted = _percentile([lat for _, lat, _ in admitted], 0.99)

        # The daemon survived the burst and still answers liveness.
        health_out: dict = {}
        _run_client(address, [{"op": "health"}], health_out)
        (health,) = health_out.values()
        assert health[0][0] == "ok"
        stats = frontend.frontend_stats()
    finally:
        frontend.stop()

    record = {
        "dataset": DATASET,
        "scale": SCALE,
        "seed": SEED,
        "k": K,
        "max_queue_depth": MAX_QUEUE_DEPTH,
        "coalesce_max": COALESCE_MAX,
        "baseline_requests": N_BASELINE,
        "baseline_qps": round(qps_1x, 1),
        "baseline_p99_seconds": round(p99_1x, 6),
        "burst_clients": N_BURST_CLIENTS,
        "burst_requests": N_BURST_CLIENTS * N_PER_BURST_CLIENT,
        "burst_seconds": round(burst_seconds, 3),
        "burst_throughput_qps": round(len(admitted) / burst_seconds, 1),
        "admitted": len(admitted),
        "shed": len(shed),
        "deadline_exceeded": len(expired),
        "hard_failures": len(hard_failures),
        "shed_rate": round(len(shed) / max(1, len(outcomes)), 3),
        "admitted_p99_seconds": round(p99_admitted, 6),
        "p99_ratio": round(p99_admitted / p99_1x, 2) if p99_1x else None,
        "p99_ratio_ceiling": P99_RATIO_CEILING,
        "parity_mismatches": parity_mismatches,
        "coalesced": stats["counts"]["coalesced"],
        "batches": stats["counts"]["batches"],
        "cpu_count": os.cpu_count(),
    }
    print()
    print(json.dumps(record, indent=2))

    assert len(shed) > 0, (
        "4x load never shed: admission control is not engaging"
    )
    assert not hard_failures, (
        f"{len(hard_failures)} hard failure(s) under overload "
        "(disconnects/internal errors): shedding must be graceful"
    )
    assert parity_mismatches == 0, (
        f"{parity_mismatches} admitted answer(s) diverge from the "
        "offline session"
    )
    assert p99_admitted <= P99_RATIO_CEILING * p99_1x, (
        f"admitted p99 {p99_admitted:.4f}s exceeds "
        f"{P99_RATIO_CEILING}x baseline {p99_1x:.4f}s"
    )
