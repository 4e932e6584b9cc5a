#!/usr/bin/env bash
# Repository verification: byte-compile everything, run the tier-1 test
# suite (ROADMAP.md), the fast fault-injection smoke set (its offline
# fault property runs a doctor repair and audit on every example it
# draws, also under --smoke-only), then a regeneration of Table IV with
# metrics/trace observability on a fresh cache (its trace roll-up must
# show non-zero matcher-fit and extraction rows), a supervision smoke
# (orphaned-lease repair by the doctor), the kernel-parity suite, all
# three repository-benchmark workloads (their correctness gates plus the
# scale-shards and serve-mix throughput floors), the overhead and
# kernel-speedup benches, the ANN, serve and front-end smokes, and the
# scale-mode stage (budgeted sharded sweep, the scale cases of the
# SIGKILL/doctor/resume crash test). Inside a git checkout the run must
# leave `git status` exactly as it found it.
#
# Usage: scripts/verify.sh [--smoke-only]
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# No stage may write a tracked file or leave an untracked one behind.
IN_GIT=0
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    IN_GIT=1
    TREE_BEFORE="$(git status --porcelain)"
fi

echo "== compileall =="
python -m compileall -q src

if [[ "${1:-}" != "--smoke-only" ]]; then
    echo "== tier-1 tests =="
    python -m pytest -x -q
fi

echo "== fault-injection smoke =="
python -m pytest -x -q -m fault_smoke

echo "== observability smoke (table4 --metrics, trace --last roll-up) =="
SMOKE_CACHE="$(mktemp -d)"
python -m repro table4 --metrics --cache "$SMOKE_CACHE"
python -m repro trace --last --cache "$SMOKE_CACHE" | tee "$SMOKE_CACHE/trace.out"
# The self-time roll-up under the tree must show the matcher fits and
# feature extraction at work.
python - "$SMOKE_CACHE/trace.out" <<'EOF'
import sys

parts = open(sys.argv[1], encoding="utf-8").read().split("Self time by span name")
assert len(parts) == 2, "trace --last printed no self-time roll-up"
seconds = {
    cells[0]: float(cells[2])
    for cells in (line.split() for line in parts[1].splitlines()[3:])
    if len(cells) == 4
}
fits = [n for n, s in seconds.items() if n.startswith("matchers.") and n.endswith("_fit") and s > 0]
assert fits, f"no non-zero matchers.*_fit row in the roll-up: {seconds}"
assert seconds.get("text.extract", 0.0) > 0, f"no non-zero text.extract row: {seconds}"
print(f"roll-up: {', '.join(sorted(fits))} and text.extract at work")
EOF

echo "== supervision smoke: lease repair =="
GUARD_CACHE="$(mktemp -d)"
python -m repro table4 --datasets Ds5 --scale 0.3 --cache "$GUARD_CACHE"
# An orphaned lease (dead owner pid) must fail a doctor audit, be
# repaired, and leave the directory clean.
printf '{"pid": 4194305, "host": "ghost", "token": "dead", "acquired_at": 0, "heartbeat_at": 0}' \
    > "$GUARD_CACHE/run.lease"
if python -m repro doctor --check --cache "$GUARD_CACHE"; then
    echo "doctor --check missed the orphaned lease" >&2
    exit 1
fi
python -m repro doctor --cache "$GUARD_CACHE"
python -m repro doctor --check --cache "$GUARD_CACHE"

echo "== vectorized-kernel parity (golden oracle) =="
python -m pytest -x -q tests/text/test_kernels.py tests/text/test_feature_store.py \
    tests/matchers/test_feature_parity.py

echo "== repository benchmark: harness tests + all three workloads =="
# Each workload checks its own outputs: audit-cold the paper's verdicts
# and the score digests committed in perfbench/expected_digests.json,
# scale-shards its state digest and the PC >= 0.9 / F1 >= 0.6 floors,
# serve-mix offline parity. On top of that, scale-shards must stream
# >= 1000 records/s and serve-mix must answer >= 100 records/s.
python -m pytest -q perfbench/tests
PERF_OUT="$(mktemp -d)"
for workload in audit-cold scale-shards serve-mix; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 10 \
        --trace 0 | tee "$PERF_OUT/$workload.out"
done
python - "$PERF_OUT" <<'EOF'
import json, sys
from pathlib import Path

RATE_FLOORS = {"audit-cold": 0.0, "scale-shards": 1000.0, "serve-mix": 100.0}
for workload, floor in RATE_FLOORS.items():
    lines = (Path(sys.argv[1]) / f"{workload}.out").read_text().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, f"{workload}: a correctness check failed"
    rate = result["metrics"]["records_per_s"]["value"]
    assert rate >= floor, (
        f"{workload}: {rate:.1f} records/s below the {floor:g} floor"
    )
    print(f"{workload}: correct, {rate:.1f} records/s (floor {floor:g})")
EOF

echo "== overhead benches: observability, breakers, supervision (<=2%) =="
python -m pytest -x -q -s benchmarks/bench_overhead.py

echo "== feature-kernel speedup bench (>=5x, bit-identical) =="
python -m pytest -x -q -s benchmarks/bench_kernels.py

echo "== ANN blocking: deterministic-seed smoke + recall/cost floors =="
# Deterministic smoke: two fresh runs of both backends on a fixed seed
# must produce identical candidate sets and the provenance CLI must run.
python - <<'EOF'
from repro.blocking import AnnBlocker, AnnConfig
from repro.datasets.sources import build_source_pair

sources = build_source_pair("abt_buy", 0.3)
for backend in ("lsh", "graph"):
    config = AnnConfig(backend=backend, seed=7)
    first = AnnBlocker(config).candidates(sources)
    second = AnnBlocker(config).candidates(sources)
    assert first == second, f"{backend} backend is not deterministic"
    assert first, f"{backend} backend produced no candidates"
print("ann determinism smoke: OK")
EOF
# Grown == rebuilt at serving size: the dblp_scholar graph index that
# `repro serve` builds, grown from half its records by single-record
# inserts (crossing several postings re-seals), must equal a one-shot
# build edge for edge and answer every probe identically.
python - <<'EOF'
from repro.blocking import make_index
from repro.blocking.ann import RESEAL_TAIL
from repro.datasets.generator import build_task_from_sources
from repro.datasets.registry import load_source_pair
from repro.serve import SessionConfig

task = build_task_from_sources(
    load_source_pair("dblp_scholar", 1.0), n_pairs=300, positive_fraction=0.25, seed=0
)
config = SessionConfig(matcher="SA-ESDE", blocker="graph", k=10, seed=0).ann_config()
records = task.right.records()
half = len(records) // 2
grown = make_index(config, records[:half])
sealed = grown.graph._sealed
for record in records[half:]:
    grown.insert([record])
rebuilt = make_index(config, records)
reseals = (grown.graph._sealed - sealed) // RESEAL_TAIL
assert reseals >= 3, f"only {reseals} re-seals crossed"
assert grown.graph._neighbors == rebuilt.graph._neighbors, "neighbor lists differ"
assert grown.graph._edge_sims == rebuilt.graph._edge_sims, "edge similarities differ"
for probe in task.left.records()[:200]:
    a, b = grown.search(probe, 10), rebuilt.search(probe, 10)
    assert (a.ids, a.scores) == (b.ids, b.scores), f"{probe.record_id} answers differ"
print(f"ann grown == rebuilt: {len(records)} records, {reseals} re-seals: OK")
EOF
python -m repro blocking --scale 0.3 --datasets abt_buy --cache ''
# Tuned LSH on dblp_scholar: PC >= 0.9 at >= 10x fewer candidates than
# the exhaustive q-gram baseline, reproducible from a fresh blocker.
python -m pytest -x -q tests/blocking/test_ann.py -k largest_profile

echo "== serve: session smoke (add 100, query 50, offline parity) =="
# A resident session must answer queries while absorbing incremental
# adds without ever rebuilding its index or incidence structure, and its
# predictions must be bit-identical to the offline matcher on the same
# candidate pairs.
python - <<'EOF'
from repro import obs as obs_package
from repro.data.pairs import LabeledPairSet, RecordPair
from repro.data.records import Record
from repro.datasets.generator import build_task_from_sources
from repro.datasets.sources import build_source_pair
from repro.experiments.matcher_suite import build_matcher
from repro.obs import Observability
from repro.serve import open_session
from repro.text.feature_store import store_for_task

sources = build_source_pair("dblp_scholar", 0.5)
task = build_task_from_sources(
    sources, n_pairs=300, positive_fraction=0.25, seed=0, name="serve_smoke"
)
with obs_package.use(Observability()) as o:
    session = open_session(task, k=10, seed=0)
    # Every feature view's incidence is append-only: adds must grow the
    # objects the fit built, never replace them.
    store = store_for_task(task)
    incidences = {view: inc for view, (_, inc) in store._incidences.items()}
    assert incidences, "the fit built no feature view"
    appends = o.metrics.counter("features.incidence_appends")
    donors = task.right.records()
    session.add_records(
        [Record(f"smoke_{i}", donors[i % len(donors)].source,
                dict(donors[i % len(donors)].values)) for i in range(100)]
    )
    probes = task.left.records()[:50]
    results = session.query_batch(probes)
    assert o.metrics.counter("blocking.ann.index_builds") == 1.0, (
        "incremental add rebuilt the index"
    )
    for view, incidence in incidences.items():
        assert store._incidences[view][1] is incidence, (
            f"serving replaced the incidence of view {view}"
        )
    assert o.metrics.counter("features.incidence_appends") > appends, (
        "serving appended no incidence rows"
    )

pair_set = LabeledPairSet()
online = {}
for probe, result in zip(probes, results):
    for record_id, verdict in zip(result.candidates.ids, result.predictions):
        key = (probe.record_id, record_id)
        online[key] = verdict
        if key not in pair_set and record_id in task.right:
            pair_set.add(RecordPair(probe, task.right.get(record_id)), 0)
offline = build_matcher(task, session.config.matcher, 0)
offline.fit(task)
mismatches = sum(
    int(int(v) != online[pair.key])
    for pair, v in zip(pair_set.pairs, offline.predict(pair_set))
)
assert len(pair_set) > 0, "serve smoke produced no candidate pairs"
assert mismatches == 0, f"{mismatches} serve/offline prediction mismatches"
print(f"serve parity smoke: OK ({len(pair_set)} pairs, 0 mismatches)")
EOF
# Live loop smoke: the JSONL protocol end to end over a real pipe.
python -m pytest -x -q tests/serve/test_loop.py -m "not slow"

echo "== serve frontend: overload shed + admitted parity + SIGTERM drain =="
# A real socket daemon under a concurrent overload burst: excess load is
# shed with structured 'overloaded' responses, every admitted answer is
# bit-identical across the burst AND to the offline session restored
# from the snapshot the SIGTERM drain writes, and the drained state
# directory passes a doctor audit untouched.
FRONTEND_STATE="$(mktemp -d)/state"
python - "$FRONTEND_STATE" <<'EOF'
import json, signal, socket, subprocess, sys, threading

state = sys.argv[1]
proc = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "dblp_scholar",
     "--scale", "0.3", "--k", "3", "--state", state,
     "--listen", "127.0.0.1:0", "--max-queue", "2"],
    stdout=subprocess.PIPE, text=True,
)
ready = json.loads(proc.stdout.readline())
assert ready.get("event") == "ready", ready
host, _, port = ready["address"].rpartition(":")

from repro.datasets.sources import build_source_pair
probes = [
    {"record_id": r.record_id, "source": r.source, "values": dict(r.values)}
    for r in build_source_pair("dblp_scholar", 0.3).left.records()[:40]
]

def run_client(requests, out, key):
    sock = socket.create_connection((host, int(port)), timeout=60)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    handle = sock.makefile("r", encoding="utf-8")
    responses = []
    for request in requests:
        sock.sendall((json.dumps(request) + "\n").encode())
        responses.append(json.loads(handle.readline()))
    sock.close()
    out[key] = responses

requests = [{"op": "query", "record": p, "k": 3} for p in probes]
serial_out = {}
run_client(requests, serial_out, "serial")
serial = {
    r["result"]["query_id"]: r["result"] for r in serial_out["serial"]
}
assert len(serial) == len(probes), "serial phase dropped answers"

burst_out = {}
threads = [
    threading.Thread(target=run_client, args=(requests, burst_out, i))
    for i in range(4)
]
for t in threads: t.start()
for t in threads: t.join()
flat = [r for rs in burst_out.values() for r in rs]
shed = [r for r in flat if r.get("error") == "overloaded"]
admitted = [r for r in flat if r.get("ok")]
hard = [r for r in flat if not r.get("ok")
        and r.get("error") not in ("overloaded", "deadline_exceeded")]
assert shed, "overload burst never shed"
assert not hard, f"hard failures under overload: {hard[:3]}"
mismatched = sum(
    1 for r in admitted if r["result"] != serial[r["result"]["query_id"]]
)
assert mismatched == 0, f"{mismatched} admitted answers diverged under load"

proc.send_signal(signal.SIGTERM)
assert proc.wait(timeout=300) == 0, "SIGTERM drain did not exit cleanly"

# Offline parity: the drained snapshot answers like the live daemon did.
from repro.data.records import Record
from repro.runtime.state import SERVE_STATE
from repro.serve import MatcherSession
restored = MatcherSession.load(f"{state}/{SERVE_STATE.manifest}")
offline_mismatches = sum(
    1 for p in probes
    if restored.query(
        Record(p["record_id"], p["source"], dict(p["values"])), 3
    ).to_dict() != serial[p["record_id"]]
)
assert offline_mismatches == 0, (
    f"{offline_mismatches} drained-snapshot answers diverge from live"
)
print(f"frontend overload smoke: OK ({len(shed)} shed, "
      f"{len(admitted)} admitted, 0 mismatches)")
EOF
# The drained state directory must audit clean as-is.
python -m repro doctor --check --cache "$FRONTEND_STATE"
# Front-end unit/integration suite, then the overload bench: shed > 0,
# no hard failures, 0 parity mismatches, admitted p99 <= 5x baseline.
python -m pytest -x -q tests/serve/test_frontend.py \
    tests/serve/test_frontend_chaos.py -m "not slow"
python -m pytest -x -q -s benchmarks/bench_frontend.py

echo "== scale mode: budgeted sharded sweep + SIGKILL/doctor/resume parity =="
# A 10^4-record sharded run under a memory budget must complete, journal
# every shard, and write its deterministic report.
SCALE_STATE="$(mktemp -d)"
python -m repro scale-up Ds2 --records 10000 --shard-size 500 \
    --memory-budget 4096 --cache '' --state "$SCALE_STATE/clean" \
    --out "$SCALE_STATE/clean.json"
# SIGKILL at each commit step (--inject SITE=kill), doctor audit and
# repair, resume: the final table must equal an uninterrupted run's.
python -m pytest -x -q tests/runtime/test_crash_consistency.py -k scale

echo "== clean working tree =="
if [[ "$IN_GIT" == 1 ]]; then
    TREE_AFTER="$(git status --porcelain)"
    if [[ "$TREE_AFTER" != "$TREE_BEFORE" ]]; then
        echo "verify changed the working tree:" >&2
        diff <(printf '%s\n' "$TREE_BEFORE") <(printf '%s\n' "$TREE_AFTER") >&2 || true
        exit 1
    fi
    echo "git status unchanged"
fi

echo "verify: OK"
