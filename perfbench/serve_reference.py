"""Offline reference for serve-mix: replay the served requests in one process.

Usage: ``python3 perfbench/serve_reference.py LOG.json``

Opens the same session ``python -m repro serve dblp_scholar`` opens
(same imports, same task and :class:`SessionConfig`), then replays the
log the load generator wrote. The front end
executes requests one at a time in admission order, so each answered
query saw the initial records plus some prefix of the acknowledged adds.
The log bounds that prefix per query: ``lo`` counts adds acknowledged
before the query was sent, ``hi`` adds sent before its answer arrived.
The replay applies the adds in the server's order and passes a query
when the offline answer at some prefix in ``[lo, hi]`` equals the served
answer bit for bit. The last stdout line is a JSON verdict.
"""

from __future__ import annotations

import json
import sys

DATASET = "dblp_scholar"
K = 10


def open_session():
    """The session ``_serve_command`` builds with its default arguments."""
    from repro.experiments import cli  # noqa: F401  (the server's import set)
    from repro.datasets.generator import build_task_from_sources
    from repro.datasets.registry import load_source_pair
    from repro.serve import MatcherSession, SessionConfig

    task = build_task_from_sources(
        load_source_pair(DATASET, 1.0),
        n_pairs=300,
        positive_fraction=0.25,
        seed=0,
    )
    config = SessionConfig(matcher="SA-ESDE", blocker="graph", k=K, seed=0)
    return MatcherSession(task, config)


def replay(session, log: dict) -> dict:
    from repro.serve.loop import parse_record_payload

    adds = sorted(log["adds"], key=lambda add: add["pos"])
    queries = sorted(log["queries"], key=lambda query: query["lo"])
    mismatches: list[str] = []
    verified = 0
    active: list[dict] = []
    next_query = 0
    for position in range(len(adds) + 1):
        if position:
            session.add_records([parse_record_payload(adds[position - 1]["record"])])
        while next_query < len(queries) and queries[next_query]["lo"] <= position:
            active.append(queries[next_query])
            next_query += 1
        if not active:
            continue
        answers = session.query_batch(
            [parse_record_payload(query["record"]) for query in active], K
        )
        still: list[dict] = []
        for query, answer in zip(active, answers):
            offline = json.loads(json.dumps(answer.to_dict()))
            if offline == query["result"]:
                verified += 1
            elif query["hi"] > position:
                still.append(query)
            else:
                mismatches.append(query["record"]["record_id"])
        active = still
    mismatches.extend(query["record"]["record_id"] for query in active)
    return {
        "final_records": len(session),
        "verified": verified,
        "mismatches": mismatches[:20],
        "n_mismatches": len(mismatches),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: serve_reference.py LOG.json", file=sys.stderr)
        return 2
    session = open_session()
    with open(argv[0], encoding="utf-8") as handle:
        log = json.load(handle)
    print(json.dumps(replay(session, log)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
