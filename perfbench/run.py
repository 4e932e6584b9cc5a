"""The repository benchmark: one command, three workloads, correctness gates.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit-cold --seed 1 --seconds 10 --trace 0

Workloads:

* ``audit-cold``   — cold difficulty audit of Ds1 and Dt1 (:mod:`audit`);
* ``scale-shards`` — streaming sharded sweep of Ds2 (:mod:`scale`);
* ``serve-mix``    — resident server under a query/add mix (:mod:`serve`).

Every run prints the host fingerprint, its correctness checks and the
workload's own metrics by name and unit, then, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (layers a workload never enters read 0). A failed check
sets ``correct`` to false and the exit code to 1. Without the program's
sources (``src/repro``) the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

from harness import Report, host_fingerprint, result_line, steal_seconds

#: End-to-end metrics, reported by every workload (see NOTES.md). Each
#: workload's ``tail_ms`` is printed on every run but not bounded: on a
#: shared host its run-to-run spread exceeds any bound the benchmark may set.
END_TO_END = ("setup_s", "wall_s", "records_per_s", "p50_ms", "peak_rss_mb")

#: Per-layer metrics and their units, in BENCHMARK.json order.
PER_LAYER = {
    "datasets.generate_s": "s",
    "datasets.shard_generate_s": "s",
    "datasets.shards": "count",
    "datasets.empty_side_shards": "count",
    "core.linearity_s": "s",
    "core.complexity_s": "s",
    "matchers.dl_fit_s": "s",
    "matchers.ml_fit_s": "s",
    "matchers.linear_fit_s": "s",
    "matchers.predict_s": "s",
    "matchers.degraded": "count",
    "matchers.pairs_scored": "count",
    "text.extract_s": "s",
    "text.extract_calls": "count",
    "blocking.candidates_s": "s",
    "blocking.candidates": "count",
    "blocking.pq": "1",
    "blocking.evaluate_s": "s",
    "blocking.index_build_s": "s",
    "blocking.search_s": "s",
    "blocking.insert_s": "s",
    "runtime.persist_s": "s",
    "serve.query_batch_s": "s",
    "serve.add_records_s": "s",
    "serve.frontend_wait_ms": "ms",
    "serve.batches": "count",
    "serve.coalesced": "count",
    "serve.generator_late_ms": "ms",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "1",
    "traced.setup_s": "s",
    "traced.wall_s": "s",
    "traced.records_per_s": "1/s",
    "traced.p50_ms": "ms",
    "traced.tail_ms": "ms",
    "traced.peak_rss_mb": "MB",
}


@dataclass
class Context:
    root: Path
    seed: int
    seconds: int
    trace: bool
    work: Path
    report: Report


def _workloads():
    import audit
    import scale
    import serve

    return {"audit-cold": audit.run, "scale-shards": scale.run, "serve-mix": serve.run}


def per_layer_metrics(outcome: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; layers the workload never entered read 0."""
    layers = dict(outcome["layers"])
    candidates = layers.get("blocking.candidates", (0.0, "count"))[0]
    matching = layers.pop("blocking.matching_candidates", (0.0, "count"))[0]
    layers["blocking.pq"] = (matching / candidates if candidates else 0.0, "1")
    for name, value in outcome["e2e"].items():
        layers[f"traced.{name}"] = value
    return {
        name: (layers.get(name, (0.0, unit))[0], unit) for name, unit in PER_LAYER.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit-cold", "scale-shards", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    report = Report()
    report.line("host " + json.dumps(host_fingerprint(root), sort_keys=True))
    report.line(
        f"run workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
    )
    work = root / ".perfbench" / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = Context(root, args.seed, args.seconds, bool(args.trace), work, report)
    stolen = steal_seconds()
    try:
        outcome = _workloads()[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report.line(f"host steal during the run: {steal_seconds() - stolen:.2f} CPU-s")

    if args.trace:
        metrics = per_layer_metrics(outcome)
    else:
        metrics = {name: outcome["e2e"][name] for name in END_TO_END}
    for name, (value, unit) in metrics.items():
        report.metric(name, value, unit, "per layer" if args.trace else "end to end")
    correct = not report.failures
    print(result_line(correct, outcome["attempted"], outcome["failed"], metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
