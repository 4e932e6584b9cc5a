"""audit-cold: the paper's own job — a cold difficulty audit of Ds1 and Dt1.

Each audit runs in a fresh interpreter (``python3 perfbench/audit.py
--child ...``) from an empty cache directory, sequentially, as ``python
-m repro audit`` does: import the CLI, build the runner the CLI builds,
then ``runner.assessment(d, with_practical=True)`` for each dataset —
a-priori measures plus the 23-matcher roster. The seed only picks the
order of the two datasets: the experiment seed stays 0, the seed the
paper's verdicts are reproduced at.

Set-up (import + runner construction) is sampled three times per run:
in the audit's own interpreter and in two interpreters that stop right
after constructing the runner.

Correctness: both verdicts match the paper, and each dataset's
per-matcher scores match, bit for bit, the digest committed in
``expected_digests.json`` under ``audit:<dataset>``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

DATASETS = ("Ds1", "Dt1")
SETUP_ONLY_CHILDREN = 2
#: Cold audits per run: ``--seconds`` over this, at least one.
AUDIT_ESTIMATE_S = 20
CHILD_TIMEOUT_S = 150.0


def child(argv: list[str]) -> int:
    from harness import Window, peak_rss_mb

    with Window() as setup:
        parser = argparse.ArgumentParser()
        parser.add_argument("--cache", required=True, type=Path)
        parser.add_argument("--datasets", default="")
        parser.add_argument("--spans", default=None)
        args = parser.parse_args(argv)

        from repro.experiments import cli  # noqa: F401  (the CLI's import set)
        from repro.experiments.runner import ExperimentRunner, RunnerConfig
        from repro.runtime import ExecutionPolicy, clear_recorded_failures

        tracer = None
        if args.spans:
            from tracing import Tracer, install_layers

            tracer = Tracer()
            install_layers(tracer)
        clear_recorded_failures()
        # The runner ``python -m repro audit`` builds with default flags.
        runner = ExperimentRunner(
            config=RunnerConfig(
                scale=1.0,
                seed=0,
                cache_dir=args.cache,
                policy=ExecutionPolicy(max_attempts=1, deadline_seconds=None, seed=0),
                workers=1,
                auto_degrade_workers=True,
            )
        )
    result = {"setup": [setup.wall, setup.stolen]}
    datasets = [d for d in args.datasets.split(",") if d]
    if not datasets:
        print(json.dumps(result))
        return 0

    verdicts = {}
    windows = []
    for dataset_id in datasets:
        with Window() as window:
            verdicts[dataset_id] = runner.assessment(
                dataset_id, with_practical=True
            ).is_challenging
        windows.append(window)

    from repro.obs import read_trace

    scores = {}
    records = 0
    for dataset_id in datasets:
        results = runner.matcher_results(dataset_id)
        scores[dataset_id] = {
            name: [result.precision, result.recall, result.f1, result.degraded]
            for name, result in sorted(results.items())
        }
        task = runner.task_for(dataset_id)
        records += len(task.left) + len(task.right)
    units = [
        span.wall_seconds
        for spans in read_trace(args.cache / "trace.jsonl").values()
        for span in spans
        if span.name == "matcher"
    ]
    if tracer is not None:
        tracer.dump(args.spans)
    result.update(
        {
            "windows": [[w.start, w.end, w.stolen] for w in windows],
            "verdicts": verdicts,
            "scores": scores,
            "records": records,
            "unit_seconds": units,
            "failures": len(runner.failure_records()),
            "peak_rss_mb": peak_rss_mb(),
        }
    )
    print(json.dumps(result))
    return 0


def spawn(ctx, cache: Path, datasets: list[str], spans: Path | None = None) -> dict:
    from harness import child_env

    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--cache", str(cache), "--datasets", ",".join(datasets),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    result = subprocess.run(
        command,
        cwd=ctx.root,
        env=child_env(ctx.root),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if result.returncode != 0:
        sys.stderr.write(result.stderr[-4000:])
        raise RuntimeError(f"audit child failed with exit code {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def run(ctx) -> dict:
    from harness import ExpectedDigests, digest_of, percentile, tail
    from repro.experiments.paper_reference import PAPER_CHALLENGING_ESTABLISHED

    report = ctx.report
    order = list(DATASETS)
    random.Random(ctx.seed).shuffle(order)
    setups = [
        spawn(ctx, ctx.work / f"setup{index}", [])["setup"]
        for index in range(SETUP_ONLY_CHILDREN)
    ]
    audits = []
    for index in range(max(1, round(ctx.seconds / AUDIT_ESTIMATE_S))):
        spans = ctx.work / f"audit{index}_spans.json" if ctx.trace else None
        audit = spawn(ctx, ctx.work / f"audit{index}", order, spans)
        audit["spans_path"] = spans
        audit["wall"] = sum(end - start for start, end, _ in audit["windows"])
        audit["stolen"] = sum(stolen for _, _, stolen in audit["windows"])
        audits.append(audit)
        setups.append(audit["setup"])

    expected = ExpectedDigests()
    for audit in audits:
        for dataset_id in order:
            challenging = dataset_id in PAPER_CHALLENGING_ESTABLISHED
            got = audit["verdicts"][dataset_id]
            report.check(
                got == challenging,
                f"{dataset_id} verdict {'challenging' if got else 'easy'} matches the paper",
            )
            key = f"audit:{dataset_id}"
            digest = digest_of(audit["scores"][dataset_id])
            report.check(
                expected.matches(key, digest),
                f"{dataset_id} per-matcher scores bit-identical to the committed "
                f"digest ({digest}, {expected.describe(key)})",
            )

    wall = statistics.median(audit["wall"] for audit in audits)
    # Matcher units come from the runner's own trace.
    units_ms = [
        seconds * 1000.0 for audit in audits for seconds in audit["unit_seconds"]
    ]
    tail_label, tail_ms = tail(units_ms)
    setup = statistics.median(wall for wall, _ in setups)
    n_units = sum(len(audit["scores"][d]) for audit in audits for d in order)
    failures = sum(audit["failures"] for audit in audits)
    report.line(f"audit-cold: {len(audits)} cold audit(s) of {' then '.join(order)}")
    report.line(
        "audit-cold: audit wall " + ", ".join(f"{a['wall']:.3f}" for a in audits)
        + " s; host steal " + ", ".join(f"{a['stolen']:.2f}" for a in audits) + " CPU-s"
    )
    report.metric("setup_s", setup, "s", "median of " + ", ".join(f"{wall:.3f}" for wall, _ in setups))
    report.metric("audit_wall_s", wall, "s", f"median of {len(audits)}")
    report.metric("matcher_unit_p50_ms", percentile(units_ms, 50), "ms", f"{len(units_ms)} units")
    report.metric("matcher_unit_tail_ms", tail_ms, "ms", tail_label)
    report.metric("error_rate", failures / n_units, "1", f"{failures} degraded of {n_units} matcher units")

    e2e = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "records_per_s": (statistics.median(a["records"] / a["wall"] for a in audits), "1/s"),
        "p50_ms": (percentile(units_ms, 50), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (max(a["peak_rss_mb"] for a in audits), "MB"),
    }
    layers = {"matchers.degraded": (float(failures) / len(audits), "count")}
    if ctx.trace:
        layers.update(audit_layers(audits))
    return {"attempted": n_units, "failed": failures, "e2e": e2e, "layers": layers}


def audit_layers(audits: list[dict]) -> dict:
    """Per-layer metrics per audit, from each traced child's spans."""
    from tracing import LAYER_COUNTS, load_dump, windowed_layers

    layers: dict[str, tuple[float, str]] = {}
    counts = {name: 0.0 for name in LAYER_COUNTS}
    for audit in audits:
        spans, child_counts = load_dump(audit["spans_path"])
        windows = [(start, end, 1.0 / len(audits)) for start, end, _ in audit["windows"]]
        for name, (value, unit) in windowed_layers(spans, windows).items():
            layers[name] = (layers.get(name, (0.0, unit))[0] + value, unit)
        for name in LAYER_COUNTS:
            counts[name] += child_counts.get(name, 0.0) / len(audits)
    layers.update({name: (value, "count") for name, value in counts.items()})
    # Shares do not add up across audits: recompute over the mean audit.
    idle = layers["trace.unattributed_s"][0]
    layers["trace.unattributed_share"] = (idle / statistics.fmean(a["wall"] for a in audits), "1")
    return layers


if __name__ == "__main__" and sys.argv[1:2] == ["--child"]:
    raise SystemExit(child(sys.argv[2:]))
