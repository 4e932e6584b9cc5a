"""Command-line interface: regenerate any experiment from a shell.

Usage (after ``pip install -e .``)::

    python -m repro table3                # print Table III
    python -m repro table4 --scale 0.5    # half-scale matcher sweep
    python -m repro fig1                  # Figure 1 series
    python -m repro audit Ds4             # four-measure audit of one dataset
    python -m repro snapshot --out s.json # every table+figure as one JSON
    python -m repro scale-up --records 100000 --shard-size 10000
                                          # streaming sharded scale sweep
    python -m repro doctor --check        # audit cache/journal state
    python -m repro list                  # list datasets and experiments

Heavy sweeps honour ``--cache DIR`` (default ``.benchcache``), sharing the
cache with the pytest-benchmark harness. Long runs are fault tolerant:
``--retries``/``--timeout`` configure the execution policy, interrupted
runs resume from the cache directory's checkpoint journal, and
``--inject SITE=KIND[:TIMES]`` arms deterministic faults (see
:mod:`repro.runtime.faults`) to rehearse the degradation paths. Any unit
that failed is listed after the output instead of aborting the run.
Every unit runs in this process, one after another.

Self-healing state: ``repro doctor`` audits and repairs a cache
directory (torn journal tails, corrupt envelopes, quarantine retention,
stale temp files; ``--check`` reports without repairing and exits 1 on
findings).
``--breaker-threshold K`` arms circuit breakers: a unit failing K
consecutive times short-circuits instead of burning retries.

Observability (:mod:`repro.obs`): every run traces its sweeps, matcher
evaluations and assessments into ``<cache>/trace.jsonl`` —
``python -m repro trace --last`` renders the most recent run as a tree.
``--metrics`` appends the run's counters/gauges/timers after the output
(never altering the output itself) and ``--profile`` samples the hottest
units while the run executes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import obs
from repro.datasets.registry import ESTABLISHED_DATASET_IDS, SOURCE_DATASET_IDS
from repro.experiments import figures, tables
from repro.experiments.report import render
from repro.experiments.runner import (
    ExperimentRunner,
    RunnerConfig,
    check_cache_dir_writable,
)
from repro.obs import read_trace
from repro.runtime import ExecutionPolicy, clear_recorded_failures, faults

_TABLES = {
    "table3": (tables.table3, "Table III — established benchmarks"),
    "table4": (tables.table4, "Table IV — F1 per matcher and dataset"),
    "table5": (tables.table5, "Table V — new benchmarks (DeepBlocker)"),
    "table6": (tables.table6, "Table VI — F1 per matcher (new benchmarks)"),
    "table7": (tables.table7, "Table VII — existing vs new benchmarks"),
}

_FIGURES = {
    "fig1": (figures.figure1, "Figure 1 — degree of linearity (established)"),
    "fig2": (figures.figure2, "Figure 2 — complexity measures (established)"),
    "fig3": (figures.figure3, "Figure 3 — NLB and LBM (established)"),
    "fig4": (figures.figure4, "Figure 4 — degree of linearity (new)"),
    "fig5": (figures.figure5, "Figure 5 — complexity measures (new)"),
    "fig6": (figures.figure6, "Figure 6 — NLB and LBM (new)"),
}


def _positive_float(text: str) -> float:
    """Argparse type for ``--scale``: actionable message, no traceback."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r} (try --scale 0.5)"
        ) from None
    if not value > 0:
        raise argparse.ArgumentTypeError(
            f"size factor must be > 0, got {value} (1.0 = CI scale)"
        )
    return value


def _integer(text: str) -> int:
    """Argparse type for ``--seed``: actionable message, no traceback."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer seed, got {text!r} (e.g. --seed 7)"
        ) from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _cache_dir(text: str) -> Path | None:
    """Argparse type for ``--cache``: the advertised '' really disables.

    ``Path("")`` normalises to ``Path(".")``, so a plain ``type=Path``
    would silently cache into the working directory instead.
    """
    return Path(text) if text else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables, figures and audits.",
    )
    parser.add_argument(
        "experiment",
        help="table3..table7, fig1..fig6, blocking, audit, snapshot, serve, "
        "scale-up, trace, doctor, or list",
    )
    parser.add_argument(
        "dataset",
        nargs="?",
        default=None,
        help="dataset id for 'audit' (e.g. Ds4 or abt_buy) or the profile "
        "'scale-up' scales (default Ds2)",
    )
    parser.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="dataset size factor (1.0 = CI scale)",
    )
    parser.add_argument(
        "--cache",
        type=_cache_dir,
        default=Path(".benchcache"),
        help="matcher-sweep cache directory ('' to disable)",
    )
    parser.add_argument(
        "--seed", type=_integer, default=0, help="global experiment seed"
    )
    parser.add_argument(
        "--retries",
        type=_positive_int,
        default=1,
        metavar="N",
        help="attempts per unit of work (retry with backoff after failures)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="per-unit wall-clock deadline (default: none)",
    )
    parser.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SITE=KIND[:TIMES]",
        help="arm a deterministic fault, e.g. 'matcher:DITTO (15)=error' "
        "or 'cache:read=corrupt' (repeatable; "
        "KIND: error|hang|corrupt|torn|kill)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output path for 'snapshot' (default snapshot.json) or for "
        "the 'scale-up' report JSON (default: state dir only)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the run's metrics (counters/gauges/timers) after the "
        "output; never changes the output itself",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="sample the active spans while the run executes and print the "
        "hottest units afterwards (opt-in; adds sampling overhead)",
    )
    parser.add_argument(
        "--last",
        action="store_true",
        help="for 'trace': show only the most recent run in the trace file",
    )
    parser.add_argument(
        "--datasets",
        default=None,
        metavar="IDS",
        help="comma-separated dataset ids restricting table4/verdicts "
        "(e.g. --datasets Ds5,Ds7)",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=_positive_int,
        default=None,
        metavar="K",
        help="open a unit's circuit breaker after K consecutive failures "
        "(default: breakers disabled)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="for 'doctor': audit only, repair nothing, exit 1 on findings",
    )
    parser.add_argument(
        "--retention-days",
        type=_positive_float,
        default=None,
        metavar="DAYS",
        help="for 'doctor': delete quarantined entries older than this "
        "(default 7)",
    )
    parser.add_argument(
        "--memory-budget",
        type=_positive_float,
        default=None,
        metavar="MIB",
        help="degrade gracefully (smaller kernel batches, feature cache "
        "off) when RSS passes this budget, then shed units "
        "as BudgetExceeded",
    )
    parser.add_argument(
        "--disk-reserve",
        type=_positive_float,
        default=None,
        metavar="MIB",
        help="keep at least this much free space on the cache volume: "
        "preflight + periodic checks degrade and shed before ENOSPC",
    )
    parser.add_argument(
        "--adaptive-deadlines",
        action="store_true",
        help="learn per-phase deadlines from healthy durations "
        "(p99 x margin) instead of the fixed --timeout",
    )
    parser.add_argument(
        "--blocker",
        choices=("all", "exhaustive", "lsh", "graph", "ann"),
        default="all",
        metavar="BACKEND",
        help="for 'blocking': restrict the provenance sweep's rows to one "
        "backend ('ann' = both ANN backends; default: all)",
    )
    parser.add_argument(
        "--matcher",
        default="SA-ESDE",
        metavar="NAME",
        help="for 'serve': roster name of the matcher to fit (default "
        "SA-ESDE)",
    )
    parser.add_argument(
        "--k",
        type=_positive_int,
        default=10,
        metavar="K",
        help="for 'serve': candidates retrieved per query (default 10)",
    )
    parser.add_argument(
        "--state",
        type=_cache_dir,
        default=None,
        metavar="DIR",
        help="for 'serve': state directory (lease + journal + session "
        "snapshot); restarting with an existing snapshot resumes it. "
        "For 'scale-up': shard journal + manifest directory (default "
        "<cache>/scale); a rerun resumes at the last shard boundary",
    )
    parser.add_argument(
        "--snapshot-every",
        type=_positive_int,
        default=None,
        metavar="N",
        help="for 'serve': snapshot the session after every N added "
        "records (requires --state)",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="for 'serve': serve concurrent clients over TCP instead of "
        "stdio (port 0 picks an ephemeral port, announced in the ready "
        "event)",
    )
    parser.add_argument(
        "--socket",
        default=None,
        metavar="PATH",
        help="for 'serve': serve concurrent clients over a unix domain "
        "socket instead of stdio",
    )
    parser.add_argument(
        "--max-queue",
        type=_positive_int,
        default=None,
        metavar="N",
        help="for 'serve' with --listen/--socket: admission queue depth; "
        "beyond it requests are shed with an 'overloaded' response",
    )
    parser.add_argument(
        "--max-inflight-kb",
        type=_positive_int,
        default=None,
        metavar="KIB",
        help="for 'serve' with --listen/--socket: cap on admitted-but-"
        "unfinished request bytes (the other shedding axis)",
    )
    parser.add_argument(
        "--request-deadline",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="for 'serve' with --listen/--socket: fallback per-request "
        "deadline until the adaptive model has samples (default 30)",
    )
    parser.add_argument(
        "--send-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help="for 'serve' with --listen/--socket: slow-client write "
        "bound; a blocked send past it drops that client (default 5)",
    )
    parser.add_argument(
        "--records",
        type=_positive_int,
        default=None,
        metavar="N",
        help="for 'scale-up': target total record count across both "
        "sources (default 100000)",
    )
    parser.add_argument(
        "--shard-size",
        type=_positive_int,
        default=None,
        metavar="S",
        help="for 'scale-up': entities per shard — the streaming memory "
        "ceiling; results are bit-identical for every choice "
        "(default 10000)",
    )
    return parser


def _parse_datasets(text: str | None) -> tuple[str, ...] | None:
    """Validate a ``--datasets`` list against the known dataset ids."""
    if text is None:
        return None
    ids = tuple(part.strip() for part in text.split(",") if part.strip())
    if not ids:
        raise ValueError("expected at least one dataset id")
    known = set(ESTABLISHED_DATASET_IDS) | set(SOURCE_DATASET_IDS)
    unknown = [dataset_id for dataset_id in ids if dataset_id not in known]
    if unknown:
        raise ValueError(
            f"unknown dataset id(s) {', '.join(unknown)} (see 'repro list')"
        )
    return ids


def _audit(runner: ExperimentRunner, dataset_id: str) -> str:
    assessment = runner.assessment(dataset_id, with_practical=True)
    practical = assessment.practical
    assert practical is not None
    lines = [
        f"=== {dataset_id} ===",
        f"linearity (cosine):  {assessment.linearity['cosine'].max_f1:.3f}",
        f"linearity (jaccard): {assessment.linearity['jaccard'].max_f1:.3f}",
        f"mean complexity:     {assessment.complexity.mean:.3f}",
        f"non-linear boost:    {100 * practical.non_linear_boost:.1f}%",
        f"learning margin:     {100 * practical.learning_based_margin:.1f}%",
        f"easy by linearity:   {assessment.easy_by_linearity}",
        f"easy by complexity:  {assessment.easy_by_complexity}",
        f"easy by practical:   {assessment.easy_by_practical}",
        f"CHALLENGING:         {assessment.is_challenging}",
    ]
    return "\n".join(lines)


def _print_failures(runner: ExperimentRunner) -> None:
    report = render(runner.failure_records())
    if report:
        print()
        print(report)


def _print_observability(runner: ExperimentRunner, args) -> None:
    """The opt-in ``--metrics`` / ``--profile`` epilogue, after the output."""
    if args.metrics:
        print()
        print(render(runner.obs.snapshot(), title="Metrics"))
    if args.profile:
        runner.obs.profiler.stop()
        rows = [
            [label, str(samples), f"{seconds:.2f}s"]
            for label, samples, seconds in runner.obs.profiler.summary(10)
        ]
        print()
        if rows:
            print(render((["unit", "samples", "~seconds"], rows),
                         title="Hottest units (sampled)"))
        else:
            print("Hottest units (sampled): no samples collected")


def _trace_command(cache_dir: Path | None, last: bool) -> int:
    """``python -m repro trace [--last]``: render the trace file as trees."""
    if cache_dir is None:
        print("trace requires a cache directory (--cache DIR)")
        return 2
    trace_path = cache_dir / obs.TRACE_FILE_NAME
    runs = read_trace(trace_path)
    if not runs:
        print(f"no trace runs found in {trace_path}")
        return 1
    run_ids = list(runs)
    if last:
        run_ids = run_ids[-1:]
    for index, run_id in enumerate(run_ids):
        if index:
            print()
        spans = runs[run_id]
        print(render(spans, title=f"Trace {run_id} ({len(spans)} span(s))"))
    return 0


def _doctor_command(cache_dir: Path | None, args) -> int:
    """``python -m repro doctor [--check] [--retention-days D]``."""
    from repro.runtime.doctor import DEFAULT_RETENTION_DAYS, run_doctor

    if cache_dir is None:
        print("doctor requires a cache directory (--cache DIR)")
        return 2
    report = run_doctor(
        cache_dir,
        check=args.check,
        retention_days=(
            args.retention_days
            if args.retention_days is not None
            else DEFAULT_RETENTION_DAYS
        ),
    )
    if report.findings:
        print(render(report.to_table(), title="Doctor findings"))
        print()
    print(report.summary())
    # --check is an audit: findings mean the state needs repair.
    return 1 if (args.check and not report.clean) else 0


def _scale_command(cache_dir: Path | None, args) -> int:
    """``python -m repro scale-up [DATASET] --records N --shard-size S``.

    Scales the named established profile (default Ds2) to ``--records``
    total records and streams it shard-by-shard through blocking,
    matching and reduction (:mod:`repro.scale`). State (shard journal +
    manifest) lives in ``--state`` or ``<cache>/scale``; a rerun — or a
    restart after a mid-shard SIGKILL — resumes at the last completed
    shard boundary and produces bit-identical final tables.
    """
    from repro.runtime.guard import BudgetExceeded
    from repro.scale import ScaleConfig, ShardedSweep

    options = {}
    if args.records is not None:
        options["records"] = args.records
    if args.shard_size is not None:
        options["shard_size"] = args.shard_size
    if args.dataset is not None:
        options["dataset_id"] = args.dataset
    # The sweep's blocker vocabulary is wider than the blocking
    # experiment's restriction flag; the sweep defaults ('all') and the
    # 'ann' shorthand both mean the LSH backend here.
    if args.blocker not in ("all", "ann"):
        options["blocker"] = args.blocker
    try:
        config = ScaleConfig(
            matcher=args.matcher,
            seed=args.seed,
            memory_budget_mb=args.memory_budget,
            disk_reserve_mb=args.disk_reserve,
            **options,
        )
    except ValueError as error:
        print(f"scale-up: {error}")
        return 2
    state_dir = args.state
    if state_dir is None and cache_dir is not None:
        state_dir = cache_dir / "scale"
    collector = obs.active()
    if cache_dir is not None and collector.enabled:
        # As a runner does: the sweep's spans land in <cache>/trace.jsonl
        # under a fresh run id; main() detaches the file on return.
        collector.trace.attach_file(
            cache_dir / obs.TRACE_FILE_NAME, run_id=obs.new_run_id()
        )
    sweep = ShardedSweep(config, cache_dir=state_dir)
    try:
        report = sweep.run()
    except BudgetExceeded as error:
        print(f"scale-up: budget exceeded: {error}")
        print("completed shards are journaled; rerun to resume")
        return 3
    title = (
        f"Scale sweep — {config.dataset_id} @ {config.records:,} records, "
        f"{report.n_shards} shard(s), blocker={config.blocker}, "
        f"matcher={config.matcher_variant}"
    )
    print(render(report.to_table(), title=title))
    print()
    resumed = (
        f", {report.resumed_shards} shard(s) resumed from the journal"
        if report.resumed_shards
        else ""
    )
    print(
        f"{report.n_records:,} records in {report.total_seconds:.1f}s "
        f"({report.records_per_sec:,.0f} records/sec{resumed})"
    )
    if args.out is not None:
        args.out.write_text(
            json.dumps(report.state(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {args.out}")
    if args.metrics:
        print()
        print(render(obs.snapshot(), title="Metrics"))
    return 0


def _serve_command(args) -> int:
    """``python -m repro serve [DATASET] [--matcher M] [--state DIR] ...``.

    Fits the matcher, builds the incremental ANN index over the dataset's
    right-hand records and answers JSONL requests on stdin until EOF,
    ``shutdown`` or SIGTERM. With ``--state DIR`` holding an existing
    session snapshot, the session resumes from it instead of refitting.
    ``--listen HOST:PORT`` / ``--socket PATH`` swap stdio for the
    concurrent socket front end (admission control, deadlines, per-client
    breakers); stdio stays the default.
    """
    from repro.datasets.generator import build_task_from_sources
    from repro.datasets.registry import load_established_task, load_source_pair
    from repro.serve import MatcherSession, SessionConfig
    from repro.serve.frontend import FrontendConfig, SocketFrontend
    from repro.runtime.state import SERVE_STATE
    from repro.serve.loop import ServeLoop

    if args.snapshot_every is not None and args.state is None:
        print("--snapshot-every requires --state DIR")
        return 2
    if args.listen is not None and args.socket is not None:
        print("--listen and --socket are mutually exclusive")
        return 2

    snapshot_path = (
        args.state / SERVE_STATE.manifest if args.state is not None else None
    )
    if snapshot_path is not None and snapshot_path.exists():
        session = MatcherSession.load(snapshot_path)
    else:
        dataset_id = args.dataset if args.dataset is not None else "dblp_scholar"
        if dataset_id in ESTABLISHED_DATASET_IDS:
            task = load_established_task(dataset_id, args.scale)
        elif dataset_id in SOURCE_DATASET_IDS:
            task = build_task_from_sources(
                load_source_pair(dataset_id, args.scale),
                n_pairs=300,
                positive_fraction=0.25,
                seed=args.seed,
            )
        else:
            print(
                f"serve: unknown dataset id {dataset_id!r} (see 'repro list')"
            )
            return 2
        blocker = args.blocker if args.blocker in ("lsh", "graph") else "graph"
        config = SessionConfig(
            matcher=args.matcher,
            blocker=blocker,
            k=args.k,
            seed=args.seed,
        )
        session = MatcherSession(task, config)

    loop = ServeLoop(
        session,
        state_dir=args.state,
        snapshot_every=(
            args.snapshot_every if args.snapshot_every is not None else 0
        ),
    )
    if args.listen is not None or args.socket is not None:
        overrides: dict = {}
        if args.max_queue is not None:
            overrides["max_queue_depth"] = args.max_queue
        if args.max_inflight_kb is not None:
            overrides["max_inflight_bytes"] = args.max_inflight_kb * 1024
        if args.request_deadline is not None:
            overrides["fallback_deadline_seconds"] = args.request_deadline
        if args.send_timeout is not None:
            overrides["send_timeout_seconds"] = args.send_timeout
        frontend = SocketFrontend(
            loop,
            listen=args.listen,
            socket_path=args.socket,
            config=FrontendConfig(**overrides),
        )
        code = frontend.serve_forever()
    else:
        code = loop.run()
    if args.metrics:
        print(render(obs.snapshot(), title="Metrics"), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run_command(args)
    finally:
        # A runner attaches the process-wide trace collector to its
        # cache's trace file; detach it so a later command in the same
        # process never appends its spans there.
        obs.active().trace.detach_file()


def _run_command(args) -> int:
    # The runner collects failures itself; start the process-wide fallback
    # registry empty so repeated in-process invocations don't accumulate.
    clear_recorded_failures()

    for spec in args.inject:
        try:
            faults.arm_from_spec(spec)
        except ValueError as error:
            print(f"--inject: {error}")
            return 2

    cache_dir = args.cache
    try:
        dataset_ids = _parse_datasets(args.datasets)
    except ValueError as error:
        print(f"--datasets: {error}")
        return 2

    if args.experiment == "trace":
        return _trace_command(cache_dir, args.last)

    if args.experiment == "doctor":
        return _doctor_command(cache_dir, args)

    if args.experiment == "serve":
        return _serve_command(args)

    if args.experiment == "scale-up":
        return _scale_command(cache_dir, args)

    if args.experiment == "list":
        print(
            "experiments:",
            ", ".join(
                [*_TABLES, *_FIGURES, "blocking", "verdicts", "audit",
                 "snapshot", "serve", "scale-up", "trace"]
            ),
        )
        print("established datasets:", ", ".join(ESTABLISHED_DATASET_IDS))
        print("source datasets:", ", ".join(SOURCE_DATASET_IDS))
        return 0

    if cache_dir is not None:
        problem = check_cache_dir_writable(cache_dir)
        if problem is not None:
            print(f"error: {problem}")
            print("hint: pass --cache '' to run without an on-disk cache, "
                  "or point --cache at a writable directory")
            return 2

    policy = ExecutionPolicy(
        max_attempts=args.retries,
        deadline_seconds=args.timeout,
        seed=args.seed,
    )
    runner = ExperimentRunner(
        config=RunnerConfig(
            scale=args.scale,
            seed=args.seed,
            cache_dir=cache_dir,
            policy=policy,
            breaker_threshold=args.breaker_threshold,
            memory_budget_mb=args.memory_budget,
            disk_reserve_mb=args.disk_reserve,
            adaptive_deadlines=args.adaptive_deadlines,
        )
    )
    if args.profile:
        runner.obs.profiler.start()

    if args.experiment == "audit":
        if args.dataset is None:
            print("audit requires a dataset id (see 'repro list')")
            return 2
        print(_audit(runner, args.dataset))
        _print_failures(runner)
        _print_observability(runner, args)
        return 0

    if args.experiment in ("blocking", "block"):
        from repro.experiments.tables import blocking_provenance_table

        if dataset_ids is not None:
            outside = [d for d in dataset_ids if d not in SOURCE_DATASET_IDS]
            if outside:
                print(
                    f"--datasets: blocking provenance needs source dataset "
                    f"ids, got {', '.join(outside)} (see 'repro list')"
                )
                return 2
        headers, rows = blocking_provenance_table(runner, dataset_ids)
        if args.blocker != "all":
            wanted = (
                {"lsh", "graph"} if args.blocker == "ann" else {args.blocker}
            )
            rows = [row for row in rows if row[1] in wanted]
        print(render((headers, rows),
                     title="Blocking provenance — recall/CSSR per backend"))
        _print_failures(runner)
        _print_observability(runner, args)
        return 0

    if args.experiment == "verdicts":
        from repro.datasets.registry import SOURCE_DATASET_IDS as _SOURCES
        from repro.experiments.tables import verdict_table

        if dataset_ids is not None:
            print(render(verdict_table(runner, dataset_ids), title="Verdicts"))
        else:
            print(render(verdict_table(runner), title="Verdicts — established"))
            print()
            print(render(verdict_table(runner, _SOURCES),
                         title="Verdicts — new benchmarks"))
        _print_failures(runner)
        _print_observability(runner, args)
        return 0

    if args.experiment == "snapshot":
        from repro.experiments.snapshot import save_snapshot

        out = args.out if args.out is not None else Path("snapshot.json")
        snapshot = save_snapshot(runner, out)
        n_failures = len(snapshot["failures"])  # type: ignore[arg-type]
        print(f"snapshot written to {out} ({n_failures} degraded unit(s))")
        _print_failures(runner)
        _print_observability(runner, args)
        return 0

    if args.experiment in _TABLES:
        builder, title = _TABLES[args.experiment]
        if args.experiment == "table4" and dataset_ids is not None:
            print(render(tables.table4(runner, dataset_ids), title=title))
        else:
            print(render(builder(runner), title=title))
        _print_failures(runner)
        _print_observability(runner, args)
        return 0

    if args.experiment in _FIGURES:
        builder, title = _FIGURES[args.experiment]
        print(render(builder(runner), title=title))
        _print_failures(runner)
        _print_observability(runner, args)
        return 0

    print(f"unknown experiment {args.experiment!r}; try 'repro list'")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
