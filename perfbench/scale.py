"""scale-shards: a streaming sharded sweep in the BENCH_scale.json configuration.

Ds2 scaled to ``RECORDS`` records, ``lsh`` blocking, the ``SA`` ESDE
matcher, 10k-entity shards, journal in a directory of the run's own.
Set-up is the fit on shard 0: ``ShardedSweep.run(max_shards=0)``
generates shard 0, fits, journals the fit and stops at the first shard
boundary. The measured work is the resumed ``run()``, which generates,
blocks and scores every shard. ``--seed`` modulo ``SWEEP_SEEDS`` is the
sweep's own seed, so it changes the generated records, and every sweep
seed has its ``ScaleReport.state()`` digest committed in
``expected_digests.json`` under ``scale:<sweep seed>``.

Known defect, reported rather than sized away: ``generate_shard`` emits
matched entities first, then left-only, then right-only, so at 40k
records only shard 0 has left-hand records and the other three do no
matching at all. ``datasets.empty_side_shards`` counts them, and
``scale_pairs_per_s`` is printed beside ``scale_records_per_s``.
"""

from __future__ import annotations

import statistics

DATASET = "Ds2"
RECORDS = 40_000
SHARD_SIZE = 10_000
BLOCKER = "lsh"
MATCHER = "SA"
#: BENCH_scale.json's blocking-recall and end-to-end F1 floors.
PC_FLOOR = 0.9
F1_FLOOR = 0.6
#: Fits per run (the set-up samples); measured sweeps per run are
#: ``--seconds`` over ``LOOP_ESTIMATE_S``, at least one and at most ``SETUPS``.
SETUPS = 3
LOOP_ESTIMATE_S = 3
#: Distinct sweep seeds; each has a committed state digest.
SWEEP_SEEDS = 20


def config_for(seed: int):
    from repro.scale import ScaleConfig

    return ScaleConfig(
        dataset_id=DATASET,
        records=RECORDS,
        shard_size=SHARD_SIZE,
        blocker=BLOCKER,
        matcher=MATCHER,
        seed=seed % SWEEP_SEEDS,
    )


def run(ctx) -> dict:
    from harness import ExpectedDigests, Window, digest_of, peak_rss_mb, percentile, tail
    from repro.scale import ShardedSweep

    report = ctx.report
    tracer = None
    if ctx.trace:
        from tracing import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
    config = config_for(ctx.seed)
    counts = (lambda: dict(tracer.counts)) if tracer is not None else dict
    # (window, counts before, counts after) of every fit and every sweep.
    fits = []
    for index in range(SETUPS):
        before = counts()
        with Window() as window:
            ShardedSweep(config, cache_dir=ctx.work / f"sweep{index}").run(max_shards=0)
        fits.append((window, before, counts()))
    loops = []
    reports = []
    for index in range(max(1, min(SETUPS, round(ctx.seconds / LOOP_ESTIMATE_S)))):
        sweep = ShardedSweep(config, cache_dir=ctx.work / f"sweep{index}")
        before = counts()
        with Window() as window:
            reports.append(sweep.run())
        loops.append((window, before, counts()))

    states = [digest_of(r.state()) for r in reports]
    final = reports[0]
    report.check(all(r.complete for r in reports), "every sweep completed all shards")
    report.check(len(set(states)) == 1, f"ScaleReport.state() identical across {len(reports)} sweeps")
    expected = ExpectedDigests()
    key = f"scale:{config.seed}"
    report.check(
        expected.matches(key, states[0]),
        f"ScaleReport.state() bit-identical to the committed digest for sweep seed "
        f"{config.seed} ({states[0]}, {expected.describe(key)})",
    )
    report.check(
        final.pair_completeness >= PC_FLOOR,
        f"PC {final.pair_completeness:.4f} >= {PC_FLOOR}",
    )
    report.check(final.f1 >= F1_FLOOR, f"F1 {final.f1:.4f} >= {F1_FLOOR}")

    setup = statistics.median(window.wall for window, _, _ in fits)
    wall = statistics.median(window.wall for window, _, _ in loops)
    records_rate = statistics.median(
        r.n_records / window.wall for r, (window, _, _) in zip(reports, loops)
    )
    pairs_rate = statistics.median(
        sum(s.n_candidates for s in r.shards) / window.wall for r, (window, _, _) in zip(reports, loops)
    )
    # Shard times come from the sweep's own per-shard timer.
    shard_ms = [shard.seconds * 1000.0 for r in reports for shard in r.shards]
    tail_label, tail_ms = tail(shard_ms)
    empty = sum(1 for shard in final.shards if shard.n_left == 0 or shard.n_right == 0)
    report.line(
        f"scale-shards: {DATASET} @ {final.n_records} records, {final.n_shards} shards of "
        f"{SHARD_SIZE} entities, {len(loops)} sweep(s); {empty} of {final.n_shards} shards "
        f"have an empty side and match nothing; "
        f"{sum(s.n_candidates for s in final.shards)} candidate pairs per sweep"
    )
    report.line(
        "scale-shards: sweep wall " + ", ".join(f"{w.wall:.3f}" for w, _, _ in loops)
        + " s; host steal " + ", ".join(f"{w.stolen:.2f}" for w, _, _ in loops) + " CPU-s"
    )
    report.metric("setup_s", setup, "s", "fit on shard 0, median of " + ", ".join(f"{w.wall:.3f}" for w, _, _ in fits))
    report.metric("scale_records_per_s", records_rate, "1/s", f"median of {len(loops)}")
    report.metric("scale_pairs_per_s", pairs_rate, "1/s", "candidate pairs blocked and scored")
    report.metric("shard_p50_ms", percentile(shard_ms, 50), "ms", f"{len(shard_ms)} shards")
    report.metric("shard_tail_ms", tail_ms, "ms", tail_label)
    report.metric("error_rate", 0.0, "1", f"0 failed of {len(shard_ms)} shards")

    e2e = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "records_per_s": (records_rate, "1/s"),
        "p50_ms": (percentile(shard_ms, 50), "ms"),
        "tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    layers = {}
    if tracer is not None:
        layers = sweep_layers(tracer.spans, fits, loops)
    return {"attempted": len(shard_ms), "failed": 0, "e2e": e2e, "layers": layers}


def sweep_layers(spans, fits, loops) -> dict:
    """Per-layer metrics of one sweep: the mean fit plus the mean loop.

    Each entry is ``(window, counts_before, counts_after)``.
    """
    from tracing import LAYER_COUNTS, windowed_layers

    windows = [
        (window.start, window.end, 1.0 / len(group))
        for group in (fits, loops)
        for window, _, _ in group
    ]
    layers = windowed_layers(spans, windows)
    for name in LAYER_COUNTS:
        delta = sum(
            (after.get(name, 0.0) - before.get(name, 0.0)) / len(group)
            for group in (fits, loops)
            for _, before, after in group
        )
        layers[name] = (delta, "count")
    return layers
