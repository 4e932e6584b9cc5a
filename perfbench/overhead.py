"""Tracing overhead: the same workload and seeds, untraced against traced.

Usage (from the repository root)::

    python3 perfbench/overhead.py --workload scale-shards --seeds 1,2,3 --seconds 10

Runs ``perfbench/run.py`` once per seed with ``--trace 0`` and once with
``--trace 1``, alternating which goes first, and prints for each
end-to-end metric the median of the untraced runs, the median of the
``traced.*`` copies the traced runs report, and their difference. The
end-to-end figures always come from untraced runs; this difference is
what the wrappers cost.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        check=False,
    )
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    if result.returncode != 0 or not payload["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed its checks")
    return {name: metric["value"] for name, metric in payload["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)

    plain: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    for index, seed in enumerate(int(s) for s in args.seeds.split(",")):
        order = (0, 1) if index % 2 == 0 else (1, 0)
        for trace in order:
            values = measure(args.workload, seed, args.seconds, trace)
            for name, value in values.items():
                if trace == 0:
                    plain.setdefault(name, []).append(value)
                elif name.startswith("traced."):
                    traced.setdefault(name.removeprefix("traced."), []).append(value)
    print(f"{'metric':16s} {'untraced':>12s} {'traced':>12s} {'difference':>12s}")
    for name, values in plain.items():
        base = statistics.median(values)
        with_trace = statistics.median(traced[name])
        share = f" ({(with_trace - base) / base:+.1%})" if base else ""
        print(f"{name:16s} {base:12.4f} {with_trace:12.4f} {with_trace - base:12.4f}{share}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
