"""Generate the paper-vs-measured comparison tables of EXPERIMENTS.md.

Runs (or loads from ``.benchcache/``) the full matcher sweeps on the
established and new benchmarks, compares them against the numbers the ICDE
2024 paper reports, and writes the markdown comparison to stdout or a file.

Run with:  python examples/paper_comparison_report.py [output.md]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments.paper_comparison import (
    compare_all,
    render_comparison_markdown,
)
from repro.experiments.runner import ExperimentRunner, RunnerConfig


def main() -> None:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else None
    runner = ExperimentRunner(
        RunnerConfig(scale=1.0, seed=0, cache_dir=Path(".benchcache"))
    )
    print("Comparing against the paper (heavy on a cold cache) ...", file=sys.stderr)
    established, new = compare_all(runner)
    markdown = render_comparison_markdown(established, new)
    if output is None:
        print(markdown)
    else:
        output.write_text(markdown + "\n", encoding="utf-8")
        print(f"written to {output}", file=sys.stderr)


if __name__ == "__main__":
    main()
