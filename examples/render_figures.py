"""Render the paper's six figures as SVG bar charts.

Uses the dependency-free SVG renderer (no matplotlib offline): Figures 1
and 4 chart the degrees of linearity, 2 and 5 the mean complexity, 3 and 6
the practical measures. Heavy sweeps load from ``.benchcache/`` when
available.

Run with:  python examples/render_figures.py [output_dir]
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.experiments import figures
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.svg import save_figure_svg


def main() -> None:
    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures")
    runner = ExperimentRunner(
        RunnerConfig(scale=1.0, seed=0, cache_dir=Path(".benchcache"))
    )

    plan = (
        ("fig1", figures.figure1, "Figure 1 — degree of linearity (established)",
         ("f1_cosine", "f1_jaccard")),
        ("fig2", figures.figure2, "Figure 2 — complexity (established)",
         ("mean",)),
        ("fig3", figures.figure3, "Figure 3 — NLB and LBM (established)",
         ("nlb", "lbm")),
        ("fig4", figures.figure4, "Figure 4 — degree of linearity (new)",
         ("f1_cosine", "f1_jaccard")),
        ("fig5", figures.figure5, "Figure 5 — complexity (new)",
         ("mean",)),
        ("fig6", figures.figure6, "Figure 6 — NLB and LBM (new)",
         ("nlb", "lbm")),
    )
    for name, builder, title, series in plan:
        print(f"Building {name} ...", file=sys.stderr)
        figure = builder(runner)
        save_figure_svg(figure, output / f"{name}.svg", title=title, series=series)
        print(f"  wrote {output / f'{name}.svg'}", file=sys.stderr)


if __name__ == "__main__":
    main()
