"""CLI-level observability: --metrics/trace never change output."""

from __future__ import annotations

import pytest

from repro import obs as obs_module
from repro.experiments.cli import main
from repro.obs import Observability


@pytest.fixture(autouse=True)
def fresh_observability():
    """Each CLI invocation gets its own active instance (no bleed-through)."""
    previous = obs_module.activate(Observability())
    yield
    obs_module.activate(previous)


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestMetricsFlagIsPureAddition:
    def test_table3_bytes_unchanged_by_metrics(self, capsys, tmp_path):
        plain = run_cli(capsys, "table3", "--cache", str(tmp_path / "a"))
        obs_module.activate(Observability())
        with_metrics = run_cli(
            capsys, "table3", "--cache", str(tmp_path / "b"), "--metrics"
        )
        assert with_metrics.startswith(plain)
        appended = with_metrics[len(plain):]
        assert "Metrics" in appended
        assert "blocking" not in plain  # metric names never leak into tables

    def test_metrics_table_lists_counters(self, capsys, tmp_path):
        out = run_cli(
            capsys, "fig2", "--cache", str(tmp_path), "--metrics"
        )
        assert "Metrics" in out
        assert "counter" in out or "timer" in out


class TestTraceCommand:
    def test_trace_last_renders_one_sweep_tree(self, capsys, tmp_path):
        run_cli(
            capsys, "audit", "Ds5", "--scale", "0.3", "--cache", str(tmp_path)
        )
        out = run_cli(capsys, "trace", "--last", "--cache", str(tmp_path))
        assert "Trace" in out
        assert "sweep dataset=Ds5" in out
        assert "matcher" in out
        # Children indent under their sweep parent.
        assert "\n  matcher" in out
        # The self-time roll-up under the tree has one row per layer.
        rollup = out.split("Self time by span name", 1)[1]
        rows = {
            line.split()[0]: line.split()[1:]
            for line in rollup.splitlines()[3:]
            if line.strip()
        }
        for layer in ("matchers.dl_fit", "matchers.predict", "text.extract",
                      "runtime.persist"):
            count, seconds, share = rows[layer]
            assert int(count) > 0 and float(seconds) > 0, layer
            assert share.endswith("%")

    def test_trace_without_runs_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace", "--last", "--cache", str(tmp_path)]) == 1
        assert "no trace runs" in capsys.readouterr().out

    def test_trace_requires_a_cache_dir(self, capsys):
        assert main(["trace", "--cache", ""]) == 2
        assert "requires a cache" in capsys.readouterr().out
