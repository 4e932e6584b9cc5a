"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "table4" in output
        assert "Ds1" in output and "abt_buy" in output

    def test_unknown_experiment(self, capsys):
        assert main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().out

    def test_audit_requires_dataset(self, capsys):
        assert main(["audit"]) == 2
        assert "requires a dataset" in capsys.readouterr().out

    def test_startup_skips_the_complexity_only_imports(self):
        # networkx and scipy.sparse.csgraph cost every command ~0.5 s at
        # start-up; only the complexity measures use them, so they are
        # imported inside the functions that do.
        code = (
            "import sys, repro.experiments.cli; "
            "print(sorted({'networkx', 'scipy.sparse.csgraph'} "
            "& set(sys.modules)))"
        )
        path = [str(Path(repro.__file__).resolve().parents[1])]
        path.append(os.environ.get("PYTHONPATH", ""))
        child = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]"

    def test_cold_audit_writes_no_feature_matrices(self, capsys, tmp_path):
        assert main(
            ["audit", "Ds5", "--scale", "0.3", "--cache", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        left = sorted(path.name for path in tmp_path.iterdir())
        assert "features" not in left
        assert "checkpoint.journal" in left and "trace.jsonl" in left
        assert any(name.startswith("suite_") for name in left)
        assert any(name.startswith("apriori_") for name in left)
        assert all(
            name in ("checkpoint.journal", "trace.jsonl")
            or name.startswith(("suite_", "apriori_"))
            for name in left
        ), left

    def test_scale_up_small_run_and_resume(self, capsys, tmp_path):
        args = [
            "scale-up", "Ds2", "--records", "600", "--shard-size", "150",
            "--cache", str(tmp_path), "--out", str(tmp_path / "report.json"),
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "Scale sweep" in output
        assert "records/sec" in output
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "scale" / "scale.journal").exists()

        # A rerun resumes every shard from the journal.
        assert main(args[:-2]) == 0
        assert "resumed from the journal" in capsys.readouterr().out

    def test_commands_leave_no_trace_file_attached(
        self, capsys, tmp_path, monkeypatch
    ):
        # `list` builds no runner, and a runner's trace file is detached
        # when its command returns: a later command in the same process
        # must not append its spans to the default or an earlier cache.
        monkeypatch.chdir(tmp_path)

        def scale_up(cache: str) -> int:
            return main(
                ["scale-up", "Ds2", "--records", "600", "--shard-size",
                 "150", "--cache", cache]
            )

        assert main(["list"]) == 0
        assert scale_up("first") == 0
        assert not (tmp_path / ".benchcache").exists()
        assert main(["audit", "--cache", "earlier"]) == 2
        assert scale_up("second") == 0
        assert not (tmp_path / "earlier" / "trace.jsonl").exists()
        capsys.readouterr()

    def test_scale_up_traces_into_the_cache(self, capsys, tmp_path):
        assert main(
            ["scale-up", "Ds2", "--records", "600", "--shard-size", "150",
             "--cache", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "--last", "--cache", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "no trace runs found" not in output
        assert "scale.fit" in output
        assert "scale.shard" in output

    def test_scale_up_rejects_bad_config(self, capsys, tmp_path):
        assert main(
            ["scale-up", "Ds2", "--records", "600", "--matcher", "SAS",
             "--cache", str(tmp_path)]
        ) == 2
        assert "scale-up:" in capsys.readouterr().out

    def test_table3_half_scale(self, capsys, tmp_path):
        assert main(["table3", "--scale", "0.5", "--cache", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Table III" in output
        assert "Ds1" in output and "Dt2" in output

    def test_fig1_half_scale(self, capsys, tmp_path):
        assert main(["fig1", "--scale", "0.5", "--cache", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Figure 1" in output
        assert "f1_cosine" in output

    @pytest.mark.slow
    def test_audit_dataset(self, capsys, tmp_path):
        assert main(
            ["audit", "Ds5", "--scale", "0.5", "--cache", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "CHALLENGING" in output
        assert "non-linear boost" in output
