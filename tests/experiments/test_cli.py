"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

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
