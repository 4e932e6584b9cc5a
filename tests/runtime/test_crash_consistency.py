"""Crash consistency of every durable-state writer: kill, doctor, resume.

Each case runs one :class:`~repro.runtime.state.StateDir` user — the
offline runner, the serve loop or the sharded scale sweep — as a child
``python -m repro`` armed with ``--inject SITE=kill`` at a step every
commit passes: ``cache:write`` (an envelope) or ``journal:append``. The
runner is also killed inside its work: at its first matcher
(``matcher:*``) and as its Ds5 sweep starts (``sweep:Ds5``). The child
dies by SIGKILL at its first pass of the site, ``repro doctor`` must
flag what it left behind and repair it, and the same command resumed
over the directory must reach exactly the state an uninterrupted
control reaches.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.datasets.registry import load_source_pair
from repro.experiments.cli import main
from repro.experiments.runner import ExperimentRunner, RunnerConfig
from repro.experiments.snapshot import sweep_state
from repro.runtime.state import SERVE_STATE
from repro.scale import ScaleConfig, ShardedSweep
from repro.serve import MatcherSession

pytestmark = pytest.mark.fault_smoke

SITES = ("cache:write", "journal:append")
#: Kill points inside the runner's work, beyond the commit steps.
RUNNER_SITES = ("matcher:*", "sweep:Ds5")
SERVE_SOURCES = load_source_pair("dblp_scholar", 0.15)


def _runner(state: Path):
    config = RunnerConfig(scale=0.3, seed=0, cache_dir=state)
    argv = ["table4", "--datasets", "Ds5", "--scale", "0.3", "--cache", str(state)]
    return argv, "", lambda: sweep_state(ExperimentRunner(config), ("Ds5",))


def _serve(state: Path):
    argv = ["serve", "dblp_scholar", "--scale", "0.15", "--k", "3", "--blocker",
            "lsh", "--state", str(state), "--snapshot-every", "1"]
    requests = [
        {"op": "add", "id": f"a{i}", "records": [{
            "record_id": f"crash_{i}", "source": r.source, "values": dict(r.values),
        }]}
        for i, r in enumerate(SERVE_SOURCES.right.records()[:3])
    ] + [{"op": "shutdown"}]

    def answers():
        session = MatcherSession.load(state / SERVE_STATE.manifest)
        probes = SERVE_SOURCES.left.records()[:5]
        return len(session), [session.query(p, 3).to_dict() for p in probes]

    return argv, "".join(json.dumps(r) + "\n" for r in requests), answers


def _scale(state: Path):
    out = state.with_suffix(".json")
    argv = ["scale-up", "Ds2", "--records", "800", "--shard-size", "150",
            "--cache", "", "--state", str(state), "--out", str(out)]
    return argv, "", lambda: json.loads(out.read_text(encoding="utf-8"))


def _scale_head_start(state: Path) -> None:
    """Journal the fit and two shards, so the kill lands mid-sweep."""
    config = ScaleConfig(dataset_id="Ds2", records=800, shard_size=150)
    ShardedSweep(config, cache_dir=state).run(max_shards=2)


#: name -> (state dir -> (argv, stdin, final-state reader), preparation).
USERS = {
    "runner": (_runner, None),
    "serve": (_serve, None),
    "scale": (_scale, _scale_head_start),
}


def _resume(argv, stdin, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 0


@pytest.fixture(scope="module")
def controls(tmp_path_factory):
    """Each user's final state after one uninterrupted run."""
    states = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name, (user, _) in USERS.items():
            argv, stdin, final_state = user(tmp_path_factory.mktemp(name) / "s")
            _resume(argv, stdin, monkeypatch)
            states[name] = final_state()
    return states


CASES = [(name, site) for site in SITES for name in USERS] + [
    ("runner", site) for site in RUNNER_SITES
]


@pytest.mark.parametrize(("name", "site"), CASES)
def test_kill_doctor_resume_matches_control(
    name, site, controls, tmp_path, monkeypatch, capsys
):
    user, prepare = USERS[name]
    state = tmp_path / "state"
    argv, stdin, final_state = user(state)
    if prepare is not None:
        prepare(state)
    path = [str(Path(repro.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    killed = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--inject", f"{site}=kill"],
        input=stdin, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert killed.returncode == -signal.SIGKILL, killed.stderr[-2000:]

    # The dead child's lease (at least) must show up, be repaired, and
    # leave a directory that audits clean.
    assert main(["doctor", "--check", "--cache", str(state)]) == 1
    assert main(["doctor", "--cache", str(state)]) == 0
    assert main(["doctor", "--check", "--cache", str(state)]) == 0
    capsys.readouterr()

    _resume(argv, stdin, monkeypatch)
    assert final_state() == controls[name]
