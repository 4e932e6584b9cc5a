"""The program's own layer spans agree with perfbench's outside tracer.

``perfbench/tracing.py`` wraps each layer's entry points from outside the
program (``install_layers``) and stays the oracle for the layer split.
In a child process with the oracle installed, an ``audit`` and a 2-shard
``scale-up`` write their own spans to ``<cache>/trace.jsonl``; the self
seconds per layer rolled up from that file must match the oracle's
``layer_times`` for every layer the oracle saw at work.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.obs import TRACE_FILE_NAME, read_trace, self_times

ROOT = Path(__file__).resolve().parents[2]

#: Allowed gap per layer: 10% of the oracle's seconds plus 20 ms. The
#: program's span opens inside the wrapped call, so the oracle alone
#: also counts the call's own set-up, the span's trace-file line and a
#: cached dataset lookup (which opens no span).
RELATIVE = 0.10
ABSOLUTE_S = 0.020

#: Layers both commands must exercise for the comparison to mean much.
EXPECTED_LAYERS = (
    "datasets.generate",
    "datasets.shard_generate",
    "matchers.dl_fit",
    "matchers.ml_fit",
    "matchers.linear_fit",
    "matchers.predict",
    "text.extract",
    "blocking.candidates",
    "runtime.persist",
)

CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.experiments import cli
from tracing import LAYER_TIMES, Tracer, install_layers, layer_times
tracer = Tracer()
install_layers(tracer)
cache = sys.argv[2]
assert cli.main(["audit", "Ds5", "--scale", "0.3", "--cache", cache]) == 0
assert cli.main(["scale-up", "Ds2", "--records", "2400", "--shard-size",
                 "1200", "--cache", cache]) == 0
with open(sys.argv[3], "w", encoding="utf-8") as handle:
    json.dump({"names": LAYER_TIMES, "oracle": layer_times(tracer.spans)}, handle)
"""


def test_layer_self_times_agree_with_the_outside_tracer(tmp_path):
    cache = tmp_path / "cache"
    result_path = tmp_path / "oracle.json"
    subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"), str(cache),
         str(result_path)],
        check=True,
        capture_output=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    result = json.loads(result_path.read_text(encoding="utf-8"))
    oracle = {
        name: result["oracle"][metric] for name, metric in result["names"].items()
    }
    spans = [
        span
        for run in read_trace(cache / TRACE_FILE_NAME).values()
        for span in run
    ]
    assert {span.attributes.get("dataset") for span in spans} >= {"Ds5", "Ds2"}
    program = {name: seconds for name, __, seconds in self_times(spans)}

    for name in EXPECTED_LAYERS:
        assert oracle[name] > 0.0, f"the oracle never saw {name}"
    for name, seconds in oracle.items():
        if seconds <= 0.0:
            continue
        ours = program.get(name, 0.0)
        assert abs(ours - seconds) <= RELATIVE * seconds + ABSOLUTE_S, (
            f"{name}: program {ours:.4f} s, outside tracer {seconds:.4f} s"
        )
