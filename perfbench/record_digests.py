"""Write ``expected_digests.json``: the outputs the correctness checks compare with.

Usage (from the repository root)::

    python3 perfbench/record_digests.py

Keys name inputs only, never the program's version:

* ``audit:<dataset>`` — the per-matcher ``[precision, recall, f1,
  degraded]`` of a cold audit (experiment seed 0), recorded with the
  datasets in both orders, which must agree;
* ``scale:<sweep seed>`` — ``ScaleReport.state()`` of the scale-shards
  sweep for every sweep seed a run can draw.

Rerun it only for a change that is meant to move these outputs; the
file's diff then shows which ones moved.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import audit
import scale
from harness import ExpectedDigests, digest_of


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("record_digests: run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from repro.scale import ShardedSweep

    work = root / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    digests: dict[str, str] = {}
    ctx = SimpleNamespace(root=root)
    for index, order in enumerate((list(audit.DATASETS), list(reversed(audit.DATASETS)))):
        scores = audit.spawn(ctx, work / f"audit{index}", order)["scores"]
        for dataset_id in order:
            digest = digest_of(scores[dataset_id])
            key = f"audit:{dataset_id}"
            if digests.setdefault(key, digest) != digest:
                raise SystemExit(f"{key}: the digest depends on the dataset order")
    for seed in range(scale.SWEEP_SEEDS):
        report = ShardedSweep(scale.config_for(seed), cache_dir=work / f"scale{seed}").run()
        digests[f"scale:{seed}"] = digest_of(report.state())
        print(f"scale:{seed} {digests[f'scale:{seed}']}", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    ExpectedDigests.PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {ExpectedDigests.PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
