"""Million-record scale mode: streaming sharded sweeps (DESIGN.md §13).

``repro scale-up`` scales one established benchmark's shape to an
arbitrary record count and runs blocking + matching shard-by-shard: no
phase ever holds more than one shard of records, features or candidates
in memory, per-shard counts checkpoint through the runtime journal, and
the final PC/PQ/F1 is an exact reduction over journaled integers.
"""

from repro.scale.config import (
    SCALE_BLOCKER_SPECS,
    SCALE_MATCHER_VARIANTS,
    ScaleConfig,
    scale_profile,
)
from repro.scale.sweep import (
    SCALE_REPORT_NAME,
    ScaleReport,
    ShardedSweep,
    ShardStats,
    config_fingerprint,
    run_scale_sweep,
)

__all__ = [
    "SCALE_BLOCKER_SPECS",
    "SCALE_MATCHER_VARIANTS",
    "SCALE_REPORT_NAME",
    "ScaleConfig",
    "ScaleReport",
    "ShardedSweep",
    "ShardStats",
    "config_fingerprint",
    "run_scale_sweep",
    "scale_profile",
]
