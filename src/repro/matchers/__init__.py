"""Matching algorithms: the paper's full roster.

Three families (Section IV):

* **DL-based** (:mod:`repro.matchers.deep`) — neural stand-ins for
  DeepMatcher, EMTransformer (B/R), GNEM, DITTO and HierMatcher, each
  faithful to its taxonomy row (Table II).
* **Non-neural, non-linear ML** — :class:`MagellanMatcher` (DT/LR/RF/SVM
  heads over automatically extracted similarity features) and
  :class:`ZeroERMatcher` (unsupervised Gaussian-mixture EM).
* **Non-neural, linear** — the six ESDE variants of Algorithm 2
  (:mod:`repro.matchers.esde`).

Every matcher follows the :class:`Matcher` API: ``fit(task)`` trains on the
task's training/validation sets, ``predict(pairs)`` labels a pair set, and
``evaluate(task)`` reports test-set precision/recall/F1. ``family_of``
names a matcher's family (``"dl"`` / ``"ml"`` / ``"linear"``).
"""

from repro.matchers.base import Matcher, MatcherResult, family_of
from repro.matchers.esde import (
    ESDE_VARIANTS,
    EsdeMatcher,
    make_esde,
)
from repro.matchers.magellan import MAGELLAN_HEADS, MagellanMatcher
from repro.matchers.oracle import OracleMatcher
from repro.matchers.zeroer import ZeroERMatcher

__all__ = [
    "ESDE_VARIANTS",
    "EsdeMatcher",
    "MAGELLAN_HEADS",
    "MagellanMatcher",
    "Matcher",
    "MatcherResult",
    "OracleMatcher",
    "ZeroERMatcher",
    "family_of",
    "make_esde",
]
