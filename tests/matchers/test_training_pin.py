"""Pinned bytes of every trained deep head and of the DeepBlocker autoencoder.

The committed audit digests compare only precision, recall and F1, which
can survive a last-bit drift in trained weights. These pins cannot: each
deep network of the roster, at both epoch budgets on the CI-scale Ds1
task, must export the same parameter bytes, validation-F1 history, test
predictions and test scores; an MLP trained without a validation set
must end on the same parameters; ``LinearAutoencoder.fit`` must learn the
same weights on a fixed matrix; and ``DeepBlocker`` must return the same
similarities and candidates. A speed-up of the training code has to keep
every one of them.

The heads train in two child interpreters with different
``PYTHONHASHSEED`` values, and both must match the pins: the lexical
evidence of DITTO, EMTransformer and GNEM sums floats over sets of
tokens, whose iteration order follows the string-hash seed, so a sum
that depended on that order would show here.

``PYTHONPATH=src python tests/matchers/test_training_pin.py`` prints the
head digests of the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.blocking.autoencoder import LinearAutoencoder
from repro.blocking.deepblocker import DeepBlockerIndex
from repro.datasets.registry import load_established_task
from repro.experiments.matcher_suite import build_suite, family_of
from repro.ml.mlp import MLPClassifier


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()[:16]


def _json_sha(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


#: matcher -> (head parameter bytes, validation-F1 history, test
#: predictions, test scores), each a sha256 prefix.
_HEAD_DIGESTS = {
    "DITTO (15)": (
        "a2560d6b576302a0",
        "0c55a6444a27e712",
        "63596f23d174120f",
        "718ee7ed313e41fe",
    ),
    "DITTO (40)": (
        "a2560d6b576302a0",
        "4a41a7537751daa4",
        "63596f23d174120f",
        "718ee7ed313e41fe",
    ),
    "DeepMatcher (15)": (
        "ee5d8b52e3aef93f",
        "9387207bd27f6c33",
        "c9b4b59a394294a3",
        "b9356672bf6b98d3",
    ),
    "DeepMatcher (40)": (
        "ee5d8b52e3aef93f",
        "1bb23dc1785b5651",
        "c9b4b59a394294a3",
        "b9356672bf6b98d3",
    ),
    "EMTransformer-B (15)": (
        "ae5a1374b3b9c523",
        "34a2f5a2ec94ed3f",
        "63596f23d174120f",
        "bb383089b688ac34",
    ),
    "EMTransformer-B (40)": (
        "ae5a1374b3b9c523",
        "982c1424107495eb",
        "63596f23d174120f",
        "bb383089b688ac34",
    ),
    "EMTransformer-R (15)": (
        "38ac12268e1cb905",
        "7ddb5b83a31b44b7",
        "63596f23d174120f",
        "7fb2cc05309eddce",
    ),
    "EMTransformer-R (40)": (
        "38ac12268e1cb905",
        "b959760a8746b9e6",
        "63596f23d174120f",
        "7fb2cc05309eddce",
    ),
    "GNEM (10)": (
        "e188c604bfed584d",
        "484de9c35a518ba7",
        "63596f23d174120f",
        "625fc08c9d05fbf8",
    ),
    "GNEM (40)": (
        "e188c604bfed584d",
        "a090586d94083908",
        "63596f23d174120f",
        "625fc08c9d05fbf8",
    ),
    "HierMatcher (10)": (
        "9bea2d2db204907e",
        "f99fda0a9527a1c0",
        "63596f23d174120f",
        "014eb339e1f46768",
    ),
    "HierMatcher (40)": (
        "9bea2d2db204907e",
        "eb14664092db7393",
        "63596f23d174120f",
        "014eb339e1f46768",
    ),
}

_MLP_DIGEST = "6cd233cfc90938a5"
_AUTOENCODER_DIGEST = "130ea81a4ce24347"
_AUTOENCODER_ERROR = "0x1.34ecf149ef5fcp-1"
_DEEPBLOCKER_DIGEST = (360, "23cee91ccda616c4", "a25fb8fc191c54e9")


def _train_heads() -> dict[str, list[str]]:
    task = load_established_task("Ds1", 1.0)
    digests = {}
    for matcher in build_suite(task):
        if family_of(matcher.name) != "dl":
            continue
        matcher.fit(task)
        head = matcher._head
        digests[matcher.name] = [
            _sha(*head._params),
            _json_sha([score.hex() for score in head.validation_f1_history_]),
            _json_sha(matcher.predict(task.testing).tolist()),
            _sha(matcher.decision_scores(task.testing)),
        ]
    return digests


#: String-hash seeds of the two training children.
_HASH_SEEDS = ("1", "2")


@pytest.fixture(scope="module")
def trained_heads() -> dict[str, dict[str, tuple[str, ...]]]:
    """Head digests per hash seed, from one child interpreter each."""
    children = {
        seed: subprocess.Popen(
            [sys.executable, __file__],
            env=dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            ),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in _HASH_SEEDS
    }
    heads = {}
    for seed, child in children.items():
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        digests = json.loads(stdout.splitlines()[-1])
        heads[seed] = {name: tuple(d) for name, d in digests.items()}
    return heads


def test_every_deep_head_is_pinned(trained_heads):
    for heads in trained_heads.values():
        assert sorted(heads) == sorted(_HEAD_DIGESTS)


@pytest.mark.parametrize("name", sorted(_HEAD_DIGESTS))
def test_deep_head(trained_heads, name):
    for seed, heads in trained_heads.items():
        assert heads[name] == _HEAD_DIGESTS[name], f"PYTHONHASHSEED={seed}"


def test_mlp_final_parameters():
    # No validation set: the export is the last step's parameters, so every
    # one of the 40 epochs' Adam steps shows in the bytes.
    rng = np.random.default_rng(11)
    features = rng.normal(size=(300, 10))
    labels = (features[:, 0] * features[:, 1] > 0).astype(np.int64)
    model = MLPClassifier(hidden_size=16, epochs=40, seed=2).fit(features, labels)
    assert _sha(*model._params) == _MLP_DIGEST


def test_linear_autoencoder_weights():
    matrix = np.random.default_rng(5).normal(size=(120, 24))
    model = LinearAutoencoder(encoding_dim=8, epochs=60, seed=3).fit(matrix)
    assert _sha(
        model._encoder, model._encoder_bias, model._decoder, model._decoder_bias
    ) == _AUTOENCODER_DIGEST
    assert model.reconstruction_error_.hex() == _AUTOENCODER_ERROR


def test_deepblocker_candidates(small_sources):
    index = DeepBlockerIndex(small_sources, seed=1)
    candidates = sorted(index.candidates(3, False))
    assert (
        len(candidates),
        _sha(index.similarities),
        _json_sha([list(pair) for pair in candidates]),
    ) == _DEEPBLOCKER_DIGEST


if __name__ == "__main__":
    print(json.dumps(_train_heads()))
