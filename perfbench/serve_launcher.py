"""Run ``python -m repro serve ...`` with the layer wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS_OUT -- serve ARGS...``

The traced serve-mix run starts the server through this launcher instead
of ``python -m repro``: it wraps each layer's entry points
(:func:`tracing.install_layers`), hands the remaining arguments to
``repro.experiments.cli.main`` unchanged, and writes the recorded spans
to ``SPANS_OUT`` once the server has drained and returned.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install_layers


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: serve_launcher.py SPANS_OUT -- serve ARGS...", file=sys.stderr)
        return 2
    spans_out, cli_args = argv[0], argv[2:]
    from repro.experiments import cli

    tracer = Tracer()
    install_layers(tracer)
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
