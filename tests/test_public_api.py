"""Public-API surface tests: everything README documents is importable."""

from __future__ import annotations

import importlib

import pytest


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.linearity",
            "repro.core.complexity",
            "repro.core.practical",
            "repro.core.assessment",
            "repro.core.methodology",
            "repro.core.continuum",
            "repro.core.leakage",
            "repro.data",
            "repro.datasets",
            "repro.datasets.export",
            "repro.text",
            "repro.embeddings",
            "repro.ml",
            "repro.matchers",
            "repro.matchers.deep",
            "repro.blocking",
            "repro.experiments",
            "repro.experiments.cli",
            "repro.experiments.paper_reference",
            "repro.experiments.paper_comparison",
            "repro.experiments.snapshot",
            "repro.experiments.stability",
            "repro.experiments.learning_curves",
            "repro.experiments.svg",
            "repro.obs",
            "repro.obs.metrics",
            "repro.obs.spans",
            "repro.runtime",
            "repro.runtime.registry",
        ],
    )
    def test_module_imports(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.data",
            "repro.datasets",
            "repro.text",
            "repro.embeddings",
            "repro.ml",
            "repro.matchers",
            "repro.blocking",
            "repro",
            "repro.obs",
        ],
    )
    def test_dunder_all_is_accurate(self, module):
        loaded = importlib.import_module(module)
        assert hasattr(loaded, "__all__")
        for name in loaded.__all__:
            assert hasattr(loaded, name), f"{module}.{name} missing"

    def test_readme_quickstart_names(self):
        from repro.core import assess_benchmark
        from repro.datasets import load_established_task

        assert callable(assess_benchmark)
        assert callable(load_established_task)

    def test_every_public_module_has_docstring(self):
        import pathlib

        for path in pathlib.Path("src/repro").rglob("*.py"):
            source = path.read_text()
            if path.name == "__init__.py" and not source.strip():
                continue
            first_statement = source.lstrip()
            assert first_statement.startswith(('"""', 'r"""')), path
