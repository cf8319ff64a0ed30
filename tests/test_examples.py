"""Smoke tests for the runnable examples.

Every example must at least be importable (valid syntax, resolvable imports,
a ``main`` entry point).  The quickest examples are additionally executed end
to end (quickstart at a reduced dataset scale) so the documented user
journeys are exercised in CI without making the suite slow.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_example(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamplesStructure:
    def test_examples_directory_has_at_least_quickstart_plus_domain_scenarios(self):
        names = {path.stem for path in EXAMPLE_FILES}
        assert "quickstart" in names
        assert len(names) >= 4

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_imports_and_exposes_main(self, path):
        module = load_example(path)
        assert callable(getattr(module, "main", None)), f"{path.name} has no main()"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_has_module_docstring_with_run_instructions(self, path):
        source = path.read_text()
        assert source.lstrip().startswith('"""')
        assert f"examples/{path.name}" in source


class TestQuickstartRuns:
    def test_quickstart_executes(self, capsys, monkeypatch):
        import repro.datasets.registry as registry

        original = registry.load_dataset
        monkeypatch.setattr(
            registry, "load_dataset", lambda name, scale=1.0, seed=None: original(name, scale=0.05, seed=seed)
        )
        module = load_example(EXAMPLES_DIR / "quickstart.py")
        monkeypatch.setattr(module, "load_dataset", registry.load_dataset, raising=False)
        module.main()
        output = capsys.readouterr().out
        assert "GSS" in output


class TestDistributedPartitionRuns:
    def test_distributed_partition_executes(self, capsys):
        load_example(EXAMPLES_DIR / "distributed_partition.py").main()
        output = capsys.readouterr().out
        assert "4 shards of width" in output
        assert "500/500 merged answers cover the monolithic estimate" in output
