"""Smoke tests: every example runs end to end (at reduced scale)."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"


def load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "Schedule length" in out
        assert "Scheduling attempts" in out

    def test_compare_representations(self, capsys):
        load_example("compare_representations").main(600)
        out = capsys.readouterr().out
        assert "SuperSPARC" in out
        assert "True" in out  # same-schedule verification

    def test_transform_walkthrough(self, capsys):
        load_example("transform_walkthrough").main("PA7100", 600)
        out = capsys.readouterr().out
        assert "exact same schedule" in out
        assert "and-or-tree-sort" in out

    def test_retarget_new_processor(self, capsys):
        load_example("retarget_new_processor").main()
        out = capsys.readouterr().out
        assert "dead trees" in out
        assert "bytes recovered" in out

    def test_software_pipelining(self, capsys):
        load_example("software_pipelining").main()
        out = capsys.readouterr().out
        assert "ResMII" in out
        assert "Kernel" in out

    def test_compiler_module_queries(self, capsys):
        load_example("compiler_module_queries").main()
        out = capsys.readouterr().out
        assert "issue bandwidth" in out
        assert "over-subscribes" in out

    def test_batch_service(self, capsys):
        load_example("batch_service").main()
        out = capsys.readouterr().out
        assert "recovered output identical to clean run: True" in out
