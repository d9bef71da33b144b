"""The repo benchmark's traced surface resolves against ``src/``.

``perfbench/run.py --trace 1`` rebinds the module attributes listed by
``perfbench.layers.bindings`` for the length of a traced cycle.  A
refactor that renames or deletes one of them must fail here rather than
crash a traced benchmark run.  Each ``(module, attribute)`` pair is
looked up the way ``perfbench.tracing.patched`` walks it; nothing is
rebound.
"""

import importlib

import pytest

from perfbench.layers import bindings
from perfbench.tracing import Tracer

TRACED = [(module, attr) for module, attr, _ in bindings(Tracer())]


@pytest.mark.parametrize(
    "module_name, attr", TRACED, ids=[f"{m}:{a}" for m, a in TRACED]
)
def test_traced_binding_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, leaf))
