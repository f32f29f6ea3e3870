"""Every function the benchmark's tracer wraps still exists in the package.

``perfbench/traced_cli.py`` wraps functions by ``(module, name)`` from
outside the package; a renamed or deleted one would break only traced
benchmark runs.  The file is read, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"


def traced_targets() -> list[tuple[str, str]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["TARGETS"]:
            return [(entry.elts[0].id, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("traced_cli.py has no TARGETS list")


def test_targets_are_listed():
    assert traced_targets()


@pytest.mark.parametrize("module, name", traced_targets())
def test_traced_function_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"signedfj.{module}"), name, None))


def test_traced_method_resolves():
    # wrapped as a method, outside TARGETS
    from signedfj.solve import NetworkAnalysis

    assert callable(getattr(NetworkAnalysis, "steady_state", None))
