"""Layering: the numeric modules import nothing from the report, suite or CLI
layers, which are built on them."""

import ast
from pathlib import Path

import pytest

import qlab

NUMERIC = ("qcore", "qfunctions", "qhermite", "qoscillator")
UPPER = {"report", "suites", "cli"}


def _qlab_imports(module: str) -> set[str]:
    """The qlab submodules that module's import statements name, at any depth
    of its syntax tree."""
    tree = ast.parse(Path(qlab.__file__).with_name(module + ".py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "qlab." + base if base else "qlab"
            # from qlab import report, or from . import report
            names = [f"{base}.{a.name}" for a in node.names] if base == "qlab" else [base]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("qlab."))
    return found


@pytest.mark.parametrize("module", NUMERIC)
def test_numeric_module_imports_no_upper_layer(module):
    assert not _qlab_imports(module) & UPPER


def test_scanner_sees_relative_imports():
    assert {"report", "qhermite", "context"} <= _qlab_imports("suites")
    assert "context" in _qlab_imports("qcore")
