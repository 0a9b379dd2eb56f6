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


def _modules():
    return sorted(Path(qlab.__file__).parent.glob("*.py"))


def test_only_the_product_and_the_series_sum_read_max_terms():
    # one ceiling, read where a product and a series are formed, nowhere else
    readers = set()
    for path in _modules():
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if ((isinstance(node, ast.Name) and node.id == "MAX_TERMS"
                     and isinstance(node.ctx, ast.Load))
                        or (isinstance(node, ast.Attribute) and node.attr == "MAX_TERMS")
                        or (isinstance(node, ast.alias) and node.name == "MAX_TERMS")):
                    readers.add((path.stem, owner))
    assert readers == {("qcore", "_qpoch_inf_product"), ("qcore", "_sum_series")}


#: what forms finite q-shifted factorials: the table of qcore, and the product it extends
FACTORIAL_FORMERS = {"_qpoch", "_Factorials"}


def _names_read(source: str, names: set[str]) -> set[str]:
    """Those of names that source imports or reads as a module attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias) and node.name in names:
            found.add(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.add(node.attr)
    return found


def test_scanner_sees_factorial_formers():
    source = "from .qcore import _qpoch, qpoch\nqcore._Factorials(0.5, 0.25)\n"
    assert _names_read(source, FACTORIAL_FORMERS) == FACTORIAL_FORMERS


@pytest.mark.parametrize("path", [p for p in _modules() if p.stem != "qcore"],
                         ids=lambda p: p.stem)
def test_only_qcore_forms_finite_factorials(path):
    # the others read them from the cached table (_factorials) or qcore's public functions
    assert not _names_read(path.read_text(), FACTORIAL_FORMERS)


def _unused_imports(source: str) -> list[str]:
    """The names source's import statements bind that nothing else in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_scanner_sees_unused_imports():
    assert _unused_imports("import math\nfrom a import b, c as d\nd(math.pi)\n") == ["b"]


@pytest.mark.parametrize("path", [p for p in _modules() if p.stem != "__init__"],
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []
