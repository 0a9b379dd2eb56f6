"""Layering: the numeric modules import nothing from the report, suite or CLI
layers, which are built on them."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import qlab
from qlab import context, qcore, report

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


def _readers(source: str, names: set[str]) -> set[str]:
    """The top-level definitions of source that read one of names: by name, as
    a module attribute or by importing it."""
    owners = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Name) and node.id in names
                 and isinstance(node.ctx, ast.Load))
                    or (isinstance(node, ast.Attribute) and node.attr in names)
                    or (isinstance(node, ast.alias) and node.name in names)):
                owners.add(getattr(top, "name", "<module>"))
    return owners


def _qlab_readers(names: set[str]) -> set[tuple[str, str]]:
    # (module, top-level definition) of every reader of names in qlab
    return {(path.stem, owner) for path in _modules()
            for owner in _readers(path.read_text(), names)}


#: the quadrature rules of the node table
QUADRATURE_RULES = {"_GAUSS_LEGENDRE", "_gauss_legendre", "_gauss_jacobi"}


def test_scanner_sees_readers():
    source = ("from .qhermite import _gauss_jacobi\n_GAUSS_LEGENDRE = rules()\n\n"
              "def _gauss_jacobi(k):\n    return k\n\n"
              "def f():\n    return _GAUSS_LEGENDRE\n\n"
              "def g():\n    return qhermite._gauss_jacobi(20)\n")
    assert _readers(source, QUADRATURE_RULES) == {"<module>", "f", "g"}
    assert _readers("_GAUSS_LEGENDRE = rules()\n", QUADRATURE_RULES) == set()


def test_only_the_product_and_the_sums_read_max_terms():
    # one ceiling, read where a product, a series and the Jackson walk are formed, nowhere else;
    # the Bessel transform's outward terms are a series grown point by point, so
    # its integrand reads the series' ceiling
    assert _qlab_readers({"MAX_TERMS"}) == {("qcore", "_qpoch_inf_product"),
                                            ("qcore", "_sum_series"),
                                            ("qcore", "_jackson_walk"),
                                            ("qhermite", "_lattice_bessel")}


def test_no_lattice_window():
    # a Jackson sum takes its extent from its terms, the discrete table from q,
    # alpha and the degree: no module keeps or reads a global window
    assert _qlab_readers({"LATTICE_LO", "LATTICE_HI"}) == set()
    assert not {"LATTICE_LO", "LATTICE_HI"} & set(vars(context))


def test_only_the_suite_runner_runs_checks():
    # every suite yields rows, and one runner turns each into a CheckResult
    assert _qlab_readers({"_checked"}) == {("suites", "_runner")}


def test_only_the_node_table_reads_the_quadrature_rules():
    # one quadrature path: every quadrature integral is a sum over _piecewise_quad's table
    assert _qlab_readers(QUADRATURE_RULES) == {("qhermite", "_piecewise_quad")}


def test_the_orthogonality_reads_gram_matrices_not_jackson_sums():
    # both orthogonality relations read one Gram path over their node tables;
    # a per-entry Jackson sum is left to the moments and the Bessel transform
    def readers(names):
        return {found for found in _qlab_readers(names) if found[1] != "<module>"}

    assert readers({"_enveloped_jackson"}) == {("qhermite", "moment_check"),
                                               ("qhermite", "_bessel_transform"),
                                               ("qhermite", "_continued_halfline")}
    assert readers({"_gram"}) == {("qhermite", "continuous_orthogonality"),
                                  ("qhermite", "discrete_orthogonality_residual")}
    assert readers({"_log_rows"}) == {("qhermite", "_gram"), ("qhermite", "_auto_cutoff"),
                                      ("qoscillator", "phi"),
                                      ("qoscillator", "selfadjoint_residual")}


def test_one_quadrature_table_and_one_jackson_sum():
    # the continuous relations read _piecewise_quad's table, and the discrete lattice
    # takes its far end from the same cutoff; the line's Jackson sum is the half-line
    # one of f(x) + f(-x), and
    # the first q-difference of j_alpha is bessel_delta_residual's odd order at n = 0
    def readers(names):
        return {found for found in _qlab_readers(names) if found[1] != "<module>"}

    assert readers({"_piecewise_quad"}) == {("qhermite", "continuous_orthogonality"),
                                            ("qoscillator", "selfadjoint_residual")}
    assert _qlab_readers({"_auto_cutoff"}) == {("qhermite", "_piecewise_quad"),
                                               ("qhermite", "_jackson_nodes")}
    assert _qlab_readers({"qderiv"}) == {("__init__", "<module>")}  # its export alone
    assert list(inspect.signature(qcore.jackson_integral).parameters) == ["f", "ctx"]


#: the Jackson sums, and the products an integrand would re-form at every lattice point
JACKSON_ENTRIES = {"jackson_integral", "_enveloped_jackson"}
PER_POINT_PRODUCTS = {"qexp_small", "_qpoch_inf"}


def _integrands_reading(source: str, names: set[str]) -> set[str]:
    """The top-level definitions of source that read a Jackson entry and hold a
    nested function or lambda that reads one of names."""
    owners = set()
    for top in ast.parse(source).body:
        if not _readers(ast.unparse(top), JACKSON_ENTRIES):
            continue
        for node in ast.walk(top):
            if (node is not top and isinstance(node, (ast.FunctionDef, ast.Lambda))
                    and _readers(ast.unparse(node), names)):
                owners.add(top.name)
    return owners


def test_scanner_sees_integrands():
    source = ("def m(ctx):\n    return _enveloped_jackson(lambda y: qexp_small(y, 0.5), ctx)\n\n"
              "def b(ctx):\n    def g(y):\n        return _qpoch_inf(-y, 0.25).value\n"
              "    return jackson_integral(g, ctx)\n\n"
              "def c(ctx):\n    return qexp_small(0.5, 0.25)\n")
    assert _integrands_reading(source, PER_POINT_PRODUCTS) == {"m", "b"}


def test_one_jackson_walk():
    # jackson_integral and the enveloped sum are the one walk; every sum in qhermite is
    # enveloped, and none of its integrands re-forms a product at each lattice point
    def readers(names):
        return {found for found in _qlab_readers(names) if found[1] != "<module>"}

    assert readers({"_jackson_walk"}) == {("qcore", "jackson_integral"),
                                          ("qcore", "_enveloped_jackson")}
    assert _qlab_readers({"jackson_integral"}) == {("__init__", "<module>")}  # its export alone
    source = Path(qlab.__file__).with_name("qhermite.py").read_text()
    assert _integrands_reading(source, PER_POINT_PRODUCTS) == set()


def test_the_wave_functions_read_the_walk_not_the_explicit_sum():
    # phi forms h_n by the three-term recurrence; the explicit sum and its
    # q-Laguerre form serve hermite_h and the identities that check it
    explicit = {"hermite_h", "hermite_via_laguerre", "qlaguerre"}
    assert "qoscillator" not in {module for module, _ in _qlab_readers(explicit)}
    assert ("qoscillator", "phi") in _qlab_readers({"_scaled_walk"})


def _lru_cached(source: str) -> set[str]:
    """The names source binds to an lru_cache: a decorated definition, or an
    assignment of lru_cache(...)(fn)."""
    def is_lru(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None)) == "lru_cache"

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and any(map(is_lru, node.decorator_list)):
            found.add(node.name)
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and is_lru(node.value.func)):
            found.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return found


def test_scanner_sees_lru_caches():
    source = ("@lru_cache(maxsize=2)\ndef f(x):\n    return x\n\n"
              "@functools.lru_cache\ndef g(x):\n    return x\n\n"
              "h = lru_cache(maxsize=8)(f)\nk = f(1)\n")
    assert _lru_cached(source) == {"f", "g", "h"}


def test_one_caching_policy():
    # every cache is a bounded lru_cache over scalar keys (floats, ints, contexts,
    # functions): none is keyed on an array's contents
    cached = {(path.stem, name) for path in _modules() for name in _lru_cached(path.read_text())}
    assert cached == {("cli", "_parser"), ("qcore", "_qpoch_inf_cached"),
                      ("qcore", "_factorials"), ("qcore", "_row"),
                      ("qhermite", "norm_constant"),
                      ("qhermite", "_auto_cutoff"), ("qhermite", "_gauss_jacobi"),
                      ("qhermite", "_gram"), ("qhermite", "_generating_cached"),
                      ("qhermite", "_piecewise_quad"),
                      ("qoscillator", "_operator_matrices"), ("suites", "_monomial_lattice")}
    for module, name in cached:
        assert getattr(importlib.import_module(f"qlab.{module}"), name).cache_info().maxsize


def test_one_renderer_shape():
    # csv_records takes rendered rows only, and a report renders each repeated text
    # through one memo type: no second memo, no rendered or quoted switch
    assert [*inspect.signature(report.csv_records).parameters] == ["header", "rows"]
    tree = ast.parse(Path(report.__file__).read_text())
    top = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    memos = [node.name for node in tree.body if isinstance(node, ast.ClassDef)
             and any(getattr(base, "id", None) == "dict" for base in node.bases)]
    assert memos == ["_Memo"]
    assert not top & {"_ParamItems", "_once", "_number", "_csv_line"}
    params = {a.arg for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for a in node.args.args + node.args.kwonlyargs}
    assert not params & {"quoted", "rendered"}


def _numpy_random_reads(source: str) -> list[str]:
    """The lines of source that read numpy.random: as np.random or
    numpy.random, or by importing it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr == "random" and getattr(node.value, "id", None) in {"np", "numpy"}
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.random") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(a.name == "random" for a in node.names))
        else:
            continue
        if hit:
            found.append(ast.unparse(node))
    return found


def test_scanner_sees_numpy_random_reads():
    source = ("import numpy as np\nimport numpy.random\nfrom numpy import random\n"
              "from numpy.random import default_rng\nimport random\n"
              "np.random.default_rng(0)\nrandom.Random(0)\n")
    assert _numpy_random_reads(source) == ["import numpy.random", "from numpy import random",
                                           "from numpy.random import default_rng",
                                           "np.random"]


@pytest.mark.parametrize("path", _modules(), ids=lambda p: p.stem)
def test_no_module_reads_numpy_random(path):
    # the addition triples come from the standard library's random.Random;
    # importing numpy.random costs a run several MB of resident memory
    assert _numpy_random_reads(path.read_text()) == []


_FOOTPRINT = """
import sys
sys.path.insert(0, sys.argv[1])
import qlab

def loaded():
    return sorted(m for m in ("numpy.random", "numpy.polynomial") if m in sys.modules)

print(loaded())
for suite in ("qcalculus", "special_functions", "hermite_identities", "kernels"):
    cfg = qlab.SuiteConfig(suite=suite, q_values=(0.5,), alpha_values=(0.25,), n_max=2)
    qlab.run_suite(cfg, tool_version="footprint")
print(loaded())
qlab.continuous_orthogonality(0, 1, qlab.QContext(q=0.5, alpha=0.25))
print(loaded())
"""


def test_series_runs_load_neither_numpy_random_nor_polynomial():
    # a fresh interpreter: import qlab, the series-only suites and a quadrature
    # load neither module; the quadrature builds its rules by Golub-Welsch
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT,
                           str(Path(qlab.__file__).parent.parent)],
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.splitlines() == ["[]", "[]", "[]"]


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


OVERFLOW_ERRORS = {"OverflowError", "ZeroDivisionError"}


def _overflow_handlers(source: str) -> set[str]:
    """The top-level definitions of source with an except clause naming
    OverflowError or ZeroDivisionError."""
    owners = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if {getattr(c, "id", None) for c in caught} & OVERFLOW_ERRORS:
                    owners.add(getattr(top, "name", "<module>"))
    return owners


def test_scanner_sees_overflow_handlers():
    source = ("def f():\n    try:\n        pass\n    except (ValueError, ZeroDivisionError):\n"
              "        pass\n\ndef g():\n    try:\n        pass\n    except OverflowError:\n"
              "        pass\n\ndef h():\n    try:\n        pass\n    except ValueError:\n"
              "        pass\n")
    assert _overflow_handlers(source) == {"f", "g"}


def test_only_qcore_maps_overflow():
    # the guard of the public functions, and the two handlers whose messages
    # name a series or a lattice point
    owners = {(path.stem, owner) for path in _modules()
              for owner in _overflow_handlers(path.read_text())}
    assert owners == {("qcore", "_guarded"), ("qcore", "_sum_series"),
                      ("qcore", "_jackson_walk")}


def _points_functions() -> dict[str, object]:
    """name -> function, of the public functions of the numeric modules with a
    parameter annotated Points."""
    found = {}
    for name in NUMERIC:
        module = importlib.import_module(f"qlab.{name}")
        for attr, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                    and any(p.annotation == qcore.Points for p in
                            inspect.signature(fn, eval_str=True).parameters.values())):
                found[attr] = fn
    return found


def test_every_points_function_is_guarded():
    found = _points_functions()
    assert {"hermite_h", "hermite_h_scaled", "weight", "phi", "eigen_residual",
            "relation_residual", "qbessel", "qexp_gen"} <= found.keys()
    guard = qcore._guarded(lambda: None).__code__
    assert [name for name, fn in found.items() if fn.__code__ is not guard] == []
