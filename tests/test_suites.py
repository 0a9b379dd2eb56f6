"""Golden test of the verification check list.

A small configuration runs every suite; the test pins, entry by entry and in
order, each check's name, parameters (floats at relative 1e-12), tolerance,
verdict and error type against ``data/suite_checks_golden.json``.  The
configuration covers the alpha = -1/2 classical entry, PoleError entries at
integer alpha (among them continuous_diagonal_consistency entries with no
"value" parameter) and DimensionError entries of the algebra relations that
need dim >= 5.

When the check list changes on purpose, rewrite the fixture with
``PYTHONPATH=src python tests/test_suites.py``.
"""

import json
import math
from pathlib import Path

import pytest

from qlab import SuiteConfig, run_suite
from qlab.suites import _monomial_lattice

FIXTURE = Path(__file__).parent / "data" / "suite_checks_golden.json"
CONFIG = SuiteConfig(q_values=(0.5,), alpha_values=(-0.5, 1.0), n_max=2, dim=4)


def _entries() -> list[dict]:
    return [{"name": r.name, "params": r.params, "tolerance": r.tolerance,
             "pass": r.passed,
             "error": r.error.split(":", 1)[0] if r.error else None}
            for r in run_suite(CONFIG, tool_version="golden").results]


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0)
    return type(got) is type(want) and got == want


@pytest.fixture(scope="module")
def checks():
    return _entries(), json.loads(FIXTURE.read_text())


def test_check_list_matches_golden(checks):
    got, want = checks
    assert len(got) == len(want) == 314
    for i, (g, w) in enumerate(zip(got, want)):
        assert (g["name"], g["pass"], g["error"]) == (w["name"], w["pass"], w["error"]), i
        assert _same(g["tolerance"], w["tolerance"]), (i, g["name"])
        assert list(g["params"]) == list(w["params"]), (i, g["name"])
        for key, value in w["params"].items():
            assert _same(g["params"][key], value), (i, g["name"], key)


def test_golden_covers_error_and_classical_entries(checks):
    _, want = checks
    errors = {w["error"] for w in want}
    assert {"PoleError", "DimensionError"} <= errors
    diag = [w for w in want if w["name"] == "continuous_diagonal_consistency"]
    assert any(w["error"] == "PoleError" and "value" not in w["params"] for w in diag)
    assert any(w["name"] == "continuous_unit_diagonal_classical" for w in want)


def test_qcalculus_where_lattice_points_and_products_leave_double_range():
    # at q = 1e-30, x q^11 rounds to 0 for both monomial points: the checks
    # share one order-12 lattice per (n, x), and only the 12th power raises;
    # two of the 50 addition triples overflow their products, whose NaN
    # residual max() used to drop, passing the check at 3.1e-14
    cfg = SuiteConfig(suite="qcalculus", q_values=(1e-30,), alpha_values=(0.25,), n_max=12)
    results = run_suite(cfg, tool_version="edge").results
    mono = [r for r in results if r.name == "monomial_delta_rule"]
    assert len(mono) == 182
    assert [(r.params["n"], r.params["k"], r.error.split(":")[0])
            for r in mono if r.error] == [(12, 12, "DomainError")] * 2
    (addition,) = [r for r in results if r.name == "qnumber_addition_identity"]
    assert addition.error.startswith("DomainError") and not addition.passed


def test_qcalculus_builds_one_lattice_per_monomial_and_point():
    # n <= 8 and two points: 18 lattices serve the 90 monomial entries of a context
    _monomial_lattice.cache_clear()
    run_suite(SuiteConfig(suite="qcalculus", alpha_values=(0.25,)), tool_version="cache")
    info = _monomial_lattice.cache_info()
    assert (info.misses, info.hits) == (3 * 18, 3 * (90 - 18))


@pytest.mark.parametrize("suite, q, name", [
    # E_q(1.2) is about 4e3 here, where 1e-12 absolute is about one ulp
    ("special_functions", 0.8857785446834403, "qexp_big_product_vs_series"),
    # both sides of the bridge grow like q^(-x/2), about 2.5e29 at x = 7.3
    ("qcalculus", 1e-8, "sym_qnumber_bridge"),
])
def test_series_checks_are_relative_to_their_scale(suite, q, name):
    cfg = SuiteConfig(suite=suite, q_values=(q,), alpha_values=(0.25,), n_max=1)
    results = [r for r in run_suite(cfg, tool_version="edge").results if r.name == name]
    assert results and all(r.passed for r in results)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(_entries(), indent=1) + "\n")
