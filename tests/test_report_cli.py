"""Tests for report serialization and the command-line interface."""

import csv
import inspect
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlab.cli
from qlab import (CheckResult, ConfigError, QContext, QError, SuiteConfig, TruncatedValue,
                  VerificationReport, run_suite)
from qlab.cli import REGISTRY, _parse_kv, _parser, main
from qlab.qcore import (gen_qfact, gen_qint, gen_qpoch, qnumber, qpoch, qpoch_inf,
                        sym_qnumber, theta)
from qlab.qfunctions import (BESSEL_KINDS, bessel_delta_residual, qbessel, qexp_big,
                             qexp_gen, qexp_small, qtrig)
from qlab.qhermite import (RELATION_KINDS, bessel_expansion_residual,
                           bessel_weight_transform, hermite_h, hermite_via_laguerre,
                           integral_representation_residual, moment_check,
                           moment_constant, poisson_kernel_residual, qlaguerre,
                           relation_residual, rogers_ramanujan_residual, weight)
from qlab.qoscillator import eigen_residual, phi
from qlab.report import _csv_field, csv_records

SMALL = ["--q", "0.5", "--alpha", "0.25", "--n-max", "3", "--dim", "6"]


class TestCheckResult:
    def test_verdict_from_tolerance(self):
        assert CheckResult("c", {}, 1e-10, 1e-8).passed
        assert not CheckResult("c", {}, 1e-6, 1e-8).passed

    def test_error_entry_never_passes(self):
        r = CheckResult("c", {}, math.inf, 1e-8, error="PoleError: at 1.0")
        assert not r.passed
        assert r.to_dict()["error"] == "PoleError: at 1.0"

    def test_dict_round_trip(self):
        r = CheckResult("c", {"q": 0.5, "n": 3}, 1e-10, 1e-8, terms_used=17)
        r2 = CheckResult.from_dict(r.to_dict())
        assert r2 == r


class TestVerificationReport:
    def _sample(self):
        rep = VerificationReport(tool_version="1.0.0", config={"suite": "x"})
        rep.add(CheckResult("alpha_check", {"q": 0.5}, 1e-12, 1e-8))
        rep.add(CheckResult("beta_check", {"q": 0.8, "n": 2}, 0.5, 1e-8))
        return rep

    def test_summary(self):
        rep = self._sample()
        assert rep.summary == {"total": 2, "pass": 1, "fail": 1}
        assert not rep.all_passed

    def test_json_round_trip(self):
        rep = self._sample()
        rep2 = VerificationReport.from_json(rep.to_json())
        assert rep2.config == rep.config
        assert rep2.results == rep.results

    def test_json_uses_pass_key(self):
        d = json.loads(self._sample().to_json())
        assert set(d) == {"tool_version", "config", "results", "summary"}
        assert "pass" in d["results"][0]

    def test_csv_shape(self):
        rows = list(csv.reader(io.StringIO(self._sample().to_csv())))
        assert rows[0] == ["name", "params", "residual", "tolerance", "pass"]
        assert len(rows) == 3
        assert rows[2][4] == "false"


def _reference_csv(report: VerificationReport) -> str:
    # the row-by-row writer the renderer replaced, kept as its reference
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["name", "params", "residual", "tolerance", "pass"])
    for r in report.results:
        writer.writerow([r.name, json.dumps(r.params, sort_keys=True), repr(r.residual),
                         repr(r.tolerance), str(r.passed).lower()])
    return buf.getvalue()


def _hand_made() -> VerificationReport:
    rep = VerificationReport(tool_version="1.0.0",
                             config={"suite": "x", "q_values": [0.5], "tol": math.inf})
    for residual in (math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 12345.678):
        rep.add(CheckResult("residual", {"q": 0.5, "n": 3}, residual, 1e-8))
    rep.add(CheckResult("empty", {}, 1e-12, 1e-8))
    rep.add(CheckResult("non_finite_params",
                        {"x": math.nan, "y": math.inf, "z": -math.inf, "w": -0.0}, 0.0, 1e-8))
    # the float zeros of one key in both signs, also of a float subclass, and equal
    # values of other types
    for v in (0.0, -0.0, 0.0, np.float64(0.0), np.float64(-0.0), 1, 1.0, True, False, 0,
              None, "1"):
        rep.add(CheckResult("types", {"v": v, "a": "b"}, 0.0, 1e-8))
    rep.add(CheckResult("error", {"kind": "rodrigues", "b": True, "n": 2, "none": None},
                        math.inf, 1e-8, terms_used=17,
                        error='DomainError: x = "0" \u2260 q\u00b2 \\ at \u03b1'))
    rep.add(CheckResult("terms", {"q": 0.3}, 1e-9, 1e-8, terms_used=0, runtime_ms=2.5))
    return rep


class TestReportBytes:
    """to_json writes the bytes of json.dumps(to_dict(), indent=2), and to_csv
    those of the row-by-row csv writer."""

    @pytest.fixture(scope="class")
    def default_report(self):
        return run_suite(SuiteConfig(), "v")

    def _check(self, rep):
        assert rep.to_json() == json.dumps(rep.to_dict(), indent=2)
        assert rep.to_csv() == _reference_csv(rep)

    def test_default_grid(self, default_report):
        self._check(default_report)

    def test_hand_made(self):
        self._check(_hand_made())

    def test_empty(self):
        self._check(VerificationReport(tool_version="v", config={}))

    def test_a_non_scalar_parameter_is_refused(self):
        rep = VerificationReport(tool_version="v", config={})
        rep.add(CheckResult("c", {"v": 1 + 2j}, 0.0, 1e-8))
        with pytest.raises(TypeError):
            rep.to_json()
        with pytest.raises(TypeError):
            rep.to_csv()


#: fields csv_records may meet: text with the characters QUOTE_MINIMAL quotes for,
#: the floats with special spellings, and the other scalars a table or report holds
_CSV_FIELDS = st.one_of(
    st.text(alphabet=st.sampled_from(['a', ' ', ',', '"', '\r', '\n', "'", '\u00e9', '\\', ';']),
            max_size=6),
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, "", None, True, False]),
    st.floats(allow_nan=True, allow_infinity=True), st.integers())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(max_size=4), max_size=3),
       st.lists(st.lists(_CSV_FIELDS, max_size=4), max_size=5))
def test_csv_records_writes_the_csv_writer_bytes(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    # the rows with their fields rendered, as every caller passes them
    assert csv_records(header, [[*map(_csv_field, row)] for row in rows]) == buf.getvalue()


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            SuiteConfig(suite="bogus")

    def test_deterministic_apart_from_timing(self):
        cfg = SuiteConfig(suite="qcalculus", q_values=(0.5,),
                          alpha_values=(0.25,), n_max=3)
        a = run_suite(cfg, "v").to_dict()
        b = run_suite(cfg, "v").to_dict()
        for r in a["results"] + b["results"]:
            r.pop("runtime_ms")
        assert a == b

    def test_config_recorded(self):
        cfg = SuiteConfig(suite="kernels", q_values=(0.5,),
                          alpha_values=(0.25,))
        rep = run_suite(cfg, "9.9")
        assert rep.tool_version == "9.9"
        assert rep.config["suite"] == "kernels"
        assert rep.config["q_values"] == [0.5]

    def test_suites_complete_near_q_one(self):
        # _half_integer_residual's (q^2;q^2)_inf underflowed to 0 at q = 0.9995: a raw
        # ZeroDivisionError ended the run inside special_functions
        rep = run_suite(SuiteConfig(q_values=(0.999, 0.9995), alpha_values=(0.25,)), "v")
        assert {r.name for r in rep.results} >= {"qbessel_half_integer_trig", "weight_moment"}


class TestCliEval:
    def test_known_value(self, capsys):
        assert main(["eval", "hermite_h", "n=2", "x=0", "q=0.5",
                     "alpha=0.25"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(-1.0)

    def test_truncated_value_reports_tail(self, capsys):
        assert main(["eval", "qexp_big", "z=0.3", "q=0.5"]) == 0
        out = capsys.readouterr().out
        assert "tail_bound:" in out
        assert "terms_used:" in out

    def test_unknown_function_exit_2(self, capsys):
        assert main(["eval", "nosuch", "q=0.5"]) == 2
        assert "UnknownFunction" in capsys.readouterr().err

    def test_missing_argument_exit_2(self, capsys):
        assert main(["eval", "hermite_h", "q=0.5"]) == 2
        assert "ArgumentError" in capsys.readouterr().err

    def test_domain_error_exit_1(self, capsys):
        # far outside the lattice disc the two halves of the continued sum
        # cancel below their accuracy
        assert main(["eval", "bessel_weight_transform", "x=100", "q=0.5",
                     "alpha=0.25"]) == 1
        assert "NonConvergence" in capsys.readouterr().err

    def test_overflow_exit_1(self, capsys):
        assert main(["eval", "hermite_h", "n=40", "x=0.7", "q=0.05"]) == 1
        assert "DomainError" in capsys.readouterr().err


class TestCliArgumentErrors:
    @pytest.mark.parametrize("n", ["inf", "-inf", "nan", "1e400", "2.5"])
    def test_non_integer_exit_2(self, capsys, n):
        assert main(["eval", "hermite_h", f"n={n}", "x=0.5", "q=0.5"]) == 2
        err = capsys.readouterr().err
        assert "ArgumentError" in err and "argument n must be a finite integer" in err

    @pytest.mark.parametrize("argv", [
        ["eval", "qnumber", "x=abc", "q=0.5"],
        ["eval", "qnumber", "x=", "q=0.5"],
        ["eval", "qnumber", "x=0.5", "q=abc"],
        ["eval", "qnumber", "x=0.5", "q=0.5", "alpha=abc"],
        ["eval", "hermite_h", "n=abc", "x=0.5", "q=0.5"],
        ["table", "qnumber", "--sweep", "q=0.1:0.9:3", "x=abc"],
    ])
    def test_non_number_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "ArgumentError" in err and "must be a number" in err


CTX = QContext(0.5, 0.25)
CTX_KEYS = "q=0.5 alpha=0.25"

#: name -> (key=value arguments, the same call made directly).  qbessel and
#: poisson_kernel_residual omit their defaulted key, so the call passes the
#: CLI's default.
EVAL_CASES = {
    "qpoch": (f"a=0.3 n=4 {CTX_KEYS}", lambda: qpoch(0.3, 4, CTX)),
    "qpoch_inf": (f"a=0.3 {CTX_KEYS}", lambda: qpoch_inf(0.3, CTX)),
    "qnumber": (f"x=2.5 {CTX_KEYS}", lambda: qnumber(2.5, CTX)),
    "sym_qnumber": ("x=2.5 base=0.7", lambda: sym_qnumber(2.5, 0.7)),
    "gen_qint": (f"n=3 {CTX_KEYS}", lambda: gen_qint(3, CTX)),
    "gen_qfact": (f"n=3 {CTX_KEYS}", lambda: gen_qfact(3, CTX)),
    "gen_qpoch": (f"n=3 {CTX_KEYS}", lambda: gen_qpoch(3, CTX)),
    "theta": ("n=3", lambda: theta(3)),
    "qexp_big": ("z=0.3 q=0.5", lambda: qexp_big(0.3, 0.5)),
    "qexp_small": ("z=0.3 q=0.5", lambda: qexp_small(0.3, 0.5)),
    "qexp_gen": (f"z=0.3 {CTX_KEYS}", lambda: qexp_gen(0.3, CTX)),
    "qtrig": ("z=0.3 which=sin q=0.5", lambda: qtrig(0.3, "sin", 0.5)),
    "qbessel": (f"x=0.5 order=0.25 {CTX_KEYS}",
                lambda: qbessel(0.5, 0.25, "modified", CTX)),
    "hermite_h": (f"n=3 x=0.7 {CTX_KEYS}", lambda: hermite_h(3, 0.7, CTX)),
    "hermite_via_laguerre": (f"n=3 x=0.7 {CTX_KEYS}",
                             lambda: hermite_via_laguerre(3, 0.7, CTX)),
    "qlaguerre": (f"n=2 order=0.25 x=0.7 {CTX_KEYS}",
                  lambda: qlaguerre(2, 0.25, 0.7, CTX)),
    "weight": (f"x=0.7 {CTX_KEYS}", lambda: weight(0.7, CTX)),
    "moment_constant": (CTX_KEYS, lambda: moment_constant(CTX)),
    "phi": (f"n=2 x=0.7 {CTX_KEYS}", lambda: phi(2, 0.7, CTX)),
    "relation_residual": (f"kind=qdiff n=3 x=0.7 {CTX_KEYS}",
                          lambda: relation_residual("qdiff", 3, 0.7, CTX)),
    "moment_check": (f"n=2 {CTX_KEYS}", lambda: moment_check(2, CTX)),
    "bessel_weight_transform": (f"x=0.3 {CTX_KEYS}",
                                lambda: bessel_weight_transform(0.3, CTX)),
    "integral_representation_residual": (
        f"n=2 x=0.7 {CTX_KEYS}", lambda: integral_representation_residual(2, 0.7, CTX)),
    "poisson_kernel_residual": (f"x=0.5 y=0.7 {CTX_KEYS}",
                                lambda: poisson_kernel_residual(0.5, 0.7, "general", CTX)),
    "bessel_expansion_residual": (f"x=0.5 {CTX_KEYS}",
                                  lambda: bessel_expansion_residual(0.5, CTX)),
    "rogers_ramanujan_residual": (CTX_KEYS, lambda: rogers_ramanujan_residual(CTX)),
    "eigen_residual": (f"n=2 x=0.7 {CTX_KEYS}", lambda: eigen_residual(2, 0.7, CTX)),
    "bessel_delta_residual": (
        f"n=1 lam=0.8 x=0.5 parity=odd_order {CTX_KEYS}",
        lambda: bessel_delta_residual(1, 0.8, 0.5, "odd_order", CTX)),
}


def _printed(value) -> str:
    if isinstance(value, TruncatedValue):
        return (f"{value.value!r}\ntail_bound: {value.tail_bound!r}\n"
                f"terms_used: {value.terms_used}\n")
    return f"{float(value)!r}\n"


class TestCliRegistry:
    def test_every_entry_has_a_case(self):
        assert set(EVAL_CASES) == set(REGISTRY)

    @pytest.mark.parametrize("name", sorted(EVAL_CASES))
    def test_eval_prints_the_library_value(self, capsys, name):
        kv, direct = EVAL_CASES[name]
        assert main(["eval", name, *kv.split()]) == 0
        assert capsys.readouterr().out == _printed(direct())

    @pytest.mark.parametrize("name", sorted(EVAL_CASES))
    def test_each_required_key_is_required(self, capsys, name):
        pairs = EVAL_CASES[name][0].split()
        for i, pair in enumerate(pairs):
            key = pair.partition("=")[0]
            if key == "alpha":
                continue
            assert main(["eval", name, *pairs[:i], *pairs[i + 1:]]) == 2, key
            err = capsys.readouterr().err
            assert f"ArgumentError: missing required argument: {key}" in err

    @pytest.mark.parametrize("name", sorted(EVAL_CASES))
    def test_a_key_the_function_does_not_take_is_rejected(self, capsys, name):
        # a misspelt key must not leave its parameter at a default
        pairs = EVAL_CASES[name][0].split()
        assert main(["eval", name, *pairs, "aplha=0.3"]) == 2
        err = capsys.readouterr().err
        assert f"ArgumentError: {name} takes no argument aplha;" in err

    def test_a_context_takes_q_and_alpha_only(self, capsys):
        assert main(["eval", "weight", "x=0.7", "q=0.5", "alpha=0.25", "ctx=1"]) == 2
        assert "takes no argument ctx; it takes x, q, alpha" in capsys.readouterr().err

    def test_registered_function_is_looked_up_at_call_time(self, capsys, monkeypatch):
        seen = []

        def fake(*args):
            seen.append(args)
            return 1.5

        monkeypatch.setattr(qlab.cli, "qbessel", fake)
        assert main(["eval", "qbessel", "x=0.5", "order=0.25", "q=0.5"]) == 0
        assert capsys.readouterr().out == "1.5\n"
        assert seen == [(0.5, 0.25, "modified", QContext(0.5))]


#: (q, alpha) near q = 1, and at q = 1e-6 with alpha at either end
NEAR_EDGE = [(q, a) for q in (0.999, 0.9995, 0.9999) for a in (-0.9, 0.25, 1.3)] + [
    (1e-6, 40.0), (1e-6, -0.999)]

#: calls past EVAL_CASES: a q-integer whose q^n overflows, and the integral
#: representation's prefactor overflowing at degree 60
EDGE_CASES = [("gen_qint", "n=-600 q=1e-6"),
              ("integral_representation_residual", "n=60 x=0 q=1e-6 alpha=-0.999")]


def _finite_or_qerror(name: str, args: dict) -> None:
    try:
        value = REGISTRY[name][0](args)
    except QError:
        return
    assert math.isfinite(getattr(value, "value", value)), (name, args)


class TestRegistryNearTheEdges:
    @pytest.mark.parametrize("q, alpha", NEAR_EDGE, ids=str)
    def test_every_function_returns_a_finite_value_or_raises_a_qerror(self, q, alpha):
        # moment_constant, rogers_ramanujan_residual and bessel_weight_transform's
        # lattice ratio raised a raw OverflowError or ZeroDivisionError here; at
        # q = 1e-6 the Bessel transforms are read at x = 0, where they need no
        # continued sum at thousands of digits
        for name, (kv, _) in EVAL_CASES.items():
            args = _parse_kv(kv.split())
            args.update({k: v for k, v in (("q", q), ("alpha", alpha)) if k in args})
            if q < 0.5 and name in ("bessel_weight_transform",
                                    "integral_representation_residual"):
                args["x"] = 0.0
            _finite_or_qerror(name, args)

    @pytest.mark.parametrize("name, kv", EDGE_CASES, ids=[c[0] for c in EDGE_CASES])
    def test_overflow_raises_a_qerror(self, name, kv):
        _finite_or_qerror(name, _parse_kv(kv.split()))


#: the values each real argument takes in turn in the sweep below
EXTREMES = ("nan", "inf", "-inf", "1e300", "-1e300")


def _real_keys(name: str) -> list[str]:
    """The keys of name's real arguments: q and alpha for a context, and every
    parameter annotated neither int nor str."""
    keys = []
    for key, p in inspect.signature(getattr(qlab.cli, name), eval_str=True).parameters.items():
        if p.annotation is QContext:
            keys += ["q", "alpha"]
        elif p.annotation not in (int, str):
            keys.append(key)
    return keys


def test_eval_at_extreme_arguments_prints_a_finite_value_or_an_error(capsys):
    # each registered function at its EVAL_CASES baseline, one real argument at a
    # time set to an extreme: qpoch printed +-inf or nan for a = +-1e300, +-inf or
    # nan, and sym_qnumber nan for a non-finite base; phi and eigen_residual raised
    # a raw ValueError at alpha = inf
    wrong = []
    for name, (kv, _) in EVAL_CASES.items():
        baseline = dict(pair.split("=") for pair in kv.split())
        for key in _real_keys(name):
            for value in EXTREMES:
                args = [f"{k}={v}" for k, v in {**baseline, key: value}.items()]
                try:
                    code = main(["eval", name, *args])
                except Exception as exc:  # a raise is listed with the other failures
                    code = repr(exc)
                out, err = capsys.readouterr()
                if code == 0 and math.isfinite(float(out.split()[0])):
                    continue
                if code in (1, 2) and re.fullmatch(r"error: \w+: .*\n", err):
                    continue
                wrong.append((name, key, value, code, out, err))
    assert wrong == []


class TestCliVerify:
    def test_all_pass_exit_0(self, capsys):
        assert main(["verify", "--suite", "kernels", *SMALL]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["summary"]["fail"] == 0

    def test_failures_exit_1(self, capsys):
        # integer alpha hits the normalization-constant pole in the
        # continuous quadrature entries, which are recorded as failures
        assert main(["verify", "--suite", "orthogonality", "--q", "0.5",
                     "--alpha", "1.0", "--n-max", "3", "--dim", "6"]) == 1
        d = json.loads(capsys.readouterr().out)
        assert d["summary"]["fail"] > 0
        assert any("PoleError" in (r.get("error") or "") for r in d["results"])

    def test_overflowing_norm_constant_exit_1(self, capsys, tmp_path):
        # q^{-(alpha + 1)(alpha + 1/2)} in d_n overflows: a raw OverflowError
        # ended the run with a traceback and no report
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "orthogonality", "--q", "0.05", "--alpha", "20.3",
                     "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        d = json.loads(out.read_text())
        assert d["summary"]["fail"] == d["summary"]["total"] > 0
        assert any("DomainError: norm_constant" in (r["error"] or "") for r in d["results"])

    def test_moment_constant_overflow_near_q_one_exit_1(self, capsys, tmp_path):
        # the moment constant's products overflow at q = 0.999: a raw OverflowError
        # ended the run with a traceback and no report
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "hermite_identities", "--q", "0.999",
                     "--alpha", "0.25", "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        d = json.loads(out.read_text())
        assert d["summary"]["total"] == 210
        assert any("DomainError: moment_constant" in r.get("error", "") for r in d["results"])

    def test_bad_config_exit_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert main(["verify", "--q", "1.5"]) == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "0"])
    def test_tol_not_positive_exit_2(self, capsys, tol):
        # a NaN tolerance would fail every check by comparison; it is refused as -1 is
        assert main(["verify", "--suite", "kernels", *SMALL, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "ConfigError: tol must be positive" in captured.err

    def test_csv_output_to_file(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["verify", "--suite", "kernels", *SMALL,
                     "--format", "csv", "--out", str(out)]) == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["name", "params", "residual", "tolerance", "pass"]
        assert len(rows) > 1

    def test_json_output_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "kernels", *SMALL,
                     "--out", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["config"]["suite"] == "kernels"


class TestCliTable:
    def test_csv_sweep(self, capsys):
        assert main(["table", "hermite_h", "--sweep", "x=0:1:3",
                     "n=2", "q=0.5", "alpha=0.25"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["x", "value"]
        assert len(rows) == 4
        assert float(rows[1][1]) == pytest.approx(-1.0)

    def test_zero_count_header_only(self, capsys):
        assert main(["table", "qnumber", "--sweep", "x=0:1:0", "q=0.5"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows == [["x", "value"]]

    def test_json_sweep(self, capsys):
        assert main(["table", "qnumber", "--sweep", "x=1:3:2", "q=0.5",
                     "--format", "json"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert [row["x"] for row in d] == [1.0, 3.0]

    def test_sweep_of_a_key_the_function_does_not_take_exit_2(self, capsys):
        assert main(["table", "hermite_h", "--sweep", "aplha=0:1:3",
                     "n=2", "x=0.5", "q=0.5"]) == 2
        assert "hermite_h takes no argument aplha" in capsys.readouterr().err

    def test_bad_sweep_exit_2(self, capsys):
        assert main(["table", "qnumber", "--sweep", "x=1:3", "q=0.5"]) == 2
        assert main(["table", "qnumber", "--sweep", "x=1:3:-2", "q=0.5"]) == 2


def _table(capsys, name, sweep, *pairs) -> list[tuple[float, float]]:
    assert main(["table", name, "--sweep", sweep, *pairs]) == 0
    return [(float(x), float(v))
            for x, v in list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]]


def _counting(monkeypatch, name) -> list:
    # a wrapper on the CLI module's name, which the registry looks up at every call
    calls, fn = [], getattr(qlab.cli, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(qlab.cli, name, counted)
    return calls


class TestCliArraySweep:
    """A sweep of x through hermite_h, weight, phi, eigen_residual,
    relation_residual or qbessel, or of z through qexp_gen, is one call on the
    array of points, unless it fails; then it runs point by point."""

    CASES = {"hermite_h": (lambda x, ctx: hermite_h(7, x, ctx), ["n=7"]),
             "weight": (weight, []),
             "phi": (lambda x, ctx: phi(4, x, ctx), ["n=4"]),
             "eigen_residual": (lambda x, ctx: eigen_residual(3, x, ctx), ["n=3"]),
             **{f"relation_residual/{kind}": (
                 lambda x, ctx, kind=kind: relation_residual(kind, 5, x, ctx),
                 [f"kind={kind}", "n=5"]) for kind in RELATION_KINDS},
             **{f"qbessel/{kind}": (lambda x, ctx, kind=kind: qbessel(x, 1.3, kind, ctx),
                                    [f"kind={kind}", "order=1.3"]) for kind in BESSEL_KINDS}}

    @pytest.mark.parametrize("q, alpha", [(0.2, -0.9), (0.5, 0.25), (0.9, 2.5)])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_values_match_point_by_point(self, capsys, monkeypatch, name, q, alpha):
        fn, pairs = self.CASES[name]
        ctx = QContext(q, alpha)
        function, _, kind = name.partition("/")
        calls = _counting(monkeypatch, function)
        # the prefactored q-Bessel kinds are defined for x > 0 at fractional order
        sweep = "x=0.05:3.1:64" if kind in ("second_jackson", "hahn_exton") else "x=-2.7:3.1:64"
        rows = _table(capsys, function, sweep, *pairs, f"q={q}", f"alpha={alpha}")
        assert len(rows) == 64 and len(calls) == 1
        for x, v in rows:
            ref = fn(x, ctx)
            assert abs(v - ref) / (1.0 + abs(v) + abs(ref)) <= 1e-13, x

    def test_qexp_gen_sweeps_z_in_one_call(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, "qexp_gen")
        ctx = QContext(0.5, 0.25)
        rows = _table(capsys, "qexp_gen", "z=-2.7:3.1:64", "q=0.5", "alpha=0.25")
        assert len(rows) == 64 and len(calls) == 1
        for z, v in rows:
            ref = qexp_gen(z, ctx)
            assert abs(v - ref) / (1.0 + abs(v) + abs(ref)) <= 1e-13, z

    def test_non_finite_values_fall_back_point_by_point(self, capsys, monkeypatch):
        # the array path raises on inf; point by point the explicit sum keeps it
        calls = _counting(monkeypatch, "hermite_h")
        ctx = QContext(0.3242, 1.5759)
        rows = _table(capsys, "hermite_h", "x=-2:2:64", "n=36", "q=0.3242", "alpha=1.5759")
        assert len(calls) == 65
        assert [repr(v) for _, v in rows] == [repr(hermite_h(36, x, ctx)) for x, _ in rows]
        assert math.isinf(rows[0][1]) and math.isfinite(rows[32][1])

    def test_a_failing_point_is_named_as_point_by_point(self, capsys):
        assert main(["eval", "hermite_h", "n=170", "x=45", "q=0.97", "alpha=-0.99"]) == 1
        err = capsys.readouterr().err
        assert main(["table", "hermite_h", "--sweep", "x=45:50:64",
                     "n=170", "q=0.97", "alpha=-0.99"]) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("function, sweep, pairs, failing, index", [
        # the Rodrigues residual is not evaluated at x = 0, the 33rd point
        ("relation_residual", "x=-1:1:65", ["kind=rodrigues", "n=3"], "0", 33),
        # a prefactored q-Bessel kind of fractional order needs x > 0
        ("qbessel", "x=-0.5:2:64", ["kind=hahn_exton", "order=1.3"], "-0.5", 1),
    ], ids=["rodrigues-at-0", "hahn_exton-at-x<=0"])
    def test_a_point_outside_the_domain_is_named_as_point_by_point(
            self, capsys, monkeypatch, function, sweep, pairs, failing, index):
        assert main(["eval", function, f"x={failing}", *pairs, "q=0.5", "alpha=0.25"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError: ")
        calls = _counting(monkeypatch, function)
        assert main(["table", function, "--sweep", sweep, *pairs, "q=0.5", "alpha=0.25"]) == 1
        assert capsys.readouterr().err == err
        # the array call, then the points up to the first failing one
        assert len(calls) == 1 + index

    def test_eigen_residual_near_zero_raises(self, capsys):
        # H's 1/x^2 prefactor overflows: eval printed nan and the table three
        # nan rows, both exiting 0
        args = ["q=0.05", "alpha=-0.99", "n=0"]
        assert main(["eval", "eigen_residual", "x=3.0e-154", *args]) == 1
        assert capsys.readouterr().err.startswith("error: DomainError: ")
        assert main(["table", "eigen_residual", "--sweep", "x=1e-155:3e-154:3", *args]) == 1
        assert capsys.readouterr().err.startswith("error: DomainError: ")

    def test_one_call_per_table(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, "hermite_h")
        _table(capsys, "hermite_h", "x=-1:1:64", "n=5", "q=0.5", "alpha=0.25")
        assert len(calls) == 1

    def test_other_keys_go_point_by_point(self, capsys, monkeypatch):
        calls = _counting(monkeypatch, "qnumber")
        _table(capsys, "qnumber", "x=-1:1:64", "q=0.5")
        assert len(calls) == 64
        calls = _counting(monkeypatch, "hermite_h")
        _table(capsys, "hermite_h", "q=0.1:0.9:64", "n=5", "x=0.5", "alpha=0.25")
        assert len(calls) == 64


class TestCliOutputBytes:
    """verify and table write the same bytes to --out and to stdout; a JSON
    report ends with a newline."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_verify(self, capsys, tmp_path, monkeypatch, fmt):
        rep = VerificationReport(tool_version="v", config={"suite": "x"})
        rep.add(CheckResult("c", {"q": 0.5}, 1e-12, 1e-8))
        monkeypatch.setattr(qlab.cli, "run_suite", lambda cfg, tool_version: rep)
        text = rep.to_json() + "\n" if fmt == "json" else rep.to_csv()
        assert main(["verify", "--format", fmt]) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / "report"
        assert main(["verify", "--format", fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()

    @pytest.mark.parametrize("fmt, text", [
        ("csv", "x,value\r\n0.0,0.0\r\n1.0,1.0\r\n"),
        ("json", json.dumps([{"x": 0.0, "value": 0.0}, {"x": 1.0, "value": 1.0}],
                            indent=2) + "\n"),
    ])
    def test_table(self, capsys, tmp_path, fmt, text):
        argv = ["table", "qnumber", "--sweep", "x=0:1:2", "q=0.5", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == text
        out = tmp_path / "table"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()


    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_table_with_non_finite_values(self, capsys, fmt):
        # the explicit sum reads inf on the first points of this sweep
        args = ["n=36", "q=0.3242", "alpha=1.5759"]
        rows = _table(capsys, "hermite_h", "x=-2:2:5", *args)
        assert math.isinf(rows[0][1]) and math.isfinite(rows[2][1])
        if fmt == "json":
            text = json.dumps([{"x": x, "value": v} for x, v in rows], indent=2) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(["x", "value"])
            for x, v in rows:
                writer.writerow([repr(x), repr(v)])
            text = buf.getvalue()
        assert main(["table", "hermite_h", "--sweep", "x=-2:2:5", *args, "--format", fmt]) == 0
        assert capsys.readouterr().out == text


class TestCliParserReuse:
    CALLS = (
        ["eval", "hermite_h", "n=3", "x=0.7", "q=0.5", "alpha=0.25"],
        ["table", "hermite_h", "--sweep", "x=0:1:3", "n=2", "q=0.5", "alpha=0.25"],
        ["verify", "--suite", "kernels", *SMALL, "--format", "csv"],
    )

    def _run(self, capsys, argv):
        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_repeated_calls_match_a_fresh_parser(self, capsys):
        for argv in self.CALLS:
            _parser.cache_clear()
            fresh = self._run(capsys, argv)
            assert fresh[0] == 0
            assert [self._run(capsys, argv) for _ in range(2)] == [fresh, fresh]
        assert _parser.cache_info().currsize == 1

    def test_appended_options_do_not_accumulate(self, capsys):
        for q in ("0.5", "0.3", "0.5"):
            assert main(["verify", "--suite", "kernels", "--q", q, "--alpha", "0.25",
                         "--n-max", "2", "--dim", "4"]) == 0
            d = json.loads(capsys.readouterr().out)
            assert d["config"]["q_values"] == [float(q)]
            assert d["config"]["alpha_values"] == [0.25]

    def test_usage_errors_still_exit_2(self, capsys):
        for argv in (["verify", "--bogus"], ["nosuch"], [], ["table", "qnumber", "q=0.5"],
                     ["eval", "qnumber", "--stray", "q=0.5"]):
            assert main(argv) == 2
            capsys.readouterr()
        assert self._run(capsys, self.CALLS[0])[0] == 0
