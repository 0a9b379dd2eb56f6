"""Tests for report serialization and the command-line interface."""

import csv
import io
import json
import math

import pytest

from qlab import (CheckResult, ConfigError, SuiteConfig, VerificationReport,
                  run_suite)
from qlab.cli import _parser, main

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

    def test_max_terms_env_reaches_kernel_sums(self, capsys, monkeypatch):
        args = ["eval", "rogers_ramanujan_residual", "q=0.05", "alpha=0.25"]
        assert main(args) == 0
        monkeypatch.setenv("QLAB_MAX_TERMS", "8")
        assert main(args) == 1
        assert "NonConvergence" in capsys.readouterr().err

    def test_max_terms_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("QLAB_MAX_TERMS", "not_a_number")
        assert main(["eval", "qnumber", "x=2", "q=0.5"]) == 2
        monkeypatch.setenv("QLAB_MAX_TERMS", "250")
        assert main(["eval", "qnumber", "x=2", "q=0.5"]) == 0


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

    def test_bad_config_exit_2(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2
        assert main(["verify", "--q", "1.5"]) == 2

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

    def test_bad_sweep_exit_2(self, capsys):
        assert main(["table", "qnumber", "--sweep", "x=1:3", "q=0.5"]) == 2
        assert main(["table", "qnumber", "--sweep", "x=1:3:-2", "q=0.5"]) == 2


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
