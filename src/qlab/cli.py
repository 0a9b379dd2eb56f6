"""Command-line interface: evaluate library functions, run verification
suites over parameter grids, and sweep functions into tables.

Subcommands:
  eval FUNCTION key=value ...    evaluate one registered function
  verify [--suite NAME] ...      run a verification suite, emit JSON/CSV
  table FUNCTION --sweep p=lo:hi:count key=value ...   tabulate a sweep

Exit codes: 0 all checks pass (or evaluation succeeded), 1 any check
failed (or a domain/convergence error), 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import lru_cache
from typing import Any, Callable

from . import __version__
from .context import (ArgumentError, ConfigError, QContext, QError,
                      TruncatedValue, UnknownFunction)
from .qcore import (gen_qfact, gen_qint, gen_qpoch, qnumber, qpoch, qpoch_inf,
                    sym_qnumber, theta)
from .qfunctions import (bessel_delta_residual, first_qderiv_bessel_residual,
                         qbessel, qexp_big, qexp_gen, qexp_small, qtrig)
from .qhermite import (bessel_expansion_residual, bessel_weight_transform,
                       hermite_h, hermite_via_laguerre,
                       integral_representation_residual, moment_check,
                       moment_constant, poisson_kernel_residual, qlaguerre,
                       relation_residual, rogers_ramanujan_residual, weight)
from .qoscillator import eigen_residual, phi
from .suites import SuiteConfig, run_suite


def _ctx(args: dict[str, Any]) -> QContext:
    if "q" not in args:
        raise ArgumentError("missing required argument: q")
    kwargs = {"q": args["q"]}
    if "alpha" in args:
        kwargs["alpha"] = args["alpha"]
    return QContext(**kwargs)


def _int(args: dict[str, Any], key: str) -> int:
    v = _real(args, key)
    if v != int(v):
        raise ArgumentError(f"argument {key} must be an integer, got {v}")
    return int(v)


def _real(args: dict[str, Any], key: str) -> float:
    if key not in args:
        raise ArgumentError(f"missing required argument: {key}")
    return args[key]


def _str(args: dict[str, Any], key: str, default: str | None = None) -> str:
    if key not in args:
        if default is None:
            raise ArgumentError(f"missing required argument: {key}")
        return default
    return str(args[key])


#: registry: name -> (callable taking the parsed key=value map, description)
REGISTRY: dict[str, tuple[Callable[[dict], Any], str]] = {
    "qpoch": (lambda a: qpoch(_real(a, "a"), _int(a, "n"), _ctx(a)),
              "finite q-shifted factorial (a;q)_n  [a, n, q]"),
    "qpoch_inf": (lambda a: qpoch_inf(_real(a, "a"), _ctx(a)),
                  "infinite q-shifted factorial (a;q)_inf  [a, q]"),
    "qnumber": (lambda a: qnumber(_real(a, "x"), _ctx(a)),
                "q-number (1-q^x)/(1-q)  [x, q]"),
    "sym_qnumber": (lambda a: sym_qnumber(_real(a, "x"), _real(a, "base")),
                    "symmetric q-number  [x, base]"),
    "gen_qint": (lambda a: gen_qint(_int(a, "n"), _ctx(a)),
                 "generalized q-integer  [n, q, alpha]"),
    "gen_qfact": (lambda a: gen_qfact(_int(a, "n"), _ctx(a)),
                  "generalized q-factorial  [n, q, alpha]"),
    "gen_qpoch": (lambda a: gen_qpoch(_int(a, "n"), _ctx(a)),
                  "generalized q-shifted factorial  [n, q, alpha]"),
    "theta": (lambda a: theta(_int(a, "n")), "parity indicator  [n]"),
    "qexp_big": (lambda a: qexp_big(_real(a, "z"), _real(a, "q")),
                 "q-exponential E_q(z)  [z, q]"),
    "qexp_small": (lambda a: qexp_small(_real(a, "z"), _real(a, "q")),
                   "q-exponential e_q(z)  [z, q]"),
    "qexp_gen": (lambda a: qexp_gen(_real(a, "z"), _ctx(a)),
                 "generalized q-exponential  [z, q, alpha]"),
    "qtrig": (lambda a: qtrig(_real(a, "z"), _str(a, "which"), _real(a, "q")),
              "q-cosine/q-sine  [z, which=cos|sin, q]"),
    "qbessel": (lambda a: qbessel(_real(a, "x"), _real(a, "order"),
                                  _str(a, "kind", "modified"), _ctx(a)),
                "q-Bessel function  [x, order, kind, q, alpha]"),
    "hermite_h": (lambda a: hermite_h(_int(a, "n"), _real(a, "x"), _ctx(a)),
                  "generalized discrete q-Hermite II polynomial  [n, x, q, alpha]"),
    "hermite_via_laguerre": (
        lambda a: hermite_via_laguerre(_int(a, "n"), _real(a, "x"), _ctx(a)),
        "same polynomial through the q-Laguerre route  [n, x, q, alpha]"),
    "qlaguerre": (lambda a: qlaguerre(_int(a, "n"), _real(a, "order"),
                                      _real(a, "x"), _ctx(a)),
                  "q-Laguerre polynomial (base q)  [n, order, x, q]"),
    "weight": (lambda a: weight(_real(a, "x"), _ctx(a)),
               "orthogonality weight  [x, q, alpha]"),
    "moment_constant": (lambda a: moment_constant(_ctx(a)),
                        "half-line moment constant  [q, alpha]"),
    "phi": (lambda a: phi(_int(a, "n"), _real(a, "x"), _ctx(a)),
            "normalized wave function  [n, x, q, alpha]"),
    "relation_residual": (
        lambda a: relation_residual(_str(a, "kind"), _int(a, "n"),
                                    _real(a, "x"), _ctx(a)),
        "polynomial-identity residual  [kind, n, x, q, alpha]"),
    "moment_check": (lambda a: moment_check(_int(a, "n"), _ctx(a)),
                     "moment-formula residual  [n, q, alpha]"),
    "bessel_weight_transform": (
        lambda a: bessel_weight_transform(_real(a, "x"), _ctx(a)),
        "weight Bessel-transform residual  [x, q, alpha]"),
    "integral_representation_residual": (
        lambda a: integral_representation_residual(_int(a, "n"),
                                                   _real(a, "x"), _ctx(a)),
        "integral-representation residual  [n, x, q, alpha]"),
    "poisson_kernel_residual": (
        lambda a: poisson_kernel_residual(_real(a, "x"), _real(a, "y"),
                                          _str(a, "which", "general"), _ctx(a)),
        "Poisson-kernel residual  [x, y, which, q, alpha]"),
    "bessel_expansion_residual": (
        lambda a: bessel_expansion_residual(_real(a, "x"), _ctx(a)),
        "Bessel-expansion residual  [x, q, alpha]"),
    "rogers_ramanujan_residual": (
        lambda a: rogers_ramanujan_residual(_ctx(a)),
        "q-binomial summation residual  [q, alpha]"),
    "eigen_residual": (
        lambda a: eigen_residual(_int(a, "n"), _real(a, "x"), _ctx(a)),
        "oscillator eigenrelation residual  [n, x, q, alpha]"),
    "bessel_delta_residual": (
        lambda a: bessel_delta_residual(_int(a, "n"), _real(a, "lam"),
                                        _real(a, "x"), _str(a, "parity"), _ctx(a)),
        "iterated-difference Bessel residual  [n, lam, x, parity, q, alpha]"),
    "first_qderiv_bessel_residual": (
        lambda a: first_qderiv_bessel_residual(_real(a, "lam"), _real(a, "x"),
                                               _ctx(a)),
        "first-difference Bessel residual  [lam, x, q, alpha]"),
}


def _parse_kv(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ArgumentError(f"expected key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        if not key:
            raise ArgumentError(f"empty key in {pair!r}")
        try:
            out[key] = float(raw)
        except ValueError:
            out[key] = raw
    return out


def _lookup(name: str) -> Callable[[dict], Any]:
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownFunction(f"unknown function {name!r}; known: {known}")
    return REGISTRY[name][0]


def cmd_eval(args: argparse.Namespace) -> int:
    fn = _lookup(args.function)
    value = fn(_parse_kv(args.params))
    if isinstance(value, TruncatedValue):
        print(repr(value.value))
        print(f"tail_bound: {value.tail_bound!r}")
        print(f"terms_used: {value.terms_used}")
    else:
        print(repr(float(value)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = SuiteConfig(
        suite=args.suite,
        q_values=tuple(args.q) if args.q else SuiteConfig.q_values,
        alpha_values=tuple(args.alpha) if args.alpha else SuiteConfig.alpha_values,
        n_max=args.n_max,
        dim=args.dim,
        tol=args.tol,
        seed=args.seed,
    )
    report = run_suite(cfg, tool_version=__version__)
    payload = report.to_json() if args.format == "json" else report.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        print(payload, end="" if args.format == "csv" else "\n")
    summary = report.summary
    print(f"checks: {summary['total']}  pass: {summary['pass']}  "
          f"fail: {summary['fail']}", file=sys.stderr)
    return 0 if report.all_passed else 1


def _parse_sweep(spec: str) -> tuple[str, float, float, int]:
    try:
        key, _, rng = spec.partition("=")
        lo_s, hi_s, count_s = rng.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ArgumentError(
            f"sweep must look like param=lo:hi:count, got {spec!r}") from exc
    if not key:
        raise ArgumentError(f"sweep is missing the parameter name: {spec!r}")
    if count < 0:
        raise ArgumentError("sweep count must be >= 0")
    return key, lo, hi, count


def cmd_table(args: argparse.Namespace) -> int:
    fn = _lookup(args.function)
    fixed = _parse_kv(args.params)
    key, lo, hi, count = _parse_sweep(args.sweep)
    rows = []
    for i in range(count):
        value = lo if count == 1 else lo + (hi - lo) * i / (count - 1)
        result = fn({**fixed, key: value})
        rows.append((value, float(result) if not isinstance(result, TruncatedValue)
                     else result.value))
    if args.format == "json":
        out = json.dumps([{key: v, "value": r} for v, r in rows],
                         indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([key, "value"])
        for v, r in rows:
            writer.writerow([repr(v), repr(r)])
        out = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        print(out, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="q-special-function evaluation and identity verification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one registered function")
    p_eval.add_argument("function")
    p_eval.add_argument("params", nargs="*", metavar="key=value")
    p_eval.set_defaults(handler=cmd_eval)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default=SuiteConfig.suite)
    p_verify.add_argument("--q", type=float, action="append")
    p_verify.add_argument("--alpha", type=float, action="append")
    p_verify.add_argument("--n-max", type=int, default=SuiteConfig.n_max)
    p_verify.add_argument("--dim", type=int, default=SuiteConfig.dim)
    p_verify.add_argument("--tol", type=float, default=SuiteConfig.tol)
    p_verify.add_argument("--seed", type=int, default=SuiteConfig.seed)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_table = sub.add_parser("table", help="tabulate a one-parameter sweep")
    p_table.add_argument("function")
    p_table.add_argument("--sweep", required=True, metavar="param=lo:hi:count")
    p_table.add_argument("--format", choices=("json", "csv"), default="csv")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("params", nargs="*", metavar="key=value")
    p_table.set_defaults(handler=cmd_table)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser unchanged, so one serves every main() call of
    # a process; that helps only callers that run main() many times (tests,
    # notebooks, loops of in-process calls), not a single shell command
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        # parse_known_args lets key=value positionals follow options such
        # as --sweep, which plain parse_args rejects for subparsers
        args, extras = parser.parse_known_args(argv)
        if extras:
            bad = [e for e in extras if e.startswith("-") or "=" not in e]
            if bad or not hasattr(args, "params"):
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.params = list(args.params) + extras
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; pass through
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ArgumentError, ConfigError, UnknownFunction) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except QError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
