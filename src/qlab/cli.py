"""Command-line interface: evaluate library functions, run verification
suites over parameter grids, and sweep functions into tables.

Subcommands:
  eval FUNCTION key=value ...    evaluate one registered function
  verify [--suite NAME] ...      run a verification suite, emit JSON/CSV
  table FUNCTION --sweep p=lo:hi:count key=value ...   tabulate a sweep

A table sweeps x through hermite_h, weight, phi, eigen_residual,
relation_residual or qbessel, and z through qexp_gen, in one call on the
array of its points, which qcore._guarded runs without numpy's warnings
(those parameters are annotated Points).  Where that call raises a QError
or gives a non-finite value, and for every other function or swept key,
the table is evaluated point by point.

Exit codes: 0 all checks pass (or evaluation succeeded), 1 any check
failed (or a domain/convergence error), 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from functools import lru_cache
from typing import Any, Callable

import numpy as np

from . import __version__
from .context import (ArgumentError, ConfigError, QContext, QError,
                      TruncatedValue, UnknownFunction)
from .qcore import (Points, gen_qfact, gen_qint, gen_qpoch, qnumber, qpoch, qpoch_inf,
                    sym_qnumber, theta)
from .qfunctions import (bessel_delta_residual, qbessel, qexp_big, qexp_gen, qexp_small,
                         qtrig)
from .qhermite import (bessel_expansion_residual, bessel_weight_transform,
                       hermite_h, hermite_via_laguerre,
                       integral_representation_residual, moment_check,
                       moment_constant, poisson_kernel_residual, qlaguerre,
                       relation_residual, rogers_ramanujan_residual, weight)
from .qoscillator import eigen_residual, phi
from .report import _csv_field, csv_records, json_records
from .suites import SuiteConfig, run_suite


def _ctx(args: dict[str, Any], key: str) -> QContext:
    # a context parameter, whatever its name, reads q and an optional alpha
    q = _real(args, "q")
    return QContext(q, _real(args, "alpha") if "alpha" in args else QContext.alpha)


def _int(args: dict[str, Any], key: str) -> int:
    v = _real(args, key)
    if not math.isfinite(v) or v != int(v):
        raise ArgumentError(f"argument {key} must be a finite integer, got {v}")
    return int(v)


def _real(args: dict[str, Any], key: str) -> float:
    if key not in args:
        raise ArgumentError(f"missing required argument: {key}")
    v = args[key]
    if isinstance(v, str):
        raise ArgumentError(f"argument {key} must be a number, got {v!r}")
    return v


def _str(args: dict[str, Any], key: str) -> str:
    if key not in args:
        raise ArgumentError(f"missing required argument: {key}")
    return str(args[key])


_PARSERS = {int: _int, str: _str, QContext: _ctx}


def _bind(fn: Callable, defaults: dict[str, str]) -> tuple[Callable[[dict], Any], str, frozenset]:
    """Registry entry of fn: a caller that parses fn's parameters from the
    key=value map by annotation (the unannotated and Points as reals), with
    defaults for absent keys, rejects a key fn does not take, and looks fn up
    by name here at every call, so a wrapper installed on this module's name
    is the one called; and fn's summary; and the keys annotated Points, which
    also take a numpy array."""
    name, namespace = fn.__name__, globals()
    params = inspect.signature(fn, eval_str=True).parameters
    parsers = [(key, _PARSERS.get(p.annotation, _real)) for key, p in params.items()]
    allowed = dict.fromkeys(k for key, parse in parsers
                            for k in (("q", "alpha") if parse is _ctx else (key,))).keys()

    def call(args: dict[str, Any]) -> Any:
        if not args.keys() <= allowed:
            stray = ", ".join(k for k in args if k not in allowed)
            raise ArgumentError(f"{name} takes no argument {stray}; it takes {', '.join(allowed)}")
        if defaults:
            args = {**defaults, **args}
        return namespace[name](*[parse(args, key) for key, parse in parsers])

    return (call, " ".join(inspect.getdoc(fn).split("\n\n")[0].split()),
            frozenset(key for key, p in params.items() if p.annotation == Points))


#: values the CLI supplies for these functions' parameters when a key is absent
_DEFAULTS = {"qbessel": {"kind": "modified"}, "poisson_kernel_residual": {"which": "general"}}

_BOUND = {
    fn.__name__: _bind(fn, _DEFAULTS.get(fn.__name__, {})) for fn in (
        qpoch, qpoch_inf, qnumber, sym_qnumber, gen_qint, gen_qfact, gen_qpoch,
        theta, qexp_big, qexp_small, qexp_gen, qtrig, qbessel, hermite_h,
        hermite_via_laguerre, qlaguerre, weight, moment_constant, phi,
        relation_residual, moment_check, bessel_weight_transform,
        integral_representation_residual, poisson_kernel_residual,
        bessel_expansion_residual, rogers_ramanujan_residual, eigen_residual,
        bessel_delta_residual)}

#: registry: name -> (callable taking the parsed key=value map, description)
REGISTRY: dict[str, tuple[Callable[[dict], Any], str]] = {
    name: (call, summary) for name, (call, summary, _) in _BOUND.items()}

#: name -> the keys a table sweeps in one call on a numpy array of points
_ARRAY_KEYS = {name: keys for name, (_, _, keys) in _BOUND.items()}


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


def _write(text: str, path: str | None) -> None:
    """text to the file at path, or to stdout: the same bytes either way."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


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
    _write(report.to_json() + "\n" if args.format == "json" else report.to_csv(), args.out)
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


def _sweep_values(fn: Callable[[dict], Any], array: bool, fixed: dict[str, Any],
                  key: str, points: list[float]) -> list[float]:
    """fn's values over the points of key: in one call on their numpy array if
    array is set, else point by point.  Where the array call raises a QError
    or gives a non-finite value, point by point too: an error then names the
    first point it fails at, and hermite_h keeps its per-point +-inf."""
    if array and points:
        try:
            values = fn({**fixed, key: np.array(points)})
            if np.isfinite(values).all():
                return values.tolist()
        except QError:
            pass
    return [float(r) if not isinstance(r, TruncatedValue) else r.value
            for r in (fn({**fixed, key: p}) for p in points)]


def cmd_table(args: argparse.Namespace) -> int:
    fn = _lookup(args.function)
    fixed = _parse_kv(args.params)
    key, lo, hi, count = _parse_sweep(args.sweep)
    points = [lo if count == 1 else lo + (hi - lo) * i / (count - 1) for i in range(count)]
    values = _sweep_values(fn, key in _ARRAY_KEYS[args.function], fixed, key, points)
    rows = zip(points, values)
    _write(json_records((key, "value"), rows) + "\n" if args.format == "json"
           else csv_records((key, "value"), [(_csv_field(p), _csv_field(v)) for p, v in rows]),
           args.out)
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
