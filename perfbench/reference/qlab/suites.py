"""Named verification suites sweeping the identity checks over (q, alpha) grids.

Each suite produces an ordered, deterministic list of CheckResult; the
`all` suite concatenates every other suite.  Randomized spot checks (the
symmetric q-number addition identity) use a seeded generator recorded in
the report configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from . import qoscillator
from .context import ConfigError, QContext, QError
from .qcore import gen_qint, gen_qpoch, qderiv_pow, qnumber, qpoch_inf, sym_qnumber
from .qfunctions import (bessel_delta_residual, first_qderiv_bessel_residual,
                         qbessel, qexp_big, qexp_gen, qtrig)
from .qhermite import (OrthoCheckParams, bessel_weight_transform, hermite_h,
                       hermite_via_laguerre, integral_representation_residual,
                       moment_check, orthogonality, poisson_kernel_residual,
                       bessel_expansion_residual, relation_residual,
                       rogers_ramanujan_residual, weight)
from .report import CheckResult, VerificationReport

SUITE_NAMES = ("all", "qcalculus", "special_functions", "hermite_identities",
               "orthogonality", "kernels", "oscillator_algebra")

DEFAULT_Q_GRID = (0.3, 0.5, 0.8)
DEFAULT_ALPHA_GRID = (-0.5, 0.25, 1.3)


@dataclass(frozen=True)
class SuiteConfig:
    """Parameters of one verification run."""

    suite: str = "all"
    q_values: tuple[float, ...] = DEFAULT_Q_GRID
    alpha_values: tuple[float, ...] = DEFAULT_ALPHA_GRID
    n_max: int = 8
    dim: int = 12
    tol: float = 1e-8
    quad_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite: {self.suite!r}")
        if not self.q_values or not all(0.0 < q < 1.0 for q in self.q_values):
            raise ConfigError(f"q values must lie in (0, 1): {self.q_values}")
        if not self.alpha_values or not all(a > -1.0 for a in self.alpha_values):
            raise ConfigError(f"alpha values must exceed -1: {self.alpha_values}")
        if not 0 < self.n_max <= 40:
            raise ConfigError(f"n_max must be in [1, 40], got {self.n_max}")
        if not 3 <= self.dim <= 64:
            raise ConfigError(f"dim must be in [3, 64], got {self.dim}")
        if self.tol <= 0.0 or self.quad_tol <= 0.0:
            raise ConfigError("tolerances must be positive")

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "q_values": list(self.q_values),
            "alpha_values": list(self.alpha_values),
            "n_max": self.n_max,
            "dim": self.dim,
            "tol": self.tol,
            "quad_tol": self.quad_tol,
            "seed": self.seed,
        }


def _checked(name: str, params: dict, tol: float,
             fn: Callable[[], float]) -> CheckResult:
    """Run one residual computation, trapping library errors as entries."""
    t0 = time.perf_counter()
    try:
        residual = float(fn())
        result = CheckResult(name, params, residual, tol)
    except QError as exc:
        result = CheckResult(name, params, math.inf, tol, passed=False,
                             error=f"{type(exc).__name__}: {exc}")
    result.runtime_ms = (time.perf_counter() - t0) * 1e3
    return result


def _grid(cfg: SuiteConfig) -> Iterable[QContext]:
    for q in cfg.q_values:
        for alpha in cfg.alpha_values:
            yield QContext(q=q, alpha=alpha)


def _monomial_rule_residual(n: int, k: int, x: float, ctx: QContext) -> float:
    lhs = qderiv_pow(lambda t: t ** n, k, "delta_alpha", ctx)(x)
    rhs = (gen_qpoch(n, ctx) * x ** (n - k)
           / ((1.0 - ctx.q) ** k * gen_qpoch(n - k, ctx)))
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def suite_qcalculus(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    for ctx in _grid(cfg):
        base = {"q": ctx.q, "alpha": ctx.alpha}
        for n in range(min(cfg.n_max, 12) + 1):
            for k in range(n + 1):
                for x in (0.3, -1.1):
                    out.append(_checked(
                        "monomial_delta_rule", {**base, "n": n, "k": k, "x": x},
                        max(cfg.tol, 1e-12),
                        lambda n=n, k=k, x=x, c=ctx: _monomial_rule_residual(n, k, x, c)))
        for x in (1.0, 2.0, 2.0 * ctx.alpha + 2.0, 7.3):
            out.append(_checked(
                "sym_qnumber_bridge", {**base, "x": x}, 1e-12,
                lambda x=x, c=ctx: abs(
                    sym_qnumber(x, math.sqrt(c.q))
                    - c.q ** (-(x - 1.0) / 2.0) * qnumber(x, c))))
    rng = np.random.default_rng(cfg.seed)
    for q in cfg.q_values:
        triples = rng.uniform(-5.0, 5.0, size=(50, 3))
        worst = 0.0
        for a, b, c in triples:
            t1 = sym_qnumber(a, q) * sym_qnumber(b - c, q)
            t2 = sym_qnumber(b, q) * sym_qnumber(c - a, q)
            t3 = sym_qnumber(c, q) * sym_qnumber(a - b, q)
            r = abs(t1 + t2 + t3) / (1.0 + abs(t1) + abs(t2) + abs(t3))
            worst = max(worst, r)
        out.append(CheckResult("qnumber_addition_identity",
                               {"q": q, "triples": 50, "seed": cfg.seed},
                               worst, 1e-12))
    return out


def _qexp_series(z: float, q: float, terms: int = 200) -> float:
    total, t = 0.0, 1.0
    for k in range(terms):
        total += t
        t *= q ** k * z / (1.0 - q ** (k + 1))
        if abs(t) < 1e-16 * max(1.0, abs(total)):
            break
    return total


def suite_special_functions(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    for q in cfg.q_values:
        base = {"q": q}
        for z in (0.3, -0.7, 1.2):
            out.append(_checked(
                "qexp_big_product_vs_series", {**base, "z": z}, 1e-12,
                lambda z=z, q=q: abs(qexp_big(z, q).value - _qexp_series(z, q))))
        ctx_half = QContext(q=q, alpha=-0.5)
        for z in (0.5, -0.8):
            out.append(_checked(
                "qexp_gen_collapse_classical", {**base, "z": z, "alpha": -0.5}, 1e-12,
                lambda z=z, q=q, c=ctx_half: abs(qexp_gen(z, c) - qexp_big(z, q).value)))
        for x in (0.4, 0.9):
            for which, order in (("cos", -0.5), ("sin", 0.5)):
                out.append(_checked(
                    "qbessel_half_integer_trig", {**base, "x": x, "which": which},
                    cfg.tol,
                    lambda x=x, which=which, order=order, q=q: _half_integer_residual(
                        x, which, order, QContext(q=q, alpha=-0.5))))
    for ctx in _grid(cfg):
        base = {"q": ctx.q, "alpha": ctx.alpha}
        for x in (0.4, 0.9):
            out.append(_checked(
                "qbessel_contiguous_recurrence", {**base, "x": x}, cfg.tol,
                lambda x=x, c=ctx: _contiguous_residual(x, c)))
            out.append(_checked(
                "qbessel_first_difference", {**base, "lam": 0.8, "x": x}, cfg.tol,
                lambda x=x, c=ctx: first_qderiv_bessel_residual(0.8, x, c)))
        for n in (1, 2):
            for parity in ("even_order", "odd_order"):
                out.append(_checked(
                    "qbessel_iterated_difference",
                    {**base, "n": n, "parity": parity, "lam": 0.7, "x": 0.9},
                    cfg.tol,
                    lambda n=n, p=parity, c=ctx: bessel_delta_residual(n, 0.7, 0.9, p, c)))
    return out


def _half_integer_residual(x: float, which: str, order: float, ctx: QContext) -> float:
    q = ctx.q
    pref = (qpoch_inf(q, QContext(q=q * q)).value
            / (qpoch_inf(q * q, QContext(q=q * q)).value * math.sqrt(x)))
    lhs = qbessel(2.0 * x, order, "second_jackson", ctx)
    rhs = pref * qtrig(x, which, q)
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _contiguous_residual(x: float, ctx: QContext) -> float:
    q, alpha = ctx.q, ctx.alpha
    j = lambda nu: qbessel(2.0 * x, nu, "second_jackson", ctx)  # noqa: E731
    lhs = q ** (2.0 * alpha + 2.0) * x * j(alpha + 2.0)
    rhs = (1.0 - q ** (2.0 * alpha + 2.0)) * j(alpha + 1.0) - x * j(alpha)
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def suite_hermite_identities(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    kinds = ("generating", "inversion", "forward_shift", "backward_shift",
             "qdiff", "rodrigues")
    for ctx in _grid(cfg):
        base = {"q": ctx.q, "alpha": ctx.alpha}
        for kind in kinds:
            for n in range(min(cfg.n_max, 8) + 1):
                for x in (0.3, -0.7, 1.5):
                    out.append(_checked(
                        "hermite_relation_" + kind,
                        {**base, "n": n, "x": x}, cfg.tol,
                        lambda k=kind, n=n, x=x, c=ctx: relation_residual(k, n, x, c)))
        for n in range(min(cfg.n_max, 12) + 1):
            for x in (-1.2, 0.8):
                out.append(_checked(
                    "hermite_two_route", {**base, "n": n, "x": x}, cfg.tol,
                    lambda n=n, x=x, c=ctx: _two_route_residual(n, x, c)))
                out.append(_checked(
                    "hermite_parity", {**base, "n": n, "x": x}, 1e-13,
                    lambda n=n, x=x, c=ctx: abs(
                        hermite_h(n, -x, c) - (-1.0) ** n * hermite_h(n, x, c))
                    / (1.0 + abs(hermite_h(n, x, c)))))
        for n in range(5):
            out.append(_checked(
                "weight_moment", {**base, "n": n}, cfg.tol,
                lambda n=n, c=ctx: moment_check(n, c)))
        # Bessel-transform identities hold on the lattice only inside
        # |x| < q^{alpha+1/2}; sample well inside that disc
        lim = ctx.q ** (ctx.alpha + 0.5)
        for frac in (0.3, 0.6):
            x = frac * lim
            out.append(_checked(
                "weight_bessel_transform", {**base, "x": x}, cfg.tol,
                lambda x=x, c=ctx: bessel_weight_transform(x, c)))
        for n in range(5):
            x = 0.5 * lim
            out.append(_checked(
                "integral_representation", {**base, "n": n, "x": x}, cfg.tol,
                lambda n=n, x=x, c=ctx: integral_representation_residual(n, x, c)))
    return out


def _two_route_residual(n: int, x: float, ctx: QContext) -> float:
    a = hermite_h(n, x, ctx)
    b = hermite_via_laguerre(n, x, ctx)
    return abs(a - b) / (1.0 + abs(a) + abs(b))


def suite_orthogonality(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    for ctx in _grid(cfg):
        base = {"q": ctx.q, "alpha": ctx.alpha}
        n_hi = min(cfg.n_max, 8)
        for n in range(n_hi + 1):
            for m in range(n, n_hi + 1):
                out.append(_checked(
                    "discrete_orthogonality", {**base, "n": n, "m": m}, cfg.tol,
                    lambda n=n, m=m, c=ctx: orthogonality(
                        OrthoCheckParams(n, m, "discrete_jackson"), c).residual))
        # continuous quadrature: off-diagonal entries must vanish; the
        # diagonal is checked for independence of n, and its common value
        # (the normalization constant of the continuous measure) is reported
        n_cont = min(cfg.n_max, 6)
        diag: list[float] = []
        for n in range(n_cont + 1):
            t0 = time.perf_counter()
            try:
                value = orthogonality(
                    OrthoCheckParams(n, n, "continuous_quadrature"), ctx).params["value"]
                diag.append(value)
                res = CheckResult(
                    "continuous_diagonal_consistency",
                    {**base, "n": n, "value": value},
                    abs(value - diag[0]), cfg.quad_tol)
            except QError as exc:
                res = CheckResult(
                    "continuous_diagonal_consistency", {**base, "n": n},
                    math.inf, cfg.quad_tol, passed=False,
                    error=f"{type(exc).__name__}: {exc}")
            res.runtime_ms = (time.perf_counter() - t0) * 1e3
            out.append(res)
        if diag:
            out.append(CheckResult(
                "continuous_diagonal_offset",
                {**base, "value": diag[0], "offset_from_unity": abs(diag[0] - 1.0)},
                0.0, cfg.quad_tol))
        if abs(ctx.alpha + 0.5) < 1e-12 and diag:
            out.append(CheckResult(
                "continuous_unit_diagonal_classical", {**base},
                max(abs(v - 1.0) for v in diag), cfg.quad_tol))
        for n in range(n_cont + 1):
            for m in range(n + 1, n_cont + 1):
                out.append(_checked(
                    "continuous_offdiagonal", {**base, "n": n, "m": m}, cfg.quad_tol,
                    lambda n=n, m=m, c=ctx: orthogonality(
                        OrthoCheckParams(n, m, "continuous_quadrature"), c).residual))
    return out


def suite_kernels(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    for ctx in _grid(cfg):
        base = {"q": ctx.q, "alpha": ctx.alpha}
        for (x, y) in ((0.8, 0.3), (1.2, 0.5)):
            out.append(_checked(
                "poisson_kernel_at_one", {**base, "x": x, "y": y}, cfg.tol,
                lambda x=x, y=y, c=ctx: poisson_kernel_residual(x, y, "general", c)))
        for x in (0.5, 1.2):
            out.append(_checked(
                "bessel_expansion", {**base, "x": x}, cfg.tol,
                lambda x=x, c=ctx: bessel_expansion_residual(x, c)))
        out.append(_checked(
            "rogers_ramanujan_sum", base, max(cfg.tol, 1e-10),
            lambda c=ctx: rogers_ramanujan_residual(c)))
    for q in cfg.q_values:
        ctx = QContext(q=q, alpha=-0.5)
        for (x, y) in ((0.8, 0.3), (1.2, 0.5)):
            out.append(_checked(
                "poisson_kernel_trig_corollary", {"q": q, "alpha": -0.5,
                                                  "x": x, "y": y}, cfg.tol,
                lambda x=x, y=y, c=ctx: poisson_kernel_residual(
                    x, y, "half_integer_corollary", c)))
    return out


def suite_oscillator_algebra(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    for ctx in _grid(cfg):
        base = {"q": ctx.q, "alpha": ctx.alpha, "dim": cfg.dim}
        for name in qoscillator.RELATION_NAMES:
            out.append(_checked(
                "algebra_" + name, base, max(cfg.tol, 1e-11),
                lambda n=name, c=ctx: qoscillator.algebra_residual(
                    qoscillator.AlgebraRelation(n), cfg.dim, c)))
        for n in range(min(cfg.n_max, 8) + 1):
            for k in (-2, 0, 3):
                x = ctx.q ** k
                out.append(_checked(
                    "oscillator_eigenrelation", {**base, "n": n, "x": x}, 1e-9,
                    lambda n=n, x=x, c=ctx: qoscillator.eigen_residual(n, x, c)))
        out.append(_checked(
            "ground_state_annihilation", {**base, "x": 0.7}, 1e-11,
            lambda c=ctx: abs(qoscillator.apply_ladder(
                qoscillator.wave_function(0, c), "a", 0.7, c))))
        for n in (1, 3, min(cfg.n_max, 6)):
            out.append(_checked(
                "ladder_lowering", {**base, "n": n, "x": 0.7}, 1e-9,
                lambda n=n, c=ctx: abs(
                    qoscillator.apply_ladder(qoscillator.wave_function(n, c),
                                             "a", 0.7, c)
                    - math.sqrt(gen_qint(n, c)) * qoscillator.phi(n - 1, 0.7, c))))
            out.append(_checked(
                "ladder_raising", {**base, "n": n, "x": 0.7}, 1e-9,
                lambda n=n, c=ctx: abs(
                    qoscillator.apply_ladder(qoscillator.wave_function(n, c),
                                             "a_plus", 0.7, c)
                    - math.sqrt(gen_qint(n + 1, c)) * qoscillator.phi(n + 1, 0.7, c))))
        for n in range(min(cfg.n_max, 5) + 1):
            out.append(_checked(
                "repeated_raising", {**base, "n": n, "x": 0.7}, cfg.tol,
                lambda n=n, c=ctx: abs(qoscillator.raised_from_ground(n, 0.7, c)
                                       - qoscillator.phi(n, 0.7, c))))
        out.append(_checked(
            "h_selfadjointness", {**base, "pair": "phi1_phi3"}, 1e-7,
            lambda c=ctx: qoscillator.selfadjoint_residual(
                qoscillator.wave_function(1, c), qoscillator.wave_function(3, c), c)))
    return out


_SUITES = {
    "qcalculus": suite_qcalculus,
    "special_functions": suite_special_functions,
    "hermite_identities": suite_hermite_identities,
    "orthogonality": suite_orthogonality,
    "kernels": suite_kernels,
    "oscillator_algebra": suite_oscillator_algebra,
}


def run_suite(cfg: SuiteConfig, tool_version: str) -> VerificationReport:
    """Execute the configured suite and assemble the report."""
    report = VerificationReport(tool_version=tool_version, config=cfg.to_dict())
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        for result in _SUITES[name](cfg):
            report.add(result)
    return report
