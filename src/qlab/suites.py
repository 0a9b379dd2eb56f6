"""Named verification suites sweeping the identity checks over (q, alpha) grids.

Each suite yields rows (name, params, tolerance, residual, *args) in a fixed
order, and one runner checks each row, so a suite is an ordered, deterministic
list of CheckResult; the `all` suite concatenates every other suite.  Work the
checks of a context share sits in bounded lru_caches, not in their arguments.
Randomized spot checks (the symmetric q-number addition identity) draw from a
``random.Random`` whose seed the report configuration records.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Iterator

from . import qoscillator
from .context import ConfigError, DomainError, QContext, QError
from .qcore import (_guarded, _level, gen_qint, gen_qpoch, qderiv_levels, qnumber, qpoch_inf,
                    sym_qnumber)
from .qfunctions import bessel_delta_residual, qbessel, qexp_big, qexp_gen, qtrig
from .qhermite import (QUAD_TOL, RELATION_KINDS, _rel, bessel_expansion_residual,
                       bessel_weight_transform, continuous_orthogonality,
                       discrete_orthogonality_residual, hermite_h, hermite_via_laguerre,
                       integral_representation_residual, moment_check,
                       poisson_kernel_residual, relation_residual,
                       rogers_ramanujan_residual)
from .report import CheckResult, VerificationReport

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
    seed: int = 0

    def __post_init__(self):
        if self.suite not in SUITE_NAMES:
            raise ConfigError(f"unknown suite: {self.suite!r}")
        if not self.q_values or not all(0.0 < q < 1.0 for q in self.q_values):
            raise ConfigError(f"q values must lie in (0, 1): {self.q_values}")
        if not self.alpha_values or not all(-1.0 < a < math.inf for a in self.alpha_values):
            raise ConfigError(f"alpha values must be finite and exceed -1: {self.alpha_values}")
        if not 0 < self.n_max <= 40:
            raise ConfigError(f"n_max must be in [1, 40], got {self.n_max}")
        if not 3 <= self.dim <= 64:
            raise ConfigError(f"dim must be in [3, 64], got {self.dim}")
        if not self.tol > 0.0:  # NaN too
            raise ConfigError(f"tol must be positive, got {self.tol}")

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "q_values": list(self.q_values),
            "alpha_values": list(self.alpha_values),
            "n_max": self.n_max,
            "dim": self.dim,
            "tol": self.tol,
            "quad_tol": QUAD_TOL,  # a constant; the key stays in the report schema
            "seed": self.seed,
        }


def _checked(name: str, params: dict, tol: float, fn: Callable[..., float], *args) -> CheckResult:
    """Run the residual fn(*args) as one check, trapping library errors as entries."""
    t0 = time.perf_counter()
    try:
        result = CheckResult(name, params, float(fn(*args)), tol)
    except QError as exc:
        result = CheckResult(name, params, math.inf, tol, passed=False,
                             error=f"{type(exc).__name__}: {exc}")
    result.runtime_ms = (time.perf_counter() - t0) * 1e3
    return result


def _runner(rows: Callable[[SuiteConfig], Iterator[tuple]]) -> Callable:
    """The suite that runs each row of rows(cfg) through _checked, in order; a
    row is drawn after the one before it ran, so it may read what that recorded."""
    @wraps(rows)
    def suite(cfg: SuiteConfig) -> list[CheckResult]:
        return [_checked(*row) for row in rows(cfg)]
    return suite


def _grid(cfg: SuiteConfig, **extra) -> Iterator[tuple[QContext, dict]]:
    # each context of the grid with its params {"q": ..., "alpha": ..., **extra}
    for q in cfg.q_values:
        for alpha in cfg.alpha_values:
            yield QContext(q=q, alpha=alpha), {"q": q, "alpha": alpha, **extra}


@lru_cache(maxsize=256)
def _monomial_lattice(n: int, x: float, ctx: QContext) -> tuple[float, ...]:
    # levels 0..n of Delta_alpha t^n at x; it stops before one qderiv_pow raises for
    return tuple(qderiv_levels(lambda t: t ** n, n, "delta_alpha", ctx)(x))


def _monomial_rule_residual(n: int, k: int, x: float, ctx: QContext) -> float:
    # level k of the order-n lattice of (n, x); one past its end raises as in qderiv_pow
    lhs = _level(_monomial_lattice(n, x, ctx), k)
    rhs = gen_qpoch(n, ctx) * x ** (n - k) / ((1.0 - ctx.q) ** k * gen_qpoch(n - k, ctx))
    return _rel(lhs, rhs)


def _bridge_residual(x: float, ctx: QContext) -> float:
    # both sides grow like q^(-x/2)
    return _rel(sym_qnumber(x, math.sqrt(ctx.q)), ctx.q ** (-(x - 1.0) / 2.0) * qnumber(x, ctx))


def _addition_residual(q: float, rng: random.Random) -> float:
    # worst scale-normalized residual of the symmetric q-number addition
    # identity over 50 random triples; one that leaves double range raises.
    # All 150 draws come first, so a raise does not shift the next q's triples
    triples = [[rng.uniform(-5.0, 5.0) for _ in range(3)] for _ in range(50)]
    worst = 0.0
    for a, b, c in triples:
        t1 = sym_qnumber(a, q) * sym_qnumber(b - c, q)
        t2 = sym_qnumber(b, q) * sym_qnumber(c - a, q)
        t3 = sym_qnumber(c, q) * sym_qnumber(a - b, q)
        r = abs(t1 + t2 + t3) / (1.0 + abs(t1) + abs(t2) + abs(t3))
        if not math.isfinite(r):
            raise DomainError(f"the addition identity leaves double range at q = {q}")
        worst = max(worst, r)
    return worst


@_runner
def suite_qcalculus(cfg: SuiteConfig):
    for ctx, base in _grid(cfg):
        for n in range(min(cfg.n_max, 12) + 1):
            for k in range(n + 1):
                for x in (0.3, -1.1):
                    yield ("monomial_delta_rule", {**base, "n": n, "k": k, "x": x},
                           max(cfg.tol, 1e-12), _monomial_rule_residual, n, k, x, ctx)
        for x in (1.0, 2.0, 2.0 * ctx.alpha + 2.0, 7.3):
            yield "sym_qnumber_bridge", {**base, "x": x}, 1e-12, _bridge_residual, x, ctx
    rng = random.Random(cfg.seed)
    for q in cfg.q_values:
        yield ("qnumber_addition_identity", {"q": q, "triples": 50, "seed": cfg.seed}, 1e-12,
               _addition_residual, q, rng)


def _qexp_series(z: float, q: float) -> float:
    total, t = 0.0, 1.0
    for k in range(200):
        total += t
        t *= q ** k * z / (1.0 - q ** (k + 1))
        if abs(t) < 1e-16 * max(1.0, abs(total)):
            break
    return total


def _qexp_residual(z: float, q: float) -> float:
    # relative: E_q(1.2) reaches about 4e3 at q near 0.9, where 1e-12 is about an ulp
    return _rel(qexp_big(z, q).value, _qexp_series(z, q))


def _collapse_residual(z: float, ctx: QContext) -> float:
    return abs(qexp_gen(z, ctx) - qexp_big(z, ctx.q).value)


@_runner
def suite_special_functions(cfg: SuiteConfig):
    for q in cfg.q_values:
        for z in (0.3, -0.7, 1.2):
            yield "qexp_big_product_vs_series", {"q": q, "z": z}, 1e-12, _qexp_residual, z, q
        ctx_half = QContext(q=q, alpha=-0.5)
        for z in (0.5, -0.8):
            yield ("qexp_gen_collapse_classical", {"q": q, "z": z, "alpha": -0.5}, 1e-12,
                   _collapse_residual, z, ctx_half)
        for x in (0.4, 0.9):
            for which, order in (("cos", -0.5), ("sin", 0.5)):
                yield ("qbessel_half_integer_trig", {"q": q, "x": x, "which": which}, cfg.tol,
                       _half_integer_residual, x, which, order, ctx_half)
    for ctx, base in _grid(cfg):
        for x in (0.4, 0.9):
            yield ("qbessel_contiguous_recurrence", {**base, "x": x}, cfg.tol,
                   _contiguous_residual, x, ctx)
            yield ("qbessel_first_difference", {**base, "lam": 0.8, "x": x}, cfg.tol,
                   bessel_delta_residual, 0, 0.8, x, "odd_order", ctx)
        for n in (1, 2):
            for parity in ("even_order", "odd_order"):
                yield ("qbessel_iterated_difference",
                       {**base, "n": n, "parity": parity, "lam": 0.7, "x": 0.9}, cfg.tol,
                       bessel_delta_residual, n, 0.7, 0.9, parity, ctx)


@_guarded
def _half_integer_residual(x: float, which: str, order: float, ctx: QContext) -> float:
    q = ctx.q
    pref = (qpoch_inf(q, QContext(q=q * q)).value
            / (qpoch_inf(q * q, QContext(q=q * q)).value * math.sqrt(x)))
    lhs = qbessel(2.0 * x, order, "second_jackson", ctx)
    rhs = pref * qtrig(x, which, q)
    return _rel(lhs, rhs)


def _contiguous_residual(x: float, ctx: QContext) -> float:
    q, alpha = ctx.q, ctx.alpha
    j = lambda nu: qbessel(2.0 * x, nu, "second_jackson", ctx)  # noqa: E731
    lhs = q ** (2.0 * alpha + 2.0) * x * j(alpha + 2.0)
    rhs = (1.0 - q ** (2.0 * alpha + 2.0)) * j(alpha + 1.0) - x * j(alpha)
    return _rel(lhs, rhs)


@_runner
def suite_hermite_identities(cfg: SuiteConfig):
    for ctx, base in _grid(cfg):
        for kind in RELATION_KINDS:
            for n in range(min(cfg.n_max, 8) + 1):
                for x in (0.3, -0.7, 1.5):
                    yield ("hermite_relation_" + kind, {**base, "n": n, "x": x}, cfg.tol,
                           relation_residual, kind, n, x, ctx)
        for n in range(min(cfg.n_max, 12) + 1):
            for x in (-1.2, 0.8):
                yield ("hermite_two_route", {**base, "n": n, "x": x}, cfg.tol,
                       _two_route_residual, n, x, ctx)
                yield "hermite_parity", {**base, "n": n, "x": x}, 1e-13, _parity_residual, n, x, ctx
        for n in range(5):
            yield "weight_moment", {**base, "n": n}, cfg.tol, moment_check, n, ctx
        # the Bessel-transform identities are sampled inside the disc
        # |x| < q^{alpha+1/2}, where they are plain lattice sums; outside it
        # they take the continued sum in mpmath, at tens of ms a check
        lim = ctx.q ** (ctx.alpha + 0.5)
        for frac in (0.3, 0.6):
            x = frac * lim
            yield ("weight_bessel_transform", {**base, "x": x}, cfg.tol,
                   bessel_weight_transform, x, ctx)
        for n in range(5):
            x = 0.5 * lim
            yield ("integral_representation", {**base, "n": n, "x": x}, cfg.tol,
                   integral_representation_residual, n, x, ctx)


def _two_route_residual(n: int, x: float, ctx: QContext) -> float:
    return _rel(hermite_h(n, x, ctx), hermite_via_laguerre(n, x, ctx))


def _parity_residual(n: int, x: float, ctx: QContext) -> float:
    return (abs(hermite_h(n, -x, ctx) - (-1.0) ** n * hermite_h(n, x, ctx))
            / (1.0 + abs(hermite_h(n, x, ctx))))


def _diagonal_residual(n: int, ctx: QContext, diag: list[float], params: dict) -> float:
    # the continuous diagonal must not depend on n: compare with the first
    # one, and record the value in diag and in the entry's parameters
    value = continuous_orthogonality(n, n, ctx)
    diag.append(value)
    params["value"] = value
    return abs(value - diag[0])


def _offdiagonal_residual(n: int, m: int, ctx: QContext) -> float:
    return abs(continuous_orthogonality(n, m, ctx))


@_runner
def suite_orthogonality(cfg: SuiteConfig):
    n_hi, n_cont = min(cfg.n_max, 8), min(cfg.n_max, 6)
    for ctx, base in _grid(cfg):
        for n in range(n_hi + 1):
            for m in range(n, n_hi + 1):
                yield ("discrete_orthogonality", {**base, "n": n, "m": m}, cfg.tol,
                       discrete_orthogonality_residual, n, m, ctx)
        # continuous quadrature: off-diagonal entries must vanish; the
        # diagonal is checked for independence of n, and its common value (the
        # continuous measure's normalization constant) is reported at residual 0
        diag: list[float] = []
        for n in range(n_cont + 1):
            params = {**base, "n": n}
            yield ("continuous_diagonal_consistency", params, QUAD_TOL,
                   _diagonal_residual, n, ctx, diag, params)
        if diag:
            yield ("continuous_diagonal_offset",
                   {**base, "value": diag[0], "offset_from_unity": abs(diag[0] - 1.0)},
                   QUAD_TOL, float, 0.0)
        if abs(ctx.alpha + 0.5) < 1e-12 and diag:
            yield ("continuous_unit_diagonal_classical", {**base}, QUAD_TOL,
                   max, [abs(v - 1.0) for v in diag])
        for n in range(n_cont + 1):
            for m in range(n + 1, n_cont + 1):
                yield ("continuous_offdiagonal", {**base, "n": n, "m": m}, QUAD_TOL,
                       _offdiagonal_residual, n, m, ctx)


@_runner
def suite_kernels(cfg: SuiteConfig):
    for ctx, base in _grid(cfg):
        for (x, y) in ((0.8, 0.3), (1.2, 0.5)):
            yield ("poisson_kernel_at_one", {**base, "x": x, "y": y}, cfg.tol,
                   poisson_kernel_residual, x, y, "general", ctx)
        for x in (0.5, 1.2):
            yield "bessel_expansion", {**base, "x": x}, cfg.tol, bessel_expansion_residual, x, ctx
        yield "rogers_ramanujan_sum", base, max(cfg.tol, 1e-10), rogers_ramanujan_residual, ctx
    for q in cfg.q_values:
        ctx = QContext(q=q, alpha=-0.5)
        for (x, y) in ((0.8, 0.3), (1.2, 0.5)):
            yield ("poisson_kernel_trig_corollary", {"q": q, "alpha": -0.5, "x": x, "y": y},
                   cfg.tol, poisson_kernel_residual, x, y, "half_integer_corollary", ctx)


def _ladder_residual(n: int, which: str, ctx: QContext) -> float:
    # a phi_n = sqrt([[n]]) phi_{n-1} and a+ phi_n = sqrt([[n+1]]) phi_{n+1}
    # at x = 0.7; a phi_0 = 0
    lhs = qoscillator.apply_ladder(qoscillator.wave_function(n, ctx), which, 0.7, ctx)
    if which == "a" and n == 0:
        return abs(lhs)
    m = n - 1 if which == "a" else n + 1
    return abs(lhs - math.sqrt(gen_qint(max(n, m), ctx)) * qoscillator.phi(m, 0.7, ctx))


def _raising_residual(n: int, ctx: QContext) -> float:
    return abs(qoscillator.raised_from_ground(n, 0.7, ctx) - qoscillator.phi(n, 0.7, ctx))


@_runner
def suite_oscillator_algebra(cfg: SuiteConfig):
    for ctx, base in _grid(cfg, dim=cfg.dim):
        for name in qoscillator.RELATION_NAMES:
            yield ("algebra_" + name, base, max(cfg.tol, 1e-11),
                   qoscillator.algebra_residual, name, cfg.dim, ctx)
        for n in range(min(cfg.n_max, 8) + 1):
            for k in (-2, 0, 3):
                x = ctx.q ** k
                yield ("oscillator_eigenrelation", {**base, "n": n, "x": x}, 1e-9,
                       qoscillator.eigen_residual, n, x, ctx)
        yield "ground_state_annihilation", {**base, "x": 0.7}, 1e-11, _ladder_residual, 0, "a", ctx
        for n in (1, 3, min(cfg.n_max, 6)):
            yield ("ladder_lowering", {**base, "n": n, "x": 0.7}, 1e-9,
                   _ladder_residual, n, "a", ctx)
            yield ("ladder_raising", {**base, "n": n, "x": 0.7}, 1e-9,
                   _ladder_residual, n, "a_plus", ctx)
        for n in range(min(cfg.n_max, 5) + 1):
            yield "repeated_raising", {**base, "n": n, "x": 0.7}, cfg.tol, _raising_residual, n, ctx
        yield ("h_selfadjointness", {**base, "pair": "phi1_phi3"}, 1e-7,
               qoscillator.selfadjoint_residual, 1, 3, ctx)


_SUITES = {
    "qcalculus": suite_qcalculus,
    "special_functions": suite_special_functions,
    "hermite_identities": suite_hermite_identities,
    "orthogonality": suite_orthogonality,
    "kernels": suite_kernels,
    "oscillator_algebra": suite_oscillator_algebra,
}

SUITE_NAMES = ("all", *_SUITES)


def run_suite(cfg: SuiteConfig, tool_version: str) -> VerificationReport:
    """Execute the configured suite and assemble the report."""
    report = VerificationReport(tool_version=tool_version, config=cfg.to_dict())
    names = list(_SUITES) if cfg.suite == "all" else [cfg.suite]
    for name in names:
        for result in _SUITES[name](cfg):
            report.add(result)
    return report
