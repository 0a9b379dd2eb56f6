"""Generalized discrete q-Hermite II polynomials and their identities.

Polynomial evaluation (direct series and the q-Laguerre route), the
orthogonality weight and normalization constants, and numeric residuals for
the generating function, inversion, shift and difference relations, the
Rodrigues formula, moments, q-integral representations, Poisson kernel at
one, Bessel expansion and the Rogers-Ramanujan type summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import scipy.integrate

from .context import (ArgumentError, DomainError, NegativeRadicand,
                      NonConvergence, PoleError, QContext,
                      QuadratureFailure)
from .qcore import (_gen_qpoch, _qpoch, _qpoch_inf, jackson_integral, qderiv_pow,
                    theta)
from .qfunctions import qbessel, qexp_gen, qexp_small
from .report import CheckResult

N_MAX_DEFAULT = 40


@lru_cache(maxsize=None)
def _cached_qpoch(a: float, n: int, q: float) -> float:
    return _qpoch(a, n, q)


@lru_cache(maxsize=None)
def _cached_gen_qpoch(n: int, q: float, alpha: float) -> float:
    return _gen_qpoch(n, q, alpha)


# ---------------------------------------------------------------------------
# Polynomials and weight
# ---------------------------------------------------------------------------

def hermite_h(n: int, x: float, ctx: QContext) -> float:
    """Generalized discrete q-Hermite II polynomial of degree n at x."""
    q, alpha = ctx.q, ctx.alpha
    total = 0.0
    for k in range(n // 2 + 1):
        total += ((-1.0) ** k * q ** (-2.0 * n * k + k * (2.0 * k + 1.0))
                  * x ** (n - 2 * k)
                  / (_cached_qpoch(q * q, k, q * q)
                     * _cached_gen_qpoch(n - 2 * k, q, alpha)))
    return _cached_qpoch(q, n, q) * total


def hermite_h_scaled(n: int, x: float, ctx: QContext) -> float:
    """q^{n^2/2} times hermite_h(n, x): the overflow-safe kernel scaling.

    The polynomial's dominant coefficient grows like q^{-n^2}; folding the
    q^{n^2/2} prefactor into each term keeps every intermediate in double
    range, which the bilinear kernel sums need at large degree.
    """
    q, alpha = ctx.q, ctx.alpha
    total = 0.0
    for k in range(n // 2 + 1):
        expo = n * n / 2.0 - 2.0 * n * k + k * (2.0 * k + 1.0)
        total += ((-1.0) ** k * q ** expo * x ** (n - 2 * k)
                  / (_cached_qpoch(q * q, k, q * q)
                     * _cached_gen_qpoch(n - 2 * k, q, alpha)))
    return _cached_qpoch(q, n, q) * total


def qlaguerre(n: int, order: float, x: float, ctx: QContext) -> float:
    """q-Laguerre polynomial L_n^{(order)}(x; q^2), generalized-factorial form."""
    q = ctx.q
    q2 = q * q
    total = 0.0
    for k in range(n + 1):
        total += ((-1.0) ** k * q ** (2.0 * k * (k + order)) * x ** k
                  / (_cached_gen_qpoch(2 * k, q, order)
                     * _cached_qpoch(q2, n - k, q2)))
    return _cached_qpoch(q ** (2.0 * order + 2.0), n, q2) * total


def hermite_via_laguerre(n: int, x: float, ctx: QContext) -> float:
    """hermite_h through its q-Laguerre factorization (independent route)."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    arg = q ** (-2.0 * alpha - 1.0) * x * x
    if n % 2 == 0:
        m = n // 2
        return ((-1.0) ** m * q ** (-m * (2.0 * m - 1.0))
                * _cached_qpoch(q, 2 * m, q)
                / _cached_qpoch(q ** (2.0 * alpha + 2.0), m, q2)
                * qlaguerre(m, alpha, arg, ctx))
    m = (n - 1) // 2
    return ((-1.0) ** m * q ** (-m * (2.0 * m + 1.0))
            * _cached_qpoch(q, 2 * m + 1, q)
            / _cached_qpoch(q ** (2.0 * alpha + 2.0), m + 1, q2)
            * x * qlaguerre(m, alpha + 1.0, arg, ctx))


def weight(x: float, ctx: QContext) -> float:
    """Orthogonality weight e_{q^2}(-q^{-2 alpha - 1} x^2); even, positive."""
    q = ctx.q
    z = -(q ** (-2.0 * ctx.alpha - 1.0)) * x * x
    return qexp_small(z, q * q).value


def norm_constants(n: int, ctx: QContext) -> tuple[float, float, float]:
    """Normalization constants (d_n, C, c) of the continuous orthogonality.

    The Gamma combination Gamma(-a) Gamma(a+1) is the exact reflection value
    -pi / sin(pi a); nonnegative integer a is a pole.
    """
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    s = math.sin(math.pi * alpha)
    if abs(s) < 1e-12:
        raise PoleError(f"Gamma reflection pole at alpha={alpha}")
    gamma_prod = -math.pi / s

    tol, mt = ctx.series_tol, ctx.max_terms
    radicand = (q ** (-(alpha + 1.0) * (alpha + 0.5))
                * _qpoch_inf(q2, q2, tol, mt).value
                / (gamma_prod * _qpoch_inf(q ** (-2.0 * alpha), q2, tol, mt).value))
    if radicand <= 0.0:
        raise NegativeRadicand(f"C_alpha radicand {radicand} <= 0 at alpha={alpha}")
    big_c = math.sqrt(radicand)
    d = (big_c * q ** (n * n / 2.0)
         * math.sqrt(_cached_gen_qpoch(n, q, alpha))
         / _cached_qpoch(q, n, q))
    return d, big_c, moment_constant(ctx)


def moment_constant(ctx: QContext) -> float:
    """The half-line moment constant c; defined for every alpha > -1."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    tol, mt = ctx.series_tol, ctx.max_terms
    return ((1.0 - q)
            * _qpoch_inf(-(q ** (2.0 * alpha + 3.0)), q2, tol, mt).value
            * _qpoch_inf(-(q ** (-2.0 * alpha - 1.0)), q2, tol, mt).value
            * _qpoch_inf(q2, q2, tol, mt).value
            / (_qpoch_inf(-q, q2, tol, mt).value ** 2
               * _qpoch_inf(q ** (2.0 * alpha + 2.0), q2, tol, mt).value))


@dataclass
class HermiteFamily:
    """Evaluation cache for one (q, alpha): factorials up to a degree bound."""

    ctx: QContext
    n_max: int = N_MAX_DEFAULT

    def __post_init__(self):
        q, alpha = self.ctx.q, self.ctx.alpha
        self.gen_qpoch = [_gen_qpoch(n, q, alpha) for n in range(self.n_max + 1)]
        self.qpoch = [_qpoch(q, n, q) for n in range(self.n_max + 1)]

    def hermite(self, n: int, x: float) -> float:
        if n > self.n_max:
            raise DomainError(f"degree {n} exceeds family bound {self.n_max}")
        return hermite_h(n, x, self.ctx)

    def d(self, n: int) -> float:
        return norm_constants(n, self.ctx)[0]


# ---------------------------------------------------------------------------
# Structural relations
# ---------------------------------------------------------------------------

RELATION_KINDS = ("generating", "inversion", "forward_shift", "backward_shift",
                  "qdiff", "rodrigues")


def _rel(lhs: float, rhs: float) -> float:
    # polynomial magnitudes reach q^{-n^2}; residuals are meaningful only
    # relative to the identity's own scale
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def relation_residual(kind: str, n: int, point: float, ctx: QContext,
                      second: Optional[float] = None) -> float:
    """Scale-normalized residual |LHS - RHS| / (1 + |LHS| + |RHS|) of one
    structural relation of the polynomial family.

    generating     : point is x, second is z (default 0.3)
    inversion      : monomial expansion of x^n re-evaluated at point
    forward_shift, backward_shift, qdiff: three-term relations at x = point
    rodrigues      : weight * polynomial vs iterated difference of the weight
    """
    q, alpha = ctx.q, ctx.alpha
    if kind == "generating":
        x = point
        z = 0.3 if second is None else second
        lhs = qexp_small(-z * z, q * q).value * qexp_gen(x * z, ctx)
        total = 0.0
        below = 0
        for m in range(300):
            t = (q ** (-m / 2.0) * hermite_h_scaled(m, x, ctx) * z ** m
                 / _cached_qpoch(q, m, q))
            total += t
            if abs(t) < ctx.series_tol * max(1.0, abs(total)):
                below += 1
                if below >= 3 and m > 4:
                    break
            else:
                below = 0
        return _rel(lhs, total)

    if kind == "inversion":
        x = point
        total = 0.0
        scale = 0.0
        for k in range(n // 2 + 1):
            t = (q ** (-2.0 * n * k + 3.0 * k * k)
                 * hermite_h(n - 2 * k, x, ctx)
                 / (_cached_qpoch(q * q, k, q * q)
                    * _cached_qpoch(q, n - 2 * k, q)))
            total += t
            scale += abs(t)
        gp = _cached_gen_qpoch(n, q, alpha)
        return abs(x ** n - gp * total) / (1.0 + abs(x) ** n + gp * scale)

    if kind == "forward_shift":
        x = point
        lhs = (hermite_h(n, x / q, ctx)
               - q ** ((2.0 * alpha + 1.0) * theta(n + 1)) * hermite_h(n, x, ctx))
        rhs = (q ** (-n) * (1.0 - q ** n) * x * hermite_h(n - 1, x, ctx)
               if n >= 1 else 0.0)
        return _rel(lhs, rhs)

    if kind == "backward_shift":
        x = point
        lhs = (hermite_h(n, x, ctx)
               - q ** ((2.0 * alpha + 1.0) * theta(n + 1))
               * (1.0 + q ** (-2.0 * alpha - 1.0) * x * x)
               * hermite_h(n, q * x, ctx))
        rhs = (-(q ** n)
               * (1.0 - q ** (-n - 1.0 - (2.0 * alpha + 1.0) * theta(n)))
               / (1.0 - q ** (-n - 1.0))
               * x * hermite_h(n + 1, x, ctx))
        return _rel(lhs, rhs)

    if kind == "qdiff":
        x = point
        u = 1.0 + q ** (-2.0 * alpha - 1.0) * x * x
        if n % 2 == 0:
            mid = 1.0 + q ** (-2.0 * alpha) + q ** (n - 2.0 * alpha - 1.0) * x * x
        else:
            mid = q + q ** (-2.0 * alpha - 1.0) + q ** (n - 1.0 - 2.0 * alpha) * x * x
        return _rel(u * hermite_h(n, q * x, ctx)
                    + q ** (-2.0 * alpha) * hermite_h(n, x / q, ctx),
                    mid * hermite_h(n, x, ctx))

    if kind == "rodrigues":
        x = point
        if x == 0.0:
            raise DomainError("Rodrigues residual is evaluated away from x = 0")
        lhs = weight(x, ctx) * hermite_h(n, x, ctx)
        qi = 1.0 / q
        pref = ((q - 1.0) ** n * q ** (-n * (n - 1.0) / 2.0)
                * _qpoch(qi, n, qi) / _gen_qpoch(n, qi, alpha))
        handle = qderiv_pow(lambda t: weight(t, ctx), n, "delta_alpha", ctx)
        rhs = pref * handle(x)
        # iterated backward differences toward x = 0 amplify roundoff; the
        # honest scale is the summed magnitude of the expansion
        # Delta^n w(x) = sum_j a_j w(q^j x) / x^n, not the cancelled result
        a = [1.0]
        for k in range(n):
            s_fac = 1.0 if k % 2 == 0 else q ** (2.0 * alpha + 1.0)
            nxt = []
            for j in range(k + 2):
                left = a[j] if j <= k else 0.0
                right = a[j - 1] if 1 <= j <= k + 1 else 0.0
                nxt.append((left - s_fac * right * q ** (-k)) / (1.0 - q))
            a = nxt
        cond = abs(pref) / abs(x) ** n * sum(
            abs(a[j]) * weight(q ** j * x, ctx) for j in range(n + 1))
        return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs) + cond)

    raise ArgumentError(f"unknown relation kind: {kind!r}")


# ---------------------------------------------------------------------------
# Moments, integral representations, orthogonality
# ---------------------------------------------------------------------------

def _damped(env: float, rest) -> float:
    # The q-exponential envelope underflows long before the polynomial or
    # Bessel factors matter; skip them once it is negligibly small.
    if env == 0.0 or abs(env) < 1e-250:
        return 0.0
    return env * rest()


def moment_check(n: int, ctx: QContext) -> float:
    """Relative residual of the even-moment formula of the half-line weight."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q

    def f(y: float) -> float:
        env = qexp_small(-q * y * y, q2).value
        return _damped(env, lambda: y ** (2.0 * n + 2.0 * alpha + 1.0))

    integral = jackson_integral(f, "halfline", ctx).value
    c = moment_constant(ctx)
    closed = (c * q ** (-float(n * n) - 2.0 * n * (alpha + 1.0))
              * _cached_qpoch(q ** (2.0 * alpha + 2.0), n, q2))
    return abs(integral - closed) / abs(closed)


def _require_lattice_convergence(x: float, ctx: QContext) -> None:
    """The Bessel-transform lattice sums converge only for x^2 < q^{2a+1}.

    On the geometric lattice y = q^{-k} the integrand terms behave like
    (x^2 q^{-2a-1})^k, so the half-line Jackson sum diverges outside that
    disc even though the closed form continues analytically.
    """
    r = x * x * ctx.q ** (-2.0 * ctx.alpha - 1.0)
    if r >= 1.0:
        raise NonConvergence(
            f"Jackson lattice sum diverges: x^2 q^(-2 alpha - 1) = {r:.6g} >= 1 "
            f"(need |x| < q^(alpha + 1/2) = {ctx.q ** (ctx.alpha + 0.5):.6g})"
        )


def bessel_weight_transform(x: float, ctx: QContext) -> float:
    """Residual of the half-line Bessel transform of the weight envelope."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    _require_lattice_convergence(x, ctx)

    def f(y: float) -> float:
        env = qexp_small(-q * y * y, q2).value
        return _damped(env, lambda: qbessel(x * y, alpha, "modified", ctx)
                       * y ** (2.0 * alpha + 1.0))

    integral = jackson_integral(f, "halfline", ctx).value
    c = moment_constant(ctx)
    rhs = c * qexp_small(-(q ** (-2.0 * alpha - 1.0)) * x * x, q2).value
    scale = max(abs(rhs), abs(c))
    return abs(integral - rhs) / scale


def integral_representation_residual(n: int, x: float, ctx: QContext) -> float:
    """Residual of the q-integral representation of hermite_h of degree n.

    Even degrees use the j_alpha kernel, odd degrees the j_{alpha+1} kernel;
    normalized by |hermite_h| + 1.
    """
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    _require_lattice_convergence(x, ctx)
    c = moment_constant(ctx)
    w = weight(x, ctx)

    if n % 2 == 0:
        m = n // 2
        shift = q ** m
        power = 2.0 * m + 2.0 * alpha + 1.0
        order = alpha
        pref = ((-1.0) ** m * q ** (-float(m * m) + m * (2.0 * alpha + 3.0))
                * _cached_qpoch(q, 2 * m, q)
                / (c * _cached_gen_qpoch(2 * m, q, alpha) * w))
    else:
        m = (n - 1) // 2
        shift = q ** (m + 1)
        power = 2.0 * m + 2.0 * alpha + 3.0
        order = alpha + 1.0
        # the sign (-1)^m follows from iterating the difference operator an
        # odd number of times: (q-1)^{2m+1} / (1-q)^{2m+1} = -1 absorbs the
        # extra minus that a naive reading of the closed form would give
        pref = ((-1.0) ** m * q ** (-float(m * m) + (m + 1.0) * (2.0 * alpha + 3.0))
                * _cached_qpoch(q, 2 * m + 1, q) * x
                / (c * (1.0 - q ** (2.0 * alpha + 2.0))
                   * _cached_gen_qpoch(2 * m + 1, q, alpha) * w))

    def f(y: float) -> float:
        env = qexp_small(-q * y * y, q2).value
        return _damped(env, lambda: qbessel(shift * x * y, order, "modified", ctx)
                       * y ** power)

    rep = pref * jackson_integral(f, "halfline", ctx).value
    h = hermite_h(n, x, ctx)
    return abs(h - rep) / (abs(h) + 1.0)


@dataclass(frozen=True)
class OrthoCheckParams:
    """Parameters of one orthogonality check."""

    n: int
    m: int
    mode: str  # "discrete_jackson" or "continuous_quadrature"
    quad_points: int = 200
    quad_cutoff: Optional[float] = None


def discrete_orthogonality_rhs(n: int, ctx: QContext) -> float:
    """Closed-form diagonal of the discrete (Jackson) orthogonality."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    tol, mt = ctx.series_tol, ctx.max_terms
    num = (2.0 * (1.0 - q)
           * _qpoch_inf(-q, q2, tol, mt).value ** 2
           * _qpoch_inf(q2, q2, tol, mt).value
           * q ** (-float(n * n)) * _cached_qpoch(q, n, q) ** 2)
    den = (_qpoch_inf(-(q ** (-2.0 * alpha - 1.0)), q2, tol, mt).value
           * _qpoch_inf(-(q ** (2.0 * alpha + 3.0)), q2, tol, mt).value
           * _qpoch_inf(q ** (2.0 * alpha + 2.0), q2, tol, mt).value
           * _cached_gen_qpoch(n, q, alpha))
    return num / den


def _ortho_integrand(n: int, m: int, ctx: QContext):
    alpha = ctx.alpha

    def f(x: float) -> float:
        w = weight(x, ctx)
        return _damped(w, lambda: hermite_h(n, x, ctx) * hermite_h(m, x, ctx)
                       * abs(x) ** (2.0 * alpha + 1.0))

    return f


def _auto_cutoff(n: int, m: int, ctx: QContext) -> float:
    q, alpha = ctx.q, ctx.alpha
    x = 1.0
    for _ in range(200):
        if weight(x, ctx) * x ** (n + m + 2.0 * alpha + 1.0) < 1e-24:
            return x
        x /= q
    return x


def _piecewise_quad(f, cutoff: float, ctx: QContext, limit: int) -> tuple[float, float]:
    """Integrate f over (0, cutoff) on geometric subintervals, summing errors."""
    q = ctx.q
    edges = [0.0]
    x = cutoff * q ** 45
    while x < cutoff:
        edges.append(x)
        x /= q
    edges.append(cutoff)
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = scipy.integrate.quad(f, lo, hi, limit=limit, epsabs=1e-13, epsrel=1e-11)
        total += v
        err += e
    return total, err


def orthogonality(params: OrthoCheckParams, ctx: QContext,
                  tol: Optional[float] = None) -> CheckResult:
    """Check one orthogonality entry (n, m) in the requested mode.

    discrete_jackson     : Jackson line integral against the closed-form
                           diagonal; off-diagonal against the diagonal scale.
    continuous_quadrature: classical adaptive quadrature of
                           d_n d_m h_n h_m w |x|^{2a+1}, expected delta_{nm}.
    """
    n, m = params.n, params.m
    base = {"n": n, "m": m, "q": ctx.q, "alpha": ctx.alpha, "mode": params.mode}

    if params.mode == "discrete_jackson":
        tol = 1e-8 if tol is None else tol
        f = _ortho_integrand(n, m, ctx)
        integral = jackson_integral(f, "line", ctx).value
        scale = math.sqrt(discrete_orthogonality_rhs(n, ctx)
                          * discrete_orthogonality_rhs(m, ctx))
        if n == m:
            residual = abs(integral - scale) / scale
        else:
            residual = abs(integral) / scale
        return CheckResult("discrete_orthogonality", base, residual, tol)

    if params.mode == "continuous_quadrature":
        tol = 1e-6 if tol is None else tol
        d_n = norm_constants(n, ctx)[0]
        d_m = norm_constants(m, ctx)[0]
        f = _ortho_integrand(n, m, ctx)
        g = lambda x: f(x) + f(-x)  # noqa: E731
        cutoff = params.quad_cutoff or _auto_cutoff(n, m, ctx)
        value, err = _piecewise_quad(g, cutoff, ctx, params.quad_points)
        value *= d_n * d_m
        err *= d_n * d_m  # error in the normalized entry, not the raw integral
        if err > tol:
            raise QuadratureFailure(
                f"quadrature error {err} exceeds tolerance {tol} for (n,m)=({n},{m})")
        base["value"] = value
        residual = abs(value - (1.0 if n == m else 0.0))
        return CheckResult("continuous_orthonormality", base, residual, tol)

    raise ArgumentError(f"unknown orthogonality mode: {params.mode!r}")


# ---------------------------------------------------------------------------
# Kernels and summation formulas
# ---------------------------------------------------------------------------

def _kernel_sum(term, ctx: QContext, cap: int = 300) -> float:
    total = 0.0
    below = 0
    for i in range(cap):
        t = term(i)
        total += t
        if abs(t) < ctx.series_tol * max(1.0, abs(total)):
            below += 1
            if below >= 3 and i > 4:
                return total
        else:
            below = 0
    return total


def poisson_kernel_residual(x: float, y: float, which: str, ctx: QContext) -> float:
    """Residual of the Poisson kernel evaluated at one.

    general              : bilinear sum of the generalized family against the
                           second-kind q-Bessel product (x, y > 0 required)
    half_integer_corollary: the alpha = -1/2 Cos_q/Sin_q form
    """
    if abs(x - y) < 1e-8:
        raise DomainError("Poisson kernel residual needs x != y")
    q = ctx.q
    q2 = q * q

    if which == "half_integer_corollary":
        cctx = ctx.with_alpha(-0.5)
        lhs = _kernel_sum(
            lambda i: (hermite_h_scaled(i, x, cctx) * hermite_h_scaled(i, y, cctx)
                       / _cached_qpoch(q, i, q)),
            cctx)
        from .qfunctions import qtrig
        pref = (_qpoch_inf(q, q2, ctx.series_tol, ctx.max_terms).value
                / (_qpoch_inf(q2, q2, ctx.series_tol, ctx.max_terms).value
                   * (x - y)))
        rhs = pref * (qtrig(x, "sin", q) * qtrig(y, "cos", q)
                      - qtrig(x, "cos", q) * qtrig(y, "sin", q))
        return abs(lhs - rhs)

    if which != "general":
        raise ArgumentError(f"unknown Poisson kernel form: {which!r}")
    if x <= 0.0 or y <= 0.0:
        raise DomainError("general Poisson kernel form needs x, y > 0")
    alpha = ctx.alpha
    scale = q ** (alpha + 0.5)
    lhs = _kernel_sum(
        lambda i: (_cached_gen_qpoch(i, q, alpha) / _cached_qpoch(q, i, q) ** 2
                   * hermite_h_scaled(i, scale * x, ctx)
                   * hermite_h_scaled(i, scale * y, ctx)),
        ctx)
    pref = (_qpoch_inf(q2, q2, ctx.series_tol, ctx.max_terms).value
            * (x * y) ** (-alpha)
            / (_qpoch_inf(q ** (2.0 * alpha + 2.0), q2,
                          ctx.series_tol, ctx.max_terms).value
               * (x - y)))
    rhs = pref * (qbessel(2.0 * x, alpha + 1.0, "second_jackson", ctx)
                  * qbessel(2.0 * y, alpha, "second_jackson", ctx)
                  - qbessel(2.0 * x, alpha, "second_jackson", ctx)
                  * qbessel(2.0 * y, alpha + 1.0, "second_jackson", ctx))
    return abs(lhs - rhs)


def bessel_expansion_residual(x: float, ctx: QContext) -> float:
    """Residual of the even-polynomial expansion of the second q-Bessel."""
    if x <= 0.0:
        raise DomainError("Bessel expansion residual needs x > 0")
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    scale = q ** (alpha + 0.5)
    lhs = _kernel_sum(
        lambda i: ((-1.0) ** i * q ** i
                   * _cached_qpoch(q ** (2.0 * alpha + 2.0), i, q2)
                   / _cached_qpoch(q, 2 * i, q)
                   * hermite_h_scaled(2 * i, scale * x, ctx)),
        ctx)
    rhs = x ** (-alpha - 1.0) * qbessel(2.0 * x, alpha + 1.0, "second_jackson", ctx)
    return abs(lhs - rhs)


def rogers_ramanujan_residual(ctx: QContext) -> float:
    """Residual of the Rogers-Ramanujan type summation."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    # the summand arises as q^{2n} (q^{2a+2};q^2)_n (q;q^2)_n / (q;q)_{2n};
    # since (q;q)_{2n} = (q;q^2)_n (q^2;q^2)_n the odd-index factor cancels,
    # leaving a plain q-binomial sum
    lhs = _kernel_sum(
        lambda i: (q ** (2 * i)
                   * _cached_qpoch(q ** (2.0 * alpha + 2.0), i, q2)
                   / _cached_qpoch(q2, i, q2)),
        ctx)
    rhs = (_qpoch_inf(q ** (2.0 * alpha + 4.0), q2, ctx.series_tol, ctx.max_terms).value
           / _qpoch_inf(q2, q2, ctx.series_tol, ctx.max_terms).value)
    return abs(lhs - rhs)
