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
from itertools import count, islice

import numpy as np
from numpy import ndarray  # isinstance(x, np.ndarray) looks the class up on every call

from .context import (ArgumentError, DomainError, NegativeRadicand,
                      NonConvergence, PoleError, QContext,
                      QuadratureFailure)
from .qcore import (_Factorials, _factorials, _gen_qpoch, _qpoch, _qpoch_inf,  # noqa: F401
                    jackson_integral, qderiv_pow, theta)
from .qfunctions import qbessel, qexp_gen, qexp_small
from .report import CheckResult


# ---------------------------------------------------------------------------
# Polynomials and weight
# ---------------------------------------------------------------------------

def hermite_h(n: int, x, ctx: QContext):
    """Generalized discrete q-Hermite II polynomial of degree n at x, by its
    explicit sum; x may be a numpy array."""
    q = ctx.q
    fac = _factorials(q, ctx.alpha).upto(n)
    total = 0.0
    try:
        for k in range(n // 2 + 1):
            total += ((-1.0) ** k * q ** (-2.0 * n * k + k * (2.0 * k + 1.0))
                      * x ** (n - 2 * k) / (fac.qq[k] * fac.gp[n - 2 * k]))
        if isinstance(total, ndarray) and not np.isfinite(total).all():
            raise OverflowError("an array holds the overflow as inf or nan")
    except (OverflowError, ZeroDivisionError) as exc:
        # a power of q or x overflows, or (q;q)_{n,alpha} = (1-q)^n n!_{q,alpha}
        # underflows to 0 with (1-q)^n
        raise DomainError(f"degree-{n} polynomial term leaves double range at "
                          f"x = {x}, q = {q}") from exc
    return fac.qp[n] * total


def hermite_h_scaled(n: int, x, ctx: QContext):
    """q^{n^2/2} times hermite_h(n, x): the overflow-safe kernel scaling.

    The polynomial's dominant coefficient grows like q^{-n^2}; in the
    q^{n^2/2} scaling the three-term recurrence (_scaled_walk) keeps every
    intermediate in double range, at O(n) cost.
    """
    value = next(islice(_scaled_walk(x, ctx), n, None))
    if not np.isfinite(value).all():
        raise DomainError(f"degree-{n} scaled polynomial leaves double range at x = {x}")
    return value


def _scaled_walk(x, ctx: QContext):
    """Yield s_n = q^{n^2/2} h_n(x) for n = 0, 1, 2, ...

    Matching the top two coefficients of the explicit sum gives the
    three-term recurrence x h_n = A_n h_{n+1} + C_n h_{n-1}, with A_n = 1 for
    odd n, A_n = (1 - q^{n+2a+2}) / (1 - q^{n+1}) for even n and
    C_n = q^{1-2n} (1 - q^n).  In the q^{n^2/2} scaling it reads
    s_{n+1} = (q^{n+1/2} x s_n - q (1 - q^n) s_{n-1}) / A_n, from s_0 = 1 and
    s_1 = q^{1/2} (1 - q) x / (1 - q^{2a+2}).
    """
    q, alpha = ctx.q, ctx.alpha
    lead = 1.0 - q ** (2.0 * alpha + 2.0)
    if lead == 0.0:
        raise DomainError(f"(q;q)_(1,alpha) rounds to 0 at q = {q}, alpha = {alpha}")
    prev, cur = 1.0, q ** 0.5 * (1.0 - q) * x / lead
    yield prev
    for n in count(1):
        yield cur
        a = 1.0 if n % 2 else (1.0 - q ** (n + 2.0 * alpha + 2.0)) / (1.0 - q ** (n + 1.0))
        prev, cur = cur, (q ** (n + 0.5) * x * cur - q * (1.0 - q ** n) * prev) / a


def qlaguerre(n: int, order: float, x: float, ctx: QContext) -> float:
    """q-Laguerre polynomial L_n^{(order)}(x; q^2), generalized-factorial form."""
    q = ctx.q
    fac = _factorials(q, order).upto(2 * n)
    total = 0.0
    for k in range(n + 1):
        total += ((-1.0) ** k * q ** (2.0 * k * (k + order)) * x ** k
                  / (fac.gp[2 * k] * fac.qq[n - k]))
    return fac.ab[n] * total


def hermite_via_laguerre(n: int, x: float, ctx: QContext) -> float:
    """hermite_h through its q-Laguerre factorization (independent route)."""
    q, alpha = ctx.q, ctx.alpha
    arg = q ** (-2.0 * alpha - 1.0) * x * x
    fac = _factorials(q, alpha).upto(n)
    try:
        if n % 2 == 0:
            m = n // 2
            return ((-1.0) ** m * q ** (-m * (2.0 * m - 1.0)) * fac.qp[2 * m] / fac.ab[m]
                    * qlaguerre(m, alpha, arg, ctx))
        m = (n - 1) // 2
        return ((-1.0) ** m * q ** (-m * (2.0 * m + 1.0)) * fac.qp[2 * m + 1]
                / fac.ab[m + 1] * x * qlaguerre(m, alpha + 1.0, arg, ctx))
    except OverflowError as exc:
        raise DomainError(f"degree-{n} Laguerre route leaves double range at "
                          f"x = {x}, q = {q}") from exc


def weight(x, ctx: QContext):
    """Orthogonality weight e_{q^2}(-q^{-2 alpha - 1} x^2); even, positive.

    The weight is 1 / (z; q^2)_inf, bit for bit qexp_small(z, q^2) on floats;
    x may be a numpy array, where the product takes the factor count of the
    largest |z|.  As z <= 0 the product is >= 1, and it overflows to inf
    exactly where the weight underflows to 0.
    """
    q = ctx.q
    z = -(q ** (-2.0 * ctx.alpha - 1.0)) * x * x
    return 1.0 / _qpoch_inf(z, q * q, 1e-14, 600).value


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
    fac = _factorials(q, alpha).upto(n)
    d = big_c * q ** (n * n / 2.0) * math.sqrt(fac.gp[n]) / fac.qp[n]
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


# ---------------------------------------------------------------------------
# Structural relations
# ---------------------------------------------------------------------------

RELATION_KINDS = ("generating", "inversion", "forward_shift", "backward_shift",
                  "qdiff", "rodrigues")


def _rel(lhs: float, rhs: float) -> float:
    # polynomial magnitudes reach q^{-n^2}; residuals are meaningful only
    # relative to the identity's own scale
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def relation_residual(kind: str, n: int, point: float, ctx: QContext) -> float:
    """Scale-normalized residual |LHS - RHS| / (1 + |LHS| + |RHS|) of one
    structural relation of the polynomial family.

    generating     : generating function at x = point, z = 0.3
    inversion      : monomial expansion of x^n re-evaluated at point
    forward_shift, backward_shift, qdiff: three-term relations at x = point
    rodrigues      : weight * polynomial vs iterated difference of the weight
    """
    q, alpha = ctx.q, ctx.alpha
    if kind == "generating":
        x = point
        z = 0.3
        lhs = qexp_small(-z * z, q * q).value * qexp_gen(x * z, ctx)
        fac = _factorials(q, alpha)
        rhs = _kernel_sum((q ** (-m / 2.0) * s * z ** m / fac.upto(m).qp[m]
                           for m, s in enumerate(_scaled_walk(x, ctx))), ctx)
        return _rel(lhs, rhs)

    if kind == "inversion":
        x = point
        fac = _factorials(q, alpha).upto(n)
        total = 0.0
        scale = 0.0
        for k in range(n // 2 + 1):
            t = (q ** (-2.0 * n * k + 3.0 * k * k) * hermite_h(n - 2 * k, x, ctx)
                 / (fac.qq[k] * fac.qp[n - 2 * k]))
            total += t
            scale += abs(t)
        gp = fac.gp[n]
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

def _damped(env, x, rest):
    # env * rest(x), where the q-exponential envelope env underflows long
    # before the polynomial or Bessel factors matter: skip them once it is
    # negligibly small.  On arrays rest sees only the points it is needed at.
    if isinstance(env, ndarray):
        out = np.zeros_like(env)
        keep = ~(np.abs(env) < 1e-250)
        if keep.any():
            out[keep] = env[keep] * rest(x[keep])
        return out
    if env == 0.0 or abs(env) < 1e-250:
        return 0.0
    return env * rest(x)


def moment_check(n: int, ctx: QContext) -> float:
    """Relative residual of the even-moment formula of the half-line weight."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q

    def f(y: float) -> float:
        env = qexp_small(-q * y * y, q2).value
        return _damped(env, y, lambda t: t ** (2.0 * n + 2.0 * alpha + 1.0))

    try:
        integral = jackson_integral(f, "halfline", ctx).value
        closed = (moment_constant(ctx) * q ** (-float(n * n) - 2.0 * n * (alpha + 1.0))
                  * _factorials(q, alpha).upto(n).ab[n])
    except OverflowError as exc:
        raise DomainError(f"degree-{n} moment leaves double range at q = {q}, "
                          f"alpha = {alpha}") from exc
    return abs(integral - closed) / abs(closed)


def _lattice_ratio(x: float, ctx: QContext) -> float:
    # limiting ratio -r of the Bessel-transform lattice terms at y = q^{-k}
    return x * x * ctx.q ** (-2.0 * ctx.alpha - 1.0)


def _bessel_transform(x: float, shift: float, order: float, power: float,
                      ctx: QContext) -> float:
    """Half-line Jackson integral of e_{q^2}(-q y^2) j_order(shift x y; q^2) y^power.

    Inside the disc r = x^2 q^{-2a-1} < 1 it is the plain lattice sum.  Outside
    it the lattice terms at y = q^{-k} grow like (-r)^k: the part y < 1 is
    still the Jackson sum, and the divergent part y >= 1 is summed to its
    analytic continuation by _continued_halfline.
    """
    q = ctx.q
    q2 = q * q

    def f(y: float) -> float:
        env = qexp_small(-q * y * y, q2).value
        return _damped(env, y, lambda t: qbessel(shift * x * t, order, "modified", ctx)
                       * t ** power)

    if _lattice_ratio(x, ctx) >= 1.0:
        return _continued_halfline(f, x, shift, order, power, ctx)
    try:
        return jackson_integral(f, "halfline", ctx).value
    except OverflowError as exc:
        raise DomainError(f"integrand leaves double range on the lattice at "
                          f"x = {x}, q = {q}, alpha = {ctx.alpha}") from exc


def bessel_weight_transform(x: float, ctx: QContext) -> float:
    """Residual of the half-line Bessel transform of the weight envelope, inside
    the disc |x| < q^{alpha+1/2} and, by the continued sum, outside it."""
    q, alpha = ctx.q, ctx.alpha
    integral = _bessel_transform(x, 1.0, alpha, 2.0 * alpha + 1.0, ctx)
    c = moment_constant(ctx)
    rhs = c * qexp_small(-(q ** (-2.0 * alpha - 1.0)) * x * x, q * q).value
    scale = max(abs(rhs), abs(c))
    return abs(integral - rhs) / scale


def _continued_halfline(f, x: float, shift: float, order: float, power: float,
                        ctx: QContext) -> float:
    """Half-line Jackson integral of f(y) = e_{q^2}(-q y^2) j_order(shift x y; q^2)
    y^power where its lattice sum diverges, r = x^2 q^{-2a-1} >= 1.

    The points y = q^k, k >= 1, still converge and are summed by
    jackson_integral.  The terms at y = q^{-k}, 0 <= k <= K = -lattice_lo,
    grow like (-r)^k; Wynn's epsilon algorithm (the iterated Shanks
    transform) sums their partial sums to the value of the series' analytic
    continuation.  Those terms are evaluated from f's definition in mpmath.
    Roundoff in the partial sums is about 10^-digits times the largest one,
    so the working precision is -log10(series_tol) + 6 + K log10(r) digits
    (20 + K log10(r) at the default tolerance).

    The sum stops once two successive estimates agree to series_tol relative
    to the scale |small half| + |estimate|.  Raises NonConvergence if the
    window runs out first, if the roundoff of the partial sums comes within
    three digits of that tolerance, or if the two halves cancel below their
    accuracy (that tolerance plus the small half's tail bound), leaving no
    significant digit.
    """
    import mpmath

    small = jackson_integral(lambda y: f(y) if y < 1.0 else 0.0, "halfline", ctx)
    window = -ctx.lattice_lo
    base_digits = 6 + math.ceil(-math.log10(ctx.series_tol))
    mp = mpmath.MPContext()
    mp.dps = base_digits + math.ceil(window * math.log10(_lattice_ratio(x, ctx)))
    q, shift_x, power = mp.mpf(ctx.q), mp.mpf(shift) * x, mp.mpf(power)
    q2 = q * q
    bessel_b = q2 * q2 ** mp.mpf(order)

    partials = []
    table = None
    estimate = None
    for k in range(window + 1):
        y = q ** -k
        # j_order(u; q^2) is the basic hypergeometric 1phi1(0; q^{2 order + 2}; q^2, q^2 u^2)
        t = ((1 - q) * y ** (power + 1) / mp.qp(-q * y * y, q2)
             * mp.qhyper([0], [bessel_b], q2, q2 * (shift_x * y) ** 2))
        partials.append(t + (partials[-1] if partials else 0))
        if len(partials) < 3 or len(partials) % 2 == 0:
            continue
        table = mp.shanks(partials, table)
        previous, estimate = estimate, float(table[-1][-1])
        scale = abs(small.value) + abs(estimate)
        if previous is None or abs(estimate - previous) > ctx.series_tol * scale:
            continue
        if max(abs(p) for p in partials) * 10.0 ** -mp.dps > 1e-3 * ctx.series_tol * scale:
            raise NonConvergence(
                f"continued Jackson lattice sum: partial sums outgrew {mp.dps} digits (x = {x})")
        total = small.value + estimate
        accuracy = ctx.series_tol * scale + small.tail_bound
        if abs(total) <= accuracy:
            raise NonConvergence(
                f"continued Jackson lattice sum cancels to {total:.3g}, below "
                f"its accuracy {accuracy:.3g} (x = {x})")
        return total
    raise NonConvergence(
        f"continued Jackson lattice sum did not settle to tol={ctx.series_tol} within "
        f"{window + 1} lattice points (x^2 q^(-2 alpha - 1) = {_lattice_ratio(x, ctx):.6g})")


def integral_representation_residual(n: int, x: float, ctx: QContext) -> float:
    """Residual of the q-integral representation of hermite_h of degree n.

    Even degrees use the j_alpha kernel, odd degrees the j_{alpha+1} kernel;
    normalized by |hermite_h| + 1.  The q-integral is _bessel_transform, in
    and outside the disc |x| < q^{alpha+1/2}.  Raises NonConvergence where the
    continued sum outside the disc cannot be resolved (see
    _continued_halfline), or where the weight underflows.
    """
    q, alpha = ctx.q, ctx.alpha
    c = moment_constant(ctx)
    w = weight(x, ctx)
    if w == 0.0:
        # the integral side is w times a moderate factor, far below the
        # accuracy of its lattice terms, before the prefactor 1/w overflows
        raise NonConvergence(f"weight underflows at x = {x}: the representation "
                             f"cannot be resolved in double precision")

    fac = _factorials(q, alpha).upto(n)
    if n % 2 == 0:
        m = n // 2
        shift = q ** m
        power = 2.0 * m + 2.0 * alpha + 1.0
        order = alpha
        pref = ((-1.0) ** m * q ** (-float(m * m) + m * (2.0 * alpha + 3.0))
                * fac.qp[2 * m] / (c * fac.gp[2 * m] * w))
    else:
        m = (n - 1) // 2
        shift = q ** (m + 1)
        power = 2.0 * m + 2.0 * alpha + 3.0
        order = alpha + 1.0
        # the sign (-1)^m follows from iterating the difference operator an
        # odd number of times: (q-1)^{2m+1} / (1-q)^{2m+1} = -1 absorbs the
        # extra minus that a naive reading of the closed form would give
        pref = ((-1.0) ** m * q ** (-float(m * m) + (m + 1.0) * (2.0 * alpha + 3.0))
                * fac.qp[2 * m + 1] * x
                / (c * (1.0 - q ** (2.0 * alpha + 2.0)) * fac.gp[2 * m + 1] * w))

    rep = pref * _bessel_transform(x, shift, order, power, ctx)
    h = hermite_h(n, x, ctx)
    return abs(h - rep) / (abs(h) + 1.0)


@dataclass(frozen=True)
class OrthoCheckParams:
    """Parameters of one orthogonality check."""

    n: int
    m: int
    mode: str  # "discrete_jackson" or "continuous_quadrature"


def discrete_orthogonality_rhs(n: int, ctx: QContext) -> float:
    """Closed-form diagonal of the discrete (Jackson) orthogonality."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    tol, mt = ctx.series_tol, ctx.max_terms
    fac = _factorials(q, alpha).upto(n)
    try:
        num = (2.0 * (1.0 - q)
               * _qpoch_inf(-q, q2, tol, mt).value ** 2
               * _qpoch_inf(q2, q2, tol, mt).value
               * q ** (-float(n * n)) * fac.qp[n] ** 2)
    except OverflowError as exc:
        raise DomainError(f"degree-{n} discrete norm leaves double range at "
                          f"q = {q}") from exc
    den = (_qpoch_inf(-(q ** (-2.0 * alpha - 1.0)), q2, tol, mt).value
           * _qpoch_inf(-(q ** (2.0 * alpha + 3.0)), q2, tol, mt).value
           * _qpoch_inf(q ** (2.0 * alpha + 2.0), q2, tol, mt).value
           * fac.gp[n])
    return num / den


def _ortho_integrand(n: int, m: int, ctx: QContext):
    # w h_n h_m |x|^{2a+1}, at a point or on a numpy array of points
    alpha = ctx.alpha

    def f(x):
        return _damped(weight(x, ctx), x,
                       lambda t: hermite_h(n, t, ctx) * hermite_h(m, t, ctx)
                       * abs(t) ** (2.0 * alpha + 1.0))

    return f


def _auto_cutoff(n: int, m: int, ctx: QContext) -> float:
    # the first x = q^{-k}, k >= 0, where w(x) x^{n+m+2a+1} < 1e-24: where the
    # weight underflows to 0, or else compared in logs, as the power alone
    # can overflow
    power = n + m + 2.0 * ctx.alpha + 1.0
    x = 1.0
    for _ in range(200):
        w = weight(x, ctx)
        if w == 0.0 or math.log(w) + power * math.log(x) < math.log(1e-24):
            return x
        x /= ctx.q
    return x


#: tolerance of the continuous orthogonality entries; it also bounds their
#: quadrature error
QUAD_TOL = 1e-6

#: (nodes, weights) of the 20- and 40-node Gauss-Legendre rules on [-1, 1]
_GAUSS_LEGENDRE = tuple(np.polynomial.legendre.leggauss(k) for k in (20, 40))


@lru_cache(maxsize=256)
def _gauss_jacobi(k: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """k-node Gauss-Jacobi rule of the weight (1 + t)^beta on [-1, 1], beta > -1,
    by Golub-Welsch, with its weights divided by (1 + t)^beta at the nodes:
    sum(weights * f(nodes)) then integrates f = (1 + t)^beta times a smooth
    factor as accurately as Gauss-Legendre integrates a smooth f.  The rule
    is cached, so both arrays are read-only."""
    j = np.arange(1.0, k)
    s = 2.0 * j + beta
    diag = np.concatenate(([beta / (beta + 2.0)], beta * beta / (s * (s + 2.0))))
    off = 2.0 * j * (j + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 ** (beta + 1.0) / (beta + 1.0) * vecs[0] ** 2
    weights /= (1.0 + nodes) ** beta
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _piecewise_quad(f, cutoff: float, ctx: QContext) -> tuple[float, float]:
    """Integrate f over (0, cutoff) on the geometric panels [0, cutoff q^45],
    then x 1/q up to cutoff, with a 20- and a 40-node rule on each panel:
    (the 40-node sum, its distance from the 20-node sum).

    f is |x|^{2 alpha + 1} times a factor smooth at 0, as in both callers.
    The panels away from 0 take Gauss-Legendre rules; the first takes the
    Gauss-Jacobi rules of the weight x^{2 alpha + 1}, which stay accurate
    where that power is singular at 0 (alpha < -1/2).  f is called once per
    rule, on the numpy array of all that rule's nodes.  Floating-point
    warnings are silenced here; the callers' gates reject a non-finite
    result.
    """
    q = ctx.q
    edges = [0.0]
    x = cutoff * q ** 45
    while x < cutoff:
        edges.append(x)
        x /= q
    edges.append(cutoff)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half, mid = (hi - lo)[:, None] / 2.0, (hi + lo)[:, None] / 2.0
    sums = []
    with np.errstate(all="ignore"):
        for nodes, weights in _GAUSS_LEGENDRE:
            t, w = np.tile(nodes, (len(lo), 1)), np.tile(weights, (len(lo), 1))
            t[0], w[0] = _gauss_jacobi(len(nodes), 2.0 * ctx.alpha + 1.0)
            points = mid + half * t
            sums.append(np.sum(half * w * f(points.ravel()).reshape(points.shape)))
        coarse, fine = sums
        return float(fine), float(abs(fine - coarse))


def orthogonality(params: OrthoCheckParams, ctx: QContext) -> CheckResult:
    """Check one orthogonality entry (n, m) in the requested mode.

    discrete_jackson     : Jackson line integral against the closed-form
                           diagonal; off-diagonal against the diagonal scale;
                           tolerance 1e-8.
    continuous_quadrature: Gauss-Legendre quadrature (_piecewise_quad) of
                           d_n d_m h_n h_m w |x|^{2a+1}, expected delta_{nm};
                           tolerance QUAD_TOL, which also bounds the quadrature
                           error (QuadratureFailure beyond it, or when the
                           value or its error is not finite).
    """
    n, m = params.n, params.m
    base = {"n": n, "m": m, "q": ctx.q, "alpha": ctx.alpha, "mode": params.mode}

    if params.mode == "discrete_jackson":
        f = _ortho_integrand(n, m, ctx)
        integral = jackson_integral(f, "line", ctx).value
        scale = math.sqrt(discrete_orthogonality_rhs(n, ctx)
                          * discrete_orthogonality_rhs(m, ctx))
        if n == m:
            residual = abs(integral - scale) / scale
        else:
            residual = abs(integral) / scale
        return CheckResult("discrete_orthogonality", base, residual, 1e-8)

    if params.mode == "continuous_quadrature":
        d_n = norm_constants(n, ctx)[0]
        d_m = norm_constants(m, ctx)[0]
        f = _ortho_integrand(n, m, ctx)
        # the line integrand f(x) + f(-x) is 2 f(x) or 0, since h_k has the
        # parity of k and w, |x| are even; one evaluation of f serves, and odd
        # entries vanish exactly (numpy's power is not sign-symmetric to the
        # last bit)
        g = lambda x: (1.0 + (-1.0) ** (n + m)) * f(x)  # noqa: E731
        value, err = _piecewise_quad(g, _auto_cutoff(n, m, ctx), ctx)
        value *= d_n * d_m
        err *= d_n * d_m  # error in the normalized entry, not the raw integral
        if not (math.isfinite(value) and err <= QUAD_TOL):
            raise QuadratureFailure(f"quadrature value {value} with error {err} misses "
                                    f"tolerance {QUAD_TOL} for (n,m)=({n},{m})")
        base["value"] = value
        residual = abs(value - (1.0 if n == m else 0.0))
        return CheckResult("continuous_orthonormality", base, residual, QUAD_TOL)

    raise ArgumentError(f"unknown orthogonality mode: {params.mode!r}")


# ---------------------------------------------------------------------------
# Kernels and summation formulas
# ---------------------------------------------------------------------------

def _kernel_sum(terms, ctx: QContext) -> float:
    """The sum of the iterable terms, stopped once three successive terms fall
    below series_tol relative to the sum; NonConvergence after ctx.max_terms
    terms."""
    total = 0.0
    below = 0
    for i, t in zip(range(ctx.max_terms), terms):
        total += t
        if abs(t) < ctx.series_tol * max(1.0, abs(total)):
            below += 1
            if below >= 3 and i > 4:
                return total
        else:
            below = 0
    raise NonConvergence(f"kernel series did not meet tol={ctx.series_tol} "
                         f"within {ctx.max_terms} terms (sum so far {total!r})")


def _poisson_coefficients(ctx: QContext):
    """Yield c_i = (q;q)_{i,alpha} / (q;q)_i^2 for i = 0, 1, 2, ... as the
    running product c_i = c_{i-1} g_i / (1 - q^i)^2, g_i = 1 - q^i for even i
    and 1 - q^{i+2a+1} for odd i: every factor stays near 1, where
    (q;q)_{i,alpha} = (1-q)^i i!_{q,alpha} underflows with (1-q)^i."""
    q, alpha = ctx.q, ctx.alpha
    c = 1.0
    yield c
    for i in count(1):
        g = 1.0 - q ** (i if i % 2 == 0 else i + 2.0 * alpha + 1.0)
        c *= g / (1.0 - q ** i) ** 2
        yield c


def poisson_kernel_residual(x: float, y: float, which: str, ctx: QContext) -> float:
    """Residual of the Poisson kernel evaluated at one.

    general              : bilinear sum of the generalized family against the
                           second-kind q-Bessel product (x, y > 0 required)
    half_integer_corollary: the alpha = -1/2 Cos_q/Sin_q form

    The bilinear sums walk the scaled polynomials at x and at y by their
    three-term recurrence (_scaled_walk): N terms cost O(N).
    """
    if abs(x - y) < 1e-8:
        raise DomainError("Poisson kernel residual needs x != y")
    q = ctx.q
    q2 = q * q

    if which == "half_integer_corollary":
        cctx = ctx.with_alpha(-0.5)
        fac = _factorials(q, cctx.alpha)
        lhs = _kernel_sum((sx * sy / fac.upto(i).qp[i] for i, (sx, sy)
                           in enumerate(zip(_scaled_walk(x, cctx), _scaled_walk(y, cctx)))),
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
    lhs = _kernel_sum((c * sx * sy for c, sx, sy in zip(
        _poisson_coefficients(ctx), _scaled_walk(scale * x, ctx),
        _scaled_walk(scale * y, ctx))), ctx)
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
    """Residual of the even-polynomial expansion of the second q-Bessel; the
    even scaled polynomials come from one recurrence walk (_scaled_walk)."""
    if x <= 0.0:
        raise DomainError("Bessel expansion residual needs x > 0")
    q, alpha = ctx.q, ctx.alpha
    scale = q ** (alpha + 0.5)
    fac = _factorials(q, alpha)
    lhs = _kernel_sum(((-1.0) ** i * q ** i * fac.upto(2 * i).ab[i] / fac.qp[2 * i] * s
                       for i, s in enumerate(islice(_scaled_walk(scale * x, ctx),
                                                    0, None, 2))), ctx)
    rhs = x ** (-alpha - 1.0) * qbessel(2.0 * x, alpha + 1.0, "second_jackson", ctx)
    return abs(lhs - rhs)


def rogers_ramanujan_residual(ctx: QContext) -> float:
    """Residual of the Rogers-Ramanujan type summation."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    # the summand arises as q^{2n} (q^{2a+2};q^2)_n (q;q^2)_n / (q;q)_{2n};
    # since (q;q)_{2n} = (q;q^2)_n (q^2;q^2)_n the odd-index factor cancels,
    # leaving a plain q-binomial sum
    fac = _factorials(q, alpha)
    lhs = _kernel_sum((q ** (2 * i) * fac.upto(i).ab[i] / fac.qq[i] for i in count()), ctx)
    rhs = (_qpoch_inf(q ** (2.0 * alpha + 4.0), q2, ctx.series_tol, ctx.max_terms).value
           / _qpoch_inf(q2, q2, ctx.series_tol, ctx.max_terms).value)
    return abs(lhs - rhs)
