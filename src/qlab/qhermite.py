"""Generalized discrete q-Hermite II polynomials and their identities.

Polynomial evaluation (direct series and the q-Laguerre route), the
orthogonality weight and normalization constants, and numeric residuals for
the generating function, inversion, shift and difference relations, the
Rodrigues formula, moments, q-integral representations, Poisson kernel at
one, Bessel expansion and the Rogers-Ramanujan type summation.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import lru_cache
from itertools import count, islice

import numpy as np
from numpy import ndarray  # isinstance(x, np.ndarray) looks the class up on every call

from . import context
from .context import (ArgumentError, DomainError, NegativeRadicand,
                      NonConvergence, PoleError, QContext,
                      QuadratureFailure)
from .qcore import (Points, _edge_tail, _enveloped_jackson, _factorials, _guarded, _in_range,
                    _qpoch_inf, _row, _show, _sum_series, gen_qpoch, theta)
from .qfunctions import _bessel_terms, qbessel, qexp_gen, qexp_small, qtrig


# ---------------------------------------------------------------------------
# Polynomials and weight
# ---------------------------------------------------------------------------

@_guarded
def hermite_h(n: int, x: Points, ctx: QContext) -> Points:
    """Generalized discrete q-Hermite II polynomial of degree n at x, by its
    explicit sum; x may be a numpy array."""
    row = iter(_row(_hermite_row, ctx.q, ctx.alpha, n))  # (q;q)_n, a_0, b_0, a_1, b_1, ...
    qp = next(row)
    total = 0.0
    for a, b, m in zip(row, row, range(n, -1, -2)):  # x^m may overflow, or b be 0
        total += a * x ** m / b
    value = qp * total
    # an array holding inf or nan, or a float holding nan, raises through the
    # guard; a float keeps +-inf where its terms overflow (README, known limitations)
    if not np.isfinite(value).all() if isinstance(value, ndarray) else math.isnan(value):
        raise OverflowError("the sum holds an overflow as nan")
    return value


def _hermite_row(fac, n: int) -> array:
    # (q;q)_n, then a_0, b_0, a_1, b_1, ...: term k of hermite_h's sum is a_k x^{n-2k} / b_k,
    # with a_k = (-1)^k q^{-2nk+k(2k+1)} (the power may overflow) and
    # b_k = (q^2;q^2)_k (q;q)_{n-2k,alpha} (it may round to 0)
    q, row = fac.q, array("d", [fac.qp[n]])
    for k in range(n // 2 + 1):
        row.append((-1.0) ** k * q ** (-2.0 * n * k + k * (2.0 * k + 1.0)))
        row.append(fac.qq[k] * fac.gp[n - 2 * k])
    return row


@_guarded
def hermite_h_scaled(n: int, x: Points, ctx: QContext) -> Points:
    """q^{n^2/2} times hermite_h(n, x): the overflow-safe kernel scaling.

    The polynomial's dominant coefficient grows like q^{-n^2}; in the
    q^{n^2/2} scaling the three-term recurrence (_scaled_walk) keeps every
    intermediate in double range, at O(n) cost.
    """
    if n < 0:
        raise DomainError(f"degree {n} is negative: the scaled walk starts at 0")
    value = next(islice(_scaled_walk(x, ctx), n, None))
    if not np.isfinite(value).all():
        raise DomainError(f"degree-{n} scaled polynomial leaves double range at x = {_show(x)}")
    return value


def _scaled_walk(x, ctx: QContext):
    """Yield s_n = q^{n^2/2} h_n(x) for n = 0, 1, 2, ...

    Matching the top two coefficients of the explicit sum gives the
    three-term recurrence x h_n = A_n h_{n+1} + C_n h_{n-1}, with A_n = 1 for
    odd n, A_n = (1 - q^{n+2a+2}) / (1 - q^{n+1}) for even n and
    C_n = q^{1-2n} (1 - q^n).  In the q^{n^2/2} scaling it reads
    s_{n+1} = (q^{n+1/2} x s_n - q (1 - q^n) s_{n-1}) / A_n, from s_0 = 1 and
    s_1 = q^{1/2} (1 - q) x / (1 - q^{2a+2}).  Sent an exponent e (per point on an
    array) in place of next(), it divides the two values it carries by 2^e, exactly.
    """
    q, alpha = ctx.q, ctx.alpha
    lead = 1.0 - q ** (2.0 * alpha + 2.0)
    if lead == 0.0:
        raise DomainError(f"(q;q)_(1,alpha) rounds to 0 at q = {q}, alpha = {alpha}")
    prev, cur = 0.0, np.ones(x.shape) if isinstance(x, ndarray) else 1.0  # s_0 has x's shape
    for n in count():
        shift = yield cur
        if shift is not None:
            prev, cur = np.ldexp(prev, -shift), np.ldexp(cur, -shift)
        a = 1.0 if n % 2 else (1.0 - q ** (n + 2.0 * alpha + 2.0)) / (1.0 - q ** (n + 1.0))
        prev, cur = cur, (q ** 0.5 * (1.0 - q) * x * cur / lead if n == 0
                          else (q ** (n + 0.5) * x * cur - q * (1.0 - q ** n) * prev) / a)


def _log_weight(x: ndarray, ctx: QContext) -> ndarray:
    """log w at the points x, in logs where w underflows: log w = log w(q^K x) -
    sum_{j<K} log(1 + q^{2j} z), z = q^{-2a-1} x^2, with K the fewest steps that take
    every q^{2K} z below 1 - q^2 (there w lies in [1/e, 1])."""
    q, log_q = ctx.q, math.log(ctx.q)
    with np.errstate(divide="ignore"):  # log 0 = -inf at x = 0
        log_z = (-2.0 * ctx.alpha - 1.0) * log_q + 2.0 * np.log(np.abs(x))
        steps = int(max(0.0, np.ceil((log_z.max() - math.log1p(-q * q)) / (-2.0 * log_q))))
        log_w = np.log(weight(q ** steps * x, ctx))
        block = max(1, 4096 // len(x))  # steps per pass: few numpy calls, in cache
        for j in range(0, steps, block):  # log(1 + e^y), in range
            y = log_z + 2.0 * log_q * np.arange(j, min(j + block, steps))[:, None]
            log_w -= (np.maximum(y, 0.0) + np.log1p(np.exp(-np.abs(y)))).sum(axis=0)
    return log_w


def _lattice_log_weight(j: ndarray, ctx: QContext) -> ndarray:
    """log w at the lattice points q^j, j consecutive integers in any order, in O(points):
    _log_weight at the point nearest 0, q^J (J the largest j), and outward from it the
    weight's functional equation w(x) = w(qx) / (1 + q^{-2a-1} x^2) as one cumulative
    sum, log w(q^i) = log w(q^{i+1}) - log(1 + q^{2i-2a-1})."""
    q, top = ctx.q, int(j.max())
    i = np.arange(top - 1.0, j.min() - 1.0, -1.0)  # the outward steps, J - 1 down to min j
    outward = np.cumsum(np.logaddexp(0.0, (2.0 * i - 2.0 * ctx.alpha - 1.0) * math.log(q)))
    log_w = _log_weight(np.array([q ** top]), ctx)[0] - np.concatenate(([0.0], outward))
    return log_w[(top - j).astype(int)]


def _shifted_log_weight(t: ndarray, log_w: ndarray, ctx: QContext) -> tuple[ndarray, ...]:
    """log w at t / q, t and q t from log_w = log w(t), t > 0, by the weight's functional
    equation: w(t / q) = w(t) / (1 + q^{-2a-3} t^2) and w(q t) = (1 + q^{-2a-1} t^2) w(t)."""
    log_q = math.log(ctx.q)
    log_z = (-2.0 * ctx.alpha - 1.0) * log_q + 2.0 * np.log(t)  # z = q^{-2a-1} t^2
    return (log_w - np.logaddexp(0.0, log_z - 2.0 * log_q), log_w,
            log_w + np.logaddexp(0.0, log_z))


def _log_rows(n_max: int, x: ndarray, log_w: ndarray, ctx: QContext) -> tuple[ndarray, ndarray]:
    """The sign and log|sqrt(W) h_k| at the points x, k <= n_max, where log_w holds log W
    at each point (the weight, or the weight times a measure), formed in logs: no row
    under- or overflows.  h_k = q^{-k^2/2} s_k, from _scaled_walk rescaled per point by a
    power of two after each degree."""
    log_q = math.log(ctx.q)
    with np.errstate(divide="ignore"):  # log 0 = -inf: an odd row at x = 0
        sign, log = np.empty((2, n_max + 1, len(x)))
        walk, shift, prev, exponent = _scaled_walk(x, ctx), None, 0.0, np.zeros(x.shape)
        for k in range(n_max + 1):
            cur = walk.send(shift)
            sign[k] = np.sign(cur)
            log[k] = np.log(np.abs(cur)) + exponent * math.log(2.0) + 0.5 * (log_w - k * k * log_q)
            shift = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))[1]
            prev, exponent = np.ldexp(cur, -shift), exponent + shift
    return sign, log


@_guarded
def qlaguerre(n: int, order: float, x: float, ctx: QContext) -> float:
    """q-Laguerre polynomial L_n^{(order)}(x; q^2), generalized-factorial form."""
    row = iter(_row(_laguerre_row, ctx.q, order, n))  # (q^{2order+2};q^2)_n, a_0, b_0, ...
    ab = next(row)
    total = 0.0
    for k, (a, b) in enumerate(zip(row, row)):  # x^k may overflow, or b be 0
        total += a * x ** k / b
    return _in_range(ab * total, f"degree-{n} q-Laguerre polynomial", ctx)


def _laguerre_row(fac, n: int) -> array:
    # (q^{2order+2};q^2)_n, then a_0, b_0, a_1, b_1, ...: term k of qlaguerre's sum is
    # a_k x^k / b_k, with a_k = (-1)^k q^{2k(k+order)} and
    # b_k = (q;q)_{2k,order} (q^2;q^2)_{n-k}, which may underflow to 0 with (1-q)^{2k}
    q, order, row = fac.q, fac.alpha, array("d", [fac.ab[n]])
    fac.upto(2 * n)
    for k in range(n + 1):
        row.append((-1.0) ** k * q ** (2.0 * k * (k + order)))
        row.append(fac.gp[2 * k] * fac.qq[n - k])
    return row


@_guarded
def hermite_via_laguerre(n: int, x: float, ctx: QContext) -> float:
    """hermite_h through its q-Laguerre factorization (independent route)."""
    q, alpha = ctx.q, ctx.alpha
    arg = q ** (-2.0 * alpha - 1.0) * x * x
    s = n % 2  # an odd degree takes the factor x and the order alpha + 1
    return (_row(_laguerre_prefix, q, alpha, n) * x ** s
            * qlaguerre(n // 2, alpha + s, arg, ctx))


def _laguerre_prefix(fac, n: int) -> float:
    # (-1)^m q^{-m(2m-1+2s)} (q;q)_n / (q^{2a+2};q^2)_{m+s}, n = 2m + s: the power may
    # overflow, or the q-shifted factorial underflow to 0
    m, s = divmod(n, 2)
    return (-1.0) ** m * fac.q ** (-m * (2.0 * m - 1.0 + 2 * s)) * fac.qp[n] / fac.ab[m + s]


@_guarded
def weight(x: Points, ctx: QContext) -> Points:
    """Orthogonality weight e_{q^2}(-q^{-2 alpha - 1} x^2); even, positive.

    The weight is 1 / (z; q^2)_inf, bit for bit qexp_small(z, q^2) on floats;
    x may be a numpy array, where the product takes the factor count of the
    largest |z|.  As z <= 0 the product is >= 1, and it overflows to inf
    exactly where the weight underflows to 0.  A z past double range raises
    DomainError, also on an array.
    """
    q = ctx.q
    return 1.0 / _qpoch_inf(-(q ** (-2.0 * ctx.alpha - 1.0)) * x * x, q * q).value


@lru_cache(maxsize=256)
@_guarded
def norm_constant(n: int, ctx: QContext) -> float:
    """Normalization constant d_n of the continuous orthogonality, and of the
    wave function phi_n = d_n sqrt(w) h_n.

    d_n = C q^{n^2/2} sqrt((q;q)_{n,alpha}) / (q;q)_n, where C^2 holds the Gamma
    combination Gamma(-a) Gamma(a+1), the exact reflection value
    -pi / sin(pi a); nonnegative integer a is a pole.  Where (q;q)_{n,alpha}
    or d_n itself underflows to 0, or a product of C^2 leaves the normal doubles
    (_normal_product), it raises DomainError.
    """
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    s = math.sin(math.pi * alpha)
    if abs(s) < 1e-12:
        raise PoleError(f"Gamma reflection pole at alpha={alpha}")
    gamma_prod = -math.pi / s

    radicand = (q ** (-(alpha + 1.0) * (alpha + 0.5)) * _normal_product(q2, "norm_constant", ctx)
                / (gamma_prod * _normal_product(q ** (-2.0 * alpha), "norm_constant", ctx)))
    if radicand <= 0.0:
        raise NegativeRadicand(f"C_alpha radicand {radicand} <= 0 at alpha={alpha}")
    d = (math.sqrt(radicand) * q ** (n * n / 2.0) * math.sqrt(gen_qpoch(n, ctx))
         / _factorials(q, alpha).qp[n])
    if d == 0.0:  # q = 0.05, n = 30: q^{n^2/2} is about 1e-585
        raise DomainError(f"d_{n} underflows to 0 at q = {q}, alpha = {alpha}")
    return d


@_guarded
def moment_constant(ctx: QContext) -> float:
    """The half-line moment constant c; defined for every alpha > -1.

    Raises DomainError where c leaves double range (q = 0.05, alpha = 20:
    c is about 5.4e573), or where a product of it leaves the normal doubles
    (_normal_product).
    """
    q, alpha = ctx.q, ctx.alpha
    what = "moment_constant"
    c = ((1.0 - q)
         * _normal_product(-(q ** (2.0 * alpha + 3.0)), what, ctx)
         * _normal_product(-(q ** (-2.0 * alpha - 1.0)), what, ctx)
         * _normal_product(q * q, what, ctx)
         / (_normal_product(-q, what, ctx) ** 2
            * _normal_product(q ** (2.0 * alpha + 2.0), what, ctx)))
    return _in_range(c, "moment constant", ctx)


def _normal_product(a: float, what: str, ctx: QContext) -> float:
    """(a; q^2)_inf, a factor of the constant what.  DomainError where it rounds to 0
    or into the subnormals, which keep too few digits for a ratio of products: at
    q = 0.999, (q^2;q^2)_inf = e^-818 and (q;q^2)_inf = e^-822 both round to 1.5e-323,
    and norm_constant's d_0 read 0.577 for 3.552."""
    q2 = ctx.q * ctx.q
    p = _qpoch_inf(a, q2).value
    if abs(p) < sys.float_info.min:
        raise DomainError(f"{what}: ({a!r}; q^2)_inf rounds to {p!r}, below the normal "
                          f"doubles, at q = {ctx.q}, alpha = {ctx.alpha}")
    return p


# ---------------------------------------------------------------------------
# Structural relations
# ---------------------------------------------------------------------------

RELATION_KINDS = ("generating", "inversion", "forward_shift", "backward_shift",
                  "qdiff", "rodrigues")


def _rel(lhs: float, rhs: float) -> float:
    # polynomial magnitudes reach q^{-n^2}; residuals are meaningful only
    # relative to the identity's own scale
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


@_guarded
def relation_residual(kind: str, n: int, x: Points, ctx: QContext) -> Points:
    """Scale-normalized residual |LHS - RHS| / (1 + |LHS| + |RHS|) of one
    structural relation of the polynomial family; x may be a numpy array.

    generating     : generating function at x, z = 0.3
    inversion      : monomial expansion of x^n re-evaluated at x
    forward_shift, backward_shift, qdiff: three-term relations at x
    rodrigues      : weight * polynomial vs iterated difference of the weight

    A non-finite residual raises DomainError.
    """
    return _in_range(_relation_residual(kind, n, x, ctx), kind + " relation residual", ctx, x)


def _generating_residual(x, ctx: QContext):
    # the generating relation at z = 0.3 sums every degree: it does not depend on n
    q, z = ctx.q, 0.3
    lhs = qexp_small(-z * z, q * q).value * qexp_gen(x * z, ctx)
    fac = _factorials(q, ctx.alpha)
    rhs = _sum_series((q ** (-m / 2.0) * s * z ** m / fac.upto(m).qp[m]
                       for m, s in enumerate(_scaled_walk(x, ctx))),
                      "generating-function kernel series", x)
    return _rel(lhs, rhs)


#: the generating residual at a float x, which the relation's n = 0 ... 8 checks repeat
_generating_cached = lru_cache(maxsize=256)(_generating_residual)


def _relation_residual(kind: str, n: int, x, ctx: QContext):
    q, alpha = ctx.q, ctx.alpha
    if kind == "generating":
        return (_generating_cached if type(x) is float else _generating_residual)(x, ctx)

    if kind == "inversion":
        row = iter(_row(_inversion_row, q, alpha, n))  # (q;q)_{n,alpha}, a_0, b_0, ...
        gp = next(row)
        total = 0.0
        scale = 0.0
        for k, (a, b) in enumerate(zip(row, row)):
            t = a * hermite_h(n - 2 * k, x, ctx) / b
            total += t
            scale += abs(t)
        return abs(x ** n - gp * total) / (1.0 + abs(x) ** n + gp * scale)

    if kind == "forward_shift":
        lhs = (hermite_h(n, x / q, ctx)
               - q ** ((2.0 * alpha + 1.0) * theta(n + 1)) * hermite_h(n, x, ctx))
        rhs = (q ** (-n) * (1.0 - q ** n) * x * hermite_h(n - 1, x, ctx)
               if n >= 1 else 0.0)
        return _rel(lhs, rhs)

    if kind == "backward_shift":
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
        s = n % 2
        u = 1.0 + q ** (-2.0 * alpha - 1.0) * x * x
        mid = q ** s + q ** (-2.0 * alpha - s) + q ** (n - 1.0 - 2.0 * alpha) * x * x
        return _rel(u * hermite_h(n, q * x, ctx)
                    + q ** (-2.0 * alpha) * hermite_h(n, x / q, ctx),
                    mid * hermite_h(n, x, ctx))

    if kind == "rodrigues":
        if (x == 0.0).any() if isinstance(x, ndarray) else x == 0.0:
            raise DomainError("Rodrigues residual is evaluated away from x = 0")
        pref, a = _row(_rodrigues_row, q, alpha, n)
        # Delta^n w(x) = sum_j a_j w(q^j x) / x^n, one weight per point; differences toward
        # x = 0 amplify roundoff, so the honest scale is the expansion's summed magnitude
        w = [weight(q ** j * x, ctx) for j in range(n + 1)]
        terms = [a_j * w_j for a_j, w_j in zip(a, w)]
        lhs, rhs = w[0] * hermite_h(n, x, ctx), pref / x ** n * sum(terms)
        cond = abs(pref) / abs(x) ** n * sum(map(abs, terms))
        return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs) + cond)

    raise ArgumentError(f"unknown relation kind: {kind!r}")


def _inversion_row(fac, n: int) -> array:
    # (q;q)_{n,alpha}, then a_0, b_0, a_1, b_1, ...: term k of the inversion sum is
    # a_k h_{n-2k}(x) / b_k, with a_k = q^{-2nk+3k^2} (it may overflow) and
    # b_k = (q^2;q^2)_k (q;q)_{n-2k}
    row = array("d", [fac.gp[n]])
    for k in range(n // 2 + 1):
        row.append(fac.q ** (-2.0 * n * k + 3.0 * k * k))
        row.append(fac.qq[k] * fac.qp[n - 2 * k])
    return row


def _rodrigues_row(fac, n: int) -> tuple[float, array]:
    # the Rodrigues prefactor (q - 1)^n q^{-n(n-1)/2} (1/q;1/q)_n / (1/q;1/q)_{n,alpha},
    # where the factors of even k cancel, and the stencil a_j of Delta^n w(x) x^n
    q, alpha = fac.q, fac.alpha
    ratio = math.prod((1.0 - q ** -k) / (1.0 - q ** (-k - 2.0 * alpha - 1.0))
                      for k in range(1, n + 1, 2))
    pref = (q - 1.0) ** n * q ** (-n * (n - 1.0) / 2.0) * ratio
    a = [1.0]
    for k in range(n):
        s_fac = 1.0 if k % 2 == 0 else q ** (2.0 * alpha + 1.0)
        a = [(left - s_fac * right * q ** (-k)) / (1.0 - q)
             for left, right in zip(a + [0.0], [0.0] + a)]
    return pref, array("d", a)


# ---------------------------------------------------------------------------
# Moments, integral representations, orthogonality
# ---------------------------------------------------------------------------

@_guarded
def moment_check(n: int, ctx: QContext) -> float:
    """Relative residual of the even-moment formula of the half-line weight."""
    q, alpha = ctx.q, ctx.alpha
    # the constant first: where it leaves double range the check raises before any walk
    closed = (moment_constant(ctx) * q ** (-float(n * n) - 2.0 * n * (alpha + 1.0))
              * _factorials(q, alpha).upto(n).ab[n])
    integral = _enveloped_jackson(lambda y: y ** (2.0 * n + 2.0 * alpha + 1.0), ctx).value
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
    analytic continuation by _continued_halfline.  Both sum the integrand of
    _lattice_bessel, which calls no qbessel at a lattice point.
    """
    g = _lattice_bessel(shift * x, order, power, ctx.q)
    if _lattice_ratio(x, ctx) >= 1.0:
        return _continued_halfline(g, x, shift, order, power, ctx)
    return _enveloped_jackson(g, ctx).value


def _lattice_bessel(c: float, order: float, power: float, q: float):
    """The integrand g(y) = j_order(c y; q^2) y^power of a Bessel transform at the
    points y = q^n of its Jackson walk, with one _sum_series call per transform.

    Term k of the modified series at u = c y is b_k y^{2k}, b_k its term k at y = 1;
    the column b_0 .. b_{K-1} holds the terms the y = 1 sum took (_bessel_terms,
    _sum_series).  Toward 0 (y <= 1) g sums the column by Horner in y^2.  A term it
    drops, k >= K, is at most |b_k| there, its y = 1 value, so the cut drops no more
    than the y = 1 sum did.  Outward (y > 1) g forms the terms afresh at each point,
    by the series' ratio w_k u^2 / d_k from the factorial table's Bessel columns,
    and sums them to _sum_series' rule: bit for bit the series' value, without its
    two generators.  Stepping the previous point's terms by q^{-2k} instead
    compounds the rounding of q^{-2k} over the walk's steps: near the disc's edge at
    q = 0.95 the transforms came out 100 times less accurate, and no faster.
    """
    tol, fac = context.SERIES_TOL, _factorials(q, order)
    hx, bd = fac.hx, fac.bd  # the ratio's columns, grown in place by bessel_chunk
    column = []
    _sum_series((column.append(t) or t for t in _bessel_terms(c, order, False, q)),
                "q-Bessel series")
    horner = column[::-1]

    def g(y: float) -> float:
        if y <= 1.0:
            z, s = y * y, 0.0
            for b in horner:
                s = s * z + b
            return s * y ** power
        u = c * y
        u2, top = u * u, context.MAX_TERMS
        t, total, below = 1.0, 0.0, 0
        for lo in range(0, top, 16):
            if lo >= len(bd):
                fac.bessel_chunk(lo // 16, False)
            for k in range(lo, min(lo + 16, top)):
                total += t
                if total - total != 0.0:
                    raise DomainError(f"q-Bessel series: partial sum leaves double range "
                                      f"at term {k}")
                scale = abs(total)
                if abs(t) < (tol * scale if scale > 1.0 else tol):
                    below += 1
                    if below >= 3 and k > 4:
                        return total * y ** power
                else:
                    below = 0
                t *= hx[k] * u2 / bd[k]
        raise NonConvergence(f"q-Bessel series: did not meet tol={tol} within {top} terms "
                             f"(u = {u})")

    return g


@_guarded
def bessel_weight_transform(x: float, ctx: QContext) -> float:
    """Residual of the half-line Bessel transform of the weight envelope, inside
    the disc |x| < q^{alpha+1/2} and, by the continued sum, outside it."""
    q, alpha = ctx.q, ctx.alpha
    c = moment_constant(ctx)  # first, as in moment_check
    integral = _bessel_transform(x, 1.0, alpha, 2.0 * alpha + 1.0, ctx)
    rhs = c * qexp_small(-(q ** (-2.0 * alpha - 1.0)) * x * x, q * q).value
    return abs(integral - rhs) / max(abs(rhs), abs(c))


#: the points y = q^{-k}, k <= 40, of the continued sum; its working precision grows with them
_CONTINUED_POINTS = 40


def _continued_halfline(g, x: float, shift: float, order: float, power: float,
                        ctx: QContext) -> float:
    """Half-line Jackson integral of e_{q^2}(-q y^2) g(y), g(y) = j_order(shift x y; q^2)
    y^power, where its lattice sum diverges, r = x^2 q^{-2a-1} >= 1.

    The points y = q^k, k >= 1, still converge and are summed by
    _enveloped_jackson.  The terms at y = q^{-k}, 0 <= k <= K = _CONTINUED_POINTS,
    grow like (-r)^k; Wynn's epsilon algorithm (the iterated Shanks transform)
    sums their partial sums, formed from the integrand's definition in mpmath at
    -log10(SERIES_TOL) + 6 + K log10(r) digits, to the value of the series'
    analytic continuation.  It stops once two successive estimates agree to
    SERIES_TOL relative to |small half| + |estimate|.  Raises NonConvergence if
    the K points run out first, if the roundoff of the partial sums comes within
    three digits of that tolerance, or if the two halves cancel below their
    accuracy (that tolerance plus the small half's tail bound).
    """
    import mpmath

    small = _enveloped_jackson(lambda y: g(y) if y < 1.0 else 0.0, ctx)
    window, tol = _CONTINUED_POINTS, context.SERIES_TOL
    base_digits = 6 + math.ceil(-math.log10(tol))
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
        if previous is None or abs(estimate - previous) > tol * scale:
            continue
        if max(abs(p) for p in partials) * 10.0 ** -mp.dps > 1e-3 * tol * scale:
            raise NonConvergence(
                f"continued Jackson lattice sum: partial sums outgrew {mp.dps} digits (x = {x})")
        total = small.value + estimate
        accuracy = tol * scale + small.tail_bound
        if abs(total) <= accuracy:
            raise NonConvergence(
                f"continued Jackson lattice sum cancels to {total:.3g}, below "
                f"its accuracy {accuracy:.3g} (x = {x})")
        return total
    raise NonConvergence(
        f"continued Jackson lattice sum did not settle to tol={tol} within "
        f"{window + 1} lattice points (x^2 q^(-2 alpha - 1) = {_lattice_ratio(x, ctx):.6g})")


@_guarded
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
    m, s = divmod(n, 2)
    # odd degrees keep the sign (-1)^m: (q-1)^{2m+1} / (1-q)^{2m+1} = -1 absorbs one minus
    pref = ((-1.0) ** m * q ** (-float(m * m) + (m + s) * (2.0 * alpha + 3.0)) * fac.qp[n]
            * (x / (1.0 - q ** (2.0 * alpha + 2.0))) ** s / (c * fac.gp[n] * w))
    rep = pref * _bessel_transform(x, q ** (m + s), alpha + s,
                                   2.0 * (m + s) + 2.0 * alpha + 1.0, ctx)
    h = hermite_h(n, x, ctx)
    return abs(h - rep) / (abs(h) + 1.0)


@_guarded
def discrete_orthogonality_rhs(n: int, ctx: QContext) -> float:
    """Closed-form diagonal of the discrete (Jackson) orthogonality; DomainError where
    it or a product of it leaves double range (_normal_product)."""
    q, alpha = ctx.q, ctx.alpha
    what = "discrete_orthogonality_rhs"
    fac = _factorials(q, alpha).upto(n)
    # q^{-n^2} may overflow, or (q;q)_{n,alpha} underflow to 0 with (1-q)^n
    num = (2.0 * (1.0 - q) * _normal_product(-q, what, ctx) ** 2
           * _normal_product(q * q, what, ctx) * q ** (-float(n * n)) * fac.qp[n] ** 2)
    den = (_normal_product(-(q ** (-2.0 * alpha - 1.0)), what, ctx)
           * _normal_product(-(q ** (2.0 * alpha + 3.0)), what, ctx)
           * _normal_product(q ** (2.0 * alpha + 2.0), what, ctx)
           * fac.gp[n])
    value = _in_range(num / den, f"degree-{n} discrete norm", ctx)
    if value == 0.0:  # q = 0.05, alpha = 20: the diagonal is about 3.3e-574
        raise DomainError(f"degree-{n} discrete norm underflows to 0 at q = {q}")
    return value


@lru_cache(maxsize=256)
def _auto_cutoff(n_max: int, ctx: QContext) -> float:
    # the first x = q^{-k} past which w (h_{n_max} / c)^2 x^{2a+1}, c the leading coefficient,
    # stays below 1e-24 min(1, its peak), in logs (w may underflow where the product is not
    # small), on 16, 48, 112, ... points until it falls below that for good, or x > e^700
    q, beta, x, end = ctx.q, 2.0 * ctx.alpha + 1.0, np.empty(0), np.floor(700.0 / -math.log(ctx.q))
    log_c = math.log(_factorials(q, ctx.alpha).upto(n_max).qp[n_max] / gen_qpoch(n_max, ctx))
    while len(x) < end:
        j = -np.arange(min(2.0 * len(x) + 16.0, end))
        x = q ** j
        log_mass = (2.0 * (_log_rows(n_max, x, _lattice_log_weight(j, ctx), ctx)[1][-1] - log_c)
                    + beta * np.log(x))
        floor = math.log(1e-24) + min(0.0, log_mass.max())
        if log_mass[-1] < floor and (np.diff(log_mass[-3:]) < 0.0).all():
            break
    above = np.flatnonzero(log_mass >= floor)
    return float(x[min(above[-1] + 1, len(x) - 1)]) if above.size else 1.0


#: tolerance of the continuous orthogonality entries; it also bounds their
#: quadrature error
QUAD_TOL = 1e-6


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


@lru_cache(maxsize=16)
def _piecewise_quad(n_max: int, ctx: QContext) -> tuple[ndarray, ndarray, ndarray]:
    """The continuous relation's node table (x, log w(x), weights) of
    int_0^cutoff f(x) x^{2 alpha + 1} dx, f smooth at 0, cutoff = _auto_cutoff(n_max):
    x holds the nodes of a 20- and a 40-node rule on each geometric panel
    [0, cutoff r^45], then x 1/r up to cutoff, and weights @ f(x) is (the
    20-node sum, the 40-node sum).  The first panel takes the Gauss-Jacobi
    rules of the weight x^{2 alpha + 1}, accurate where that power is
    singular at 0 (alpha < -1/2), the others Gauss-Legendre rules (beta = 0).

    The panel ratio is r = min(q, 0.8).  The integrand's singularities are the
    branch point of x^{2 alpha + 1} at 0 and the weight's poles on the imaginary
    axis, the nearest at modulus q^{alpha + 1/2}.  A panel [a, a/r] keeps them all
    outside its Bernstein ellipse of parameter rho = s + sqrt(s^2 - 1),
    s = (1 + r) / (1 - r): rho = 17.9 at r = 0.8, so its 20-node rule errs by about
    rho^-40 = 1e-50 of the integrand's size there.  The first panel's Jacobi rule
    converges only if the panel ends well inside that nearest pole.  At r = q = 0.99
    it ended at 0.64 cutoff = 1.19, past the pole at modulus 1, and 65 entries of
    the orthogonality suite at q in {0.99, 0.995} raised QuadratureFailure; at
    r = 0.8 it ends at 4.4e-5 cutoff, at most 0.012 for q >= 0.8 (cutoff 265 at
    q = 0.8, falling with q).  The cap 0.8 leaves every q <= 0.8 as before.

    The table is cached (about 90 KB an entry), so _gram and selfadjoint_residual form
    log w once per table, and its arrays are read-only."""
    q, beta, cutoff = ctx.q, 2.0 * ctx.alpha + 1.0, _auto_cutoff(n_max, ctx)
    r = min(q, 0.8)
    edges = [0.0]
    x = cutoff * r ** 45
    while x < cutoff:
        edges.append(x)
        x /= r
    edges.append(cutoff)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    half, mid = (hi - lo)[:, None] / 2.0, (hi + lo)[:, None] / 2.0
    points, sums = [], []
    for k in (20, 40):
        t, w = (np.tile(v, (len(lo), 1)) for v in _gauss_jacobi(k, 0.0))
        t[0], w[0] = _gauss_jacobi(k, beta)
        points.append((mid + half * t).ravel())
        with np.errstate(over="ignore"):  # x^beta past double range: inf, which readers reject
            sums.append((half * w).ravel() * points[-1] ** beta)
    x, k = np.concatenate(points), len(points[0])
    weights = np.zeros((2, len(x)))
    weights[0, :k], weights[1, k:] = sums
    table = x, _log_weight(x, ctx), weights
    for a in table:
        a.flags.writeable = False
    return table


def _jackson_nodes(n_max: int, ctx: QContext) -> tuple[ndarray, ndarray, ndarray]:
    """The discrete relation's node table: the Jackson lattice q^j, -K <= j <= J, from
    the quadrature cutoff q^-K (_auto_cutoff), log W at each point, W = (1 - q) x^{2a+2} w
    the lattice's measure times the weight (_lattice_log_weight), and one rule of unit
    weights.  Toward 0 the row sqrt(W) h_k = sqrt((1-q) w) h_k x^{a+1} is c x^{a+1+s} (s
    the parity of k) times 1 + e, |e| <= 2 B x^2 where B x^2 <= 1/4, with
    B = (q^{-2a-1} + 2 q / (1 - q^{2a+2})) / (1 - q^2) from w and h_k's lowest two
    coefficients.  So a product t of two rows of one parity at q^J has the tail
    t r / (1 - r), r = q^{2a+2+2s}, to 8 B q^{2J} r / (1 - r) of t: 1e-3 SERIES_TOL."""
    q, log_q = ctx.q, math.log(ctx.q)
    u = -(2.0 * ctx.alpha + 2.0) * log_q
    log_g = u + math.log(-math.expm1(-u))  # log (1 - r) / r, r = q^{2a+2}
    log_b = np.logaddexp((-2.0 * ctx.alpha - 1.0) * log_q,
                         math.log(2.0 * q) + math.log1p(math.exp(-log_g))) - math.log1p(-q * q)
    room = min(math.log(1e-3 * context.SERIES_TOL / 8.0) + log_g, math.log(0.25)) - log_b
    j = np.arange(round(math.log(_auto_cutoff(n_max, ctx)) / log_q),
                  max(2, math.ceil(room / (2.0 * log_q))) + 1.0)
    return (_in_range(q ** j, "the Jackson lattice", ctx),
            _lattice_log_weight(j, ctx) + math.log1p(-q) + (2.0 * ctx.alpha + 2.0) * log_q * j,
            np.ones((1, len(j))))


@lru_cache(maxsize=256)
def _gram(nodes, n_max: int, ctx: QContext) -> tuple[ndarray, ndarray, ndarray]:
    """The Gram matrices of the rows sqrt(W) h_k, k <= n_max, over a node table
    nodes(n_max, ctx) (_piecewise_quad or _jackson_nodes): its points, log W at each,
    and one row of weights per rule.  Each row from _log_rows is scaled by its largest
    magnitude exp(top[k]), so no product leaves double range: entry (n, m) of rule r is grams[r, n, m] exp(top[n] + top[m]).
    ends holds the scaled rows at the table's first five points and its last one."""
    with np.errstate(all="ignore"):  # the readers reject a non-finite entry
        x, log_w, weights = nodes(n_max, ctx)
        sign, log = _log_rows(n_max, x, log_w, ctx)
        top = log.max(axis=1)
        rows = sign * np.exp(log - top[:, None])
        return np.stack([(rows * w) @ rows.T for w in weights]), top, rows[:, [0, 1, 2, 3, 4, -1]]


def discrete_orthogonality_residual(n: int, m: int, ctx: QContext) -> float:
    """Residual of the discrete (Jackson) orthogonality entry (n, m): the Jackson line
    integral of h_n h_m w |x|^{2a+1}, (1 + (-1)^{n+m}) times the half-line one, from the
    Gram matrix of degrees up to max(8, n, m) over _jackson_nodes' lattice, against the
    closed-form diagonal, and off it against the diagonal scale.  Past the near end the
    tail is t r / (1 - r) with the rows' known ratio r = q^{2a+2+2s}; a far-end term at or
    above SERIES_TOL times its rows' largest values takes the edge rule (_edge_tail), and
    NonConvergence where that tail is not known to SERIES_TOL of the diagonal scale."""
    # root by root: the product of the diagonals overflows from about 1e154 each
    log_scale = sum(0.5 * math.log(discrete_orthogonality_rhs(k, ctx)) for k in (n, m))
    if (n + m) % 2:
        return 0.0
    (gram,), top, ends = _gram(_jackson_nodes, max(8, n, m), ctx)
    t = (ends[n] * ends[m]).tolist()
    total = float(gram[n, m]) + t[-1] / math.expm1(-(2.0 * ctx.alpha + 2.0 + 2 * (n % 2))
                                                  * math.log(ctx.q))
    beyond, bound, _ = _edge_tail(*t[:5]) if abs(t[0]) >= context.SERIES_TOL else (0.0, 0.0, True)
    scale = 2.0 * math.exp(top[n] + top[m] - log_scale)
    if not bound * scale <= context.SERIES_TOL:
        raise NonConvergence(f"Jackson sum of ({n}, {m}): the tail past its far end is "
                             f"known to {bound * scale:.3g}, above tol={context.SERIES_TOL}")
    total += beyond
    return abs(total * scale - 1.0) if n == m else abs(total * scale)


def continuous_orthogonality(n: int, m: int, ctx: QContext) -> float:
    """The continuous orthogonality entry int d_n d_m h_n h_m w |x|^{2a+1} dx over
    the line, read from the Gram matrices of degrees up to max(8, n, m) over the
    quadrature table (_gram); expected delta_{nm} up to an n-independent factor.
    Raises QuadratureFailure when the value or its quadrature error is not
    finite, or when the error in the normalized entry exceeds QUAD_TOL."""
    d_n, d_m = norm_constant(n, ctx), norm_constant(m, ctx)
    (coarse, fine), top, _ = _gram(_piecewise_quad, max(8, n, m), ctx)
    # (1 + (-1)^{n+m}) times the half-line integral (h_k has the parity of k), the
    # row scales put back with d_n d_m in logs, as each alone may leave double range
    with np.errstate(all="ignore"):  # the gate rejects a non-finite value or error
        scale = (1.0 + (-1.0) ** (n + m)) * np.exp(top[n] + top[m] + math.log(d_n) + math.log(d_m))
        value, err = float(fine[n, m] * scale), float(abs(fine[n, m] - coarse[n, m]) * scale)
    if not (math.isfinite(value) and err <= QUAD_TOL):
        raise QuadratureFailure(f"quadrature value {value} with error {err} misses "
                                f"tolerance {QUAD_TOL} for (n,m)=({n},{m})")
    return value


# ---------------------------------------------------------------------------
# Kernels and summation formulas
# ---------------------------------------------------------------------------

@_guarded
def poisson_kernel_residual(x: float, y: float, which: str, ctx: QContext) -> float:
    """Residual of the Poisson kernel evaluated at one.

    general              : bilinear sum of the generalized family against the
                           second-kind q-Bessel product (x, y > 0 required)
    half_integer_corollary: the same sum at alpha = -1/2 against its
                           Cos_q/Sin_q form

    The bilinear sum walks the scaled polynomials at x and at y by their
    three-term recurrence (_scaled_walk): N terms cost O(N).  Its
    coefficients (q;q)_{i,alpha} / (q;q)_i^2 are the factorial table's pc
    column, which stays in range where (1-q)^i underflows.
    """
    if abs(x - y) < 1e-8:
        raise DomainError("Poisson kernel residual needs x != y")
    q = ctx.q
    q2 = q * q
    if which == "half_integer_corollary":
        ctx = ctx.with_alpha(-0.5)
    elif which != "general":
        raise ArgumentError(f"unknown Poisson kernel form: {which!r}")
    elif x <= 0.0 or y <= 0.0:
        raise DomainError("general Poisson kernel form needs x, y > 0")
    alpha = ctx.alpha
    scale = q ** (alpha + 0.5)
    fac = _factorials(q, alpha)
    lhs = _sum_series((fac.upto(i).pc[i] * sx * sy for i, (sx, sy) in enumerate(zip(
        _scaled_walk(scale * x, ctx), _scaled_walk(scale * y, ctx)))), "Poisson kernel series")

    if which == "half_integer_corollary":
        pref = _qpoch_inf(q, q2).value / (_qpoch_inf(q2, q2).value * (x - y))
        rhs = pref * (qtrig(x, "sin", q) * qtrig(y, "cos", q)
                      - qtrig(x, "cos", q) * qtrig(y, "sin", q))
        return abs(lhs - rhs)
    pref = (_qpoch_inf(q2, q2).value * (x * y) ** (-alpha)
            / (_qpoch_inf(q ** (2.0 * alpha + 2.0), q2).value * (x - y)))
    rhs = pref * (qbessel(2.0 * x, alpha + 1.0, "second_jackson", ctx)
                  * qbessel(2.0 * y, alpha, "second_jackson", ctx)
                  - qbessel(2.0 * x, alpha, "second_jackson", ctx)
                  * qbessel(2.0 * y, alpha + 1.0, "second_jackson", ctx))
    return abs(lhs - rhs)


@_guarded
def bessel_expansion_residual(x: float, ctx: QContext) -> float:
    """Residual of the even-polynomial expansion of the second q-Bessel; the
    even scaled polynomials come from one recurrence walk (_scaled_walk)."""
    if x <= 0.0:
        raise DomainError("Bessel expansion residual needs x > 0")
    q, alpha = ctx.q, ctx.alpha
    scale = q ** (alpha + 0.5)
    fac = _factorials(q, alpha)
    lhs = _sum_series(((-1.0) ** i * q ** i * fac.upto(2 * i).ab[i] / fac.qp[2 * i] * s
                       for i, s in enumerate(islice(_scaled_walk(scale * x, ctx),
                                                    0, None, 2))),
                      "Bessel expansion kernel series")
    rhs = x ** (-alpha - 1.0) * qbessel(2.0 * x, alpha + 1.0, "second_jackson", ctx)
    return abs(lhs - rhs)


@_guarded
def rogers_ramanujan_residual(ctx: QContext) -> float:
    """Residual of the Rogers-Ramanujan type summation."""
    q, alpha = ctx.q, ctx.alpha
    q2 = q * q
    # the summand arises as q^{2n} (q^{2a+2};q^2)_n (q;q^2)_n / (q;q)_{2n};
    # since (q;q)_{2n} = (q;q^2)_n (q^2;q^2)_n the odd-index factor cancels,
    # leaving a plain q-binomial sum
    fac = _factorials(q, alpha)
    lhs = _sum_series((q ** (2 * i) * fac.upto(i).ab[i] / fac.qq[i] for i in count()),
                      "Rogers-Ramanujan kernel series")
    rhs = _qpoch_inf(q ** (2.0 * alpha + 4.0), q2).value / _qpoch_inf(q2, q2).value
    return abs(lhs - rhs)
