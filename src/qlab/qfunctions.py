"""q-analogues of the exponential, trigonometric and Bessel functions.

The two Euler q-exponentials are evaluated through their product forms, the
q-trigonometric functions as explicitly real series, and the q-Bessel
functions (Jackson second kind, Hahn-Exton, modified) by their series with
generalized q-shifted factorials.  Also provides the residuals of the
iterated-difference identities on the modified q-Bessel function.
"""

from __future__ import annotations

import math
from itertools import count

from numpy import ndarray  # isinstance(x, np.ndarray) looks the class up on every call

from .context import ArgumentError, DomainError, PoleError, QContext, TruncatedValue
from .qcore import (Points, _factorials, _guarded, _in_range, _qpoch_inf, _sum_series,
                    qderiv_pow)

BESSEL_KINDS = ("second_jackson", "hahn_exton", "modified")


def qexp_big(z: float, q: float) -> TruncatedValue:
    """E_q(z) = (-z; q)_inf, entire in z."""
    _check_base(q)
    p = _qpoch_inf(-z, q)
    if not math.isfinite(p.value):
        raise DomainError(f"E_q({z}) leaves double range at q {q}")
    return p


def qexp_small(z: float, q: float) -> TruncatedValue:
    """e_q(z) = 1 / (z; q)_inf.

    The product form extends the |z| < 1 series to all real z away from
    the poles z = q^{-k}.
    """
    _check_base(q)
    if 0.0 < z < math.inf:
        # the only pole near z is q^-k with k the nearest integer to
        # ln z / -ln q
        k = max(0, round(math.log(z) / -math.log(q)))
        if abs(1.0 - z * q ** k) < 1e-12:
            raise PoleError(f"e_q pole at z={z} (q={q})")
    p = _qpoch_inf(z, q)
    if not math.isfinite(p.value):
        # product overflow: e_q underflows to zero (large negative argument)
        return TruncatedValue(0.0, 0.0, p.terms_used)
    if p.value == 0.0:
        raise PoleError(f"e_q pole at z={z} (q={q})")
    value = 1.0 / p.value
    return TruncatedValue(value, abs(value) * p.tail_bound / max(abs(p.value), 1e-300),
                          p.terms_used)


def _check_base(q: float) -> None:
    if not 0.0 < q < 1.0:
        raise DomainError(f"base must lie in (0, 1), got {q}")


def qtrig(z: float, which: str, q: float) -> float:
    """Cos_q / Sin_q: the real even/odd parts of E_q at imaginary argument.

    Cos_q(z) = sum (-1)^n q^{n(2n-1)} z^{2n} / (q;q)_{2n}
    Sin_q(z) = sum (-1)^n q^{n(2n+1)} z^{2n+1} / (q;q)_{2n+1}
    """
    _check_base(q)
    if which not in ("cos", "sin"):
        raise ArgumentError(f"qtrig expects 'cos' or 'sin', got {which!r}")
    s = 0 if which == "cos" else 1  # the term of index n has degree 2n + s
    fac = _factorials(q, -0.5)  # for (q;q)_n, where alpha does not enter
    return _sum_series(((-1.0) ** n * q ** (n * (2 * n - 1 + 2 * s)) * z ** (2 * n + s)
                        / fac.upto(2 * n + s).qp[2 * n + s] for n in count()),
                       "q-trigonometric series")


@_guarded
def qexp_gen(z: Points, ctx: QContext) -> Points:
    """Generalized q-exponential E_{q,alpha}(z) with generalized factorials;
    z may be a numpy array."""
    q = ctx.q
    fac = _factorials(q, ctx.alpha)
    return _sum_series((q ** (k * (k - 1) / 2.0) * z ** k / fac.upto(k).gp[k] for k in count()),
                       "E_(q,alpha) series", z)


@_guarded
def qbessel(x: Points, order: float, kind: str, ctx: QContext) -> Points:
    """q-Bessel functions of the three kinds used here, order > -1.

    second_jackson: J_order^{(2)}(x; q^2)
    hahn_exton    : J_order^{(3)}(x; q^2)
    modified      : j_order(x; q^2), even and entire in x

    x may be a numpy array, where a value out of double range raises as on a float.
    """
    if kind not in BESSEL_KINDS:
        raise ArgumentError(f"unknown Bessel kind: {kind!r}")
    if order <= -1.0:
        raise DomainError("Bessel order must be > -1")
    q = ctx.q
    q2 = q * q
    if kind == "modified":
        return _sum_series(_bessel_terms(x, order, False, q), "q-Bessel series", x)
    if order != int(order) and ((x <= 0.0).any() if isinstance(x, ndarray) else x <= 0.0):
        raise DomainError("prefactored q-Bessel kinds need x > 0 for fractional order")
    pref = _qpoch_inf(q ** (2.0 * order + 2.0), q2).value / _qpoch_inf(q2, q2).value
    u = x / 2.0 if kind == "second_jackson" else x
    value = pref * u ** order * _sum_series(  # u^order may overflow
        _bessel_terms(u, order, kind == "second_jackson", q), "q-Bessel series", x)
    return _in_range(value, "q-Bessel function", ctx)


def _bessel_terms(u: Points, order: float, second_jackson: bool, q: float):
    """Terms of sum_n (-1)^n w_n u^{2n} / (q;q)_{2n,order}, w_n = q^{2n(n+order)}
    (second Jackson) or q^{n(n+1)} (Hahn-Exton, modified), each the one before
    times u^2 w / d, w and d from the Bessel columns of the factorial table of
    (q, order), so that u**(2n) never overflows on its own and no term forms a
    power."""
    fac = _factorials(q, order)
    t = 1.0
    u2 = u * u
    for chunk in count():
        for w, d in zip(*fac.bessel_chunk(chunk, second_jackson)):
            yield t
            t *= w * u2 / d


@_guarded
def bessel_delta_residual(n: int, lam: float, x: float, parity: str, ctx: QContext) -> float:
    """Residual of the iterated-difference identities on j_alpha.

    even_order: Delta^{2n} j_a(l x) = (-1)^n q^{n(n+1)} l^{2n} (1-q)^{-2n}
                j_a(q^n l x)
    odd_order : Delta^{2n+1} j_a(l x) = (-1)^{n+1} q^{(n+1)(n+2)} l^{2n+2}
                (1-q)^{-(2n+1)} (1-q^{2a+2})^{-1} x j_{a+1}(q^{n+1} l x)

    The left side is computed by iterating the difference operator on a
    function handle; the right side by direct series evaluation.
    """
    if x == 0.0:
        raise DomainError("residual is evaluated away from x = 0")
    if parity not in ("even_order", "odd_order"):
        raise ArgumentError(f"unknown parity: {parity!r}")
    q, alpha = ctx.q, ctx.alpha
    s = int(parity == "odd_order")
    m = n + s  # both sides in one formula: the odd order takes m = n + 1
    lhs = qderiv_pow(lambda t: qbessel.__wrapped__(lam * t, alpha, "modified", ctx),
                     2 * n + s, "delta_alpha", ctx)(x)
    rhs = ((-1.0) ** m * q ** (m * (m + 1.0)) * lam ** (2 * m)
           / ((1.0 - q) ** (2 * n + s) * (1.0 - q ** (2.0 * alpha + 2.0)) ** s)
           * x ** s * qbessel(q ** m * lam * x, alpha + s, "modified", ctx))
    return abs(lhs - rhs)

