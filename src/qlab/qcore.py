"""Foundational q-arithmetic.

q-shifted factorials, generalized q-integers and factorials, q-difference
operators (plain, generalized and even/odd-split variants) and Jackson
q-integrals over the geometric lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy import ndarray  # isinstance(a, np.ndarray) looks the class up on every call

from .context import (ArgumentError, DomainError, NonConvergence, QContext,
                      TruncatedValue)

FunctionHandle = Callable[[float], float]

QDERIV_VARIANTS = (
    "backward",
    "forward",
    "backward_alpha",
    "forward_alpha",
    "delta_alpha",
    "delta_alpha_plus",
)


# ---------------------------------------------------------------------------
# q-shifted factorials and q-numbers
# ---------------------------------------------------------------------------

def qpoch(a: float, n: int, ctx: QContext) -> float:
    """Finite q-shifted factorial (a; q)_n = prod_{k=0}^{n-1} (1 - a q^k)."""
    return _qpoch(a, n, ctx.q)


def _qpoch(a: float, n: int, q: float) -> float:
    if n < 0:
        raise DomainError("qpoch requires n >= 0")
    out = 1.0
    aq = a
    for _ in range(n):
        out *= 1.0 - aq
        aq *= q
    return out


def qpoch_inf(a: float, ctx: QContext) -> TruncatedValue:
    """Infinite q-shifted factorial (a; q)_inf as a truncated product.

    The remainder is controlled relatively: once |a| q^N is small, the
    discarded factors multiply the partial product by at most
    exp(2 |a| q^N / (1 - q)).  A relative criterion keeps the routine
    usable when the partial product itself over/underflows (the weight
    function feeds arguments of magnitude ~ x^2 here).
    """
    return _qpoch_inf(a, ctx.q, ctx.series_tol, ctx.max_terms)


def _qpoch_inf(a, q: float, tol: float, max_terms: int) -> TruncatedValue:
    # a scalar product is a pure function of four floats and recurs often
    # (lattice points, envelopes, the constants of every check), so it is
    # served from a bounded cache; an array is computed afresh, where a
    # product that overflows holds inf
    if isinstance(a, ndarray):
        with np.errstate(over="ignore"):
            return _qpoch_inf_product(a, q, tol, max_terms)
    return _qpoch_inf_cached(float(a), q, tol, max_terms)


def _qpoch_inf_product(a, q: float, tol: float, max_terms: int) -> TruncatedValue:
    # a may be a numpy array: every entry then takes the factor count that
    # the stopping rule gives its largest |a|, and the value is an array
    array = isinstance(a, ndarray)
    peak = top = float(np.max(np.abs(a))) if array else abs(a)
    if top == 0.0:
        return TruncatedValue(np.ones_like(a) if array else 1.0, 0.0, 0)
    out = 1.0
    aq = a.copy() if array else a  # an array is updated in place
    one_minus_q = 1.0 - q
    for k in range(1, max_terms + 1):
        out *= 1.0 - aq
        aq *= q
        top *= q  # |aq|, or the largest |aq| of an array
        s = top / one_minus_q
        # expm1(y) >= y in floating point, so 2 s > tol cannot stop the loop
        if s < 0.5 and 2.0 * s <= tol:
            rel_tail = math.expm1(2.0 * s)
            if rel_tail <= tol:
                if array:
                    tail = np.where(np.isfinite(out), np.abs(out) * rel_tail, np.inf)
                else:
                    tail = abs(out) * rel_tail if math.isfinite(out) else math.inf
                return TruncatedValue(out, tail, k)
    # the loop stops about where |a| q^k / (1 - q) <= tol / 2
    try:
        need = math.log(tol * one_minus_q / 2.0) - math.log(peak)
        need = f"about {max(1, math.ceil(need / math.log(q)))}"
    except (ValueError, OverflowError):  # |a| or tol is inf, NaN or 0
        need = "an unknown number of"
    raise NonConvergence(
        f"(a;q)_inf did not meet tol={tol} within {max_terms} factors (a={a}, q={q}); "
        f"it needs {need} factors"
    )


_qpoch_inf_cached = lru_cache(maxsize=256)(_qpoch_inf_product)


def qnumber(x: float, ctx: QContext) -> float:
    """q-number [[x]]_q = (1 - q^x) / (1 - q)."""
    return _qnumber(x, ctx.q)


def _qnumber(x: float, q: float) -> float:
    return (1.0 - q ** x) / (1.0 - q)


def sym_qnumber(x: float, base: float) -> float:
    """Symmetric q-number [x]_base = (base^x - base^-x) / (base - 1/base)."""
    if base == 1.0:
        raise DomainError("sym_qnumber is undefined at base 1")
    return (base ** x - base ** (-x)) / (base - 1.0 / base)


def gen_qint(n: int, ctx: QContext) -> float:
    """Generalized q-integer: [[n]]_q for even n, [[n + 2 alpha + 1]]_q for odd."""
    return _gen_qint(n, ctx.q, ctx.alpha)


def _gen_qint(n: int, q: float, alpha: float) -> float:
    if n % 2 == 0:
        return _qnumber(float(n), q)
    return _qnumber(n + 2.0 * alpha + 1.0, q)


def gen_qfact(n: int, ctx: QContext) -> float:
    """Generalized q-factorial n!_{q,alpha} = prod_{k=1}^{n} gen_qint(k)."""
    return _gen_qfact(n, ctx.q, ctx.alpha)


def _gen_qfact(n: int, q: float, alpha: float) -> float:
    out = 1.0
    for k in range(1, n + 1):
        out *= _gen_qint(k, q, alpha)
    return out


def gen_qpoch(n: int, ctx: QContext) -> float:
    """Generalized q-shifted factorial (q; q)_{n, alpha} = (1-q)^n n!_{q,alpha}."""
    return _gen_qpoch(n, ctx.q, ctx.alpha)


def _gen_qpoch(n: int, q: float, alpha: float) -> float:
    return (1.0 - q) ** n * _gen_qfact(n, q, alpha)


class _Factorials:
    """The finite q-shifted factorials of one (q, alpha), grown on demand.

    qp[n] = (q;q)_n, qq[n] = (q^2;q^2)_n, ab[n] = (q^{2 alpha + 2};q^2)_n and
    gp[n] = (q;q)_{n,alpha}.  Each list is extended by the running product of
    _qpoch and _gen_qpoch, so every entry is bit-for-bit the value they return.
    """

    def __init__(self, q: float, alpha: float):
        self.q, self.alpha = q, alpha
        self.qp, self.qq, self.ab, self.gp = [1.0], [1.0], [1.0], [1.0]
        self._aq = [q, q * q, q ** (2.0 * alpha + 2.0)]  # next a q^n of qp, qq, ab
        self._gen_qfact = 1.0

    def upto(self, n: int) -> "_Factorials":
        """This table, with every list holding index n."""
        if n < 0:
            raise DomainError("qpoch requires n >= 0")
        q = self.q
        while len(self.gp) <= n:
            for i, (vals, base) in enumerate(((self.qp, q), (self.qq, q * q),
                                              (self.ab, q * q))):
                vals.append(vals[-1] * (1.0 - self._aq[i]))
                self._aq[i] *= base
            k = len(self.gp)
            self._gen_qfact *= _gen_qint(k, q, self.alpha)
            self.gp.append((1.0 - q) ** k * self._gen_qfact)
        return self


@lru_cache(maxsize=256)
def _factorials(q: float, alpha: float) -> _Factorials:
    return _Factorials(q, alpha)


def theta(n: int) -> int:
    """Parity indicator: 1 for even n, 0 for odd n."""
    return 1 if n % 2 == 0 else 0


# ---------------------------------------------------------------------------
# Parity split and q-difference operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParityParts:
    """Even and odd parts of a function of one real variable."""

    even: FunctionHandle
    odd: FunctionHandle


def parity_split(f: FunctionHandle) -> ParityParts:
    """Split f into even part (f(x)+f(-x))/2 and odd part (f(x)-f(-x))/2; the
    parts take a numpy array of points wherever f does."""
    return ParityParts(
        even=lambda x: 0.5 * (f(x) + f(-x)),
        odd=lambda x: 0.5 * (f(x) - f(-x)),
    )


def qderiv(f: FunctionHandle, x: float, variant: str, ctx: QContext) -> float:
    """Apply one of the six q-difference operators to f at x != 0.

    backward        : (f(x) - f(qx)) / ((1-q) x)
    forward         : (f(x/q) - f(x)) / ((1-q) x)
    backward_alpha  : (f(x) - q^{2a+1} f(qx)) / ((1-q) x)
    forward_alpha   : (f(x/q) - q^{2a+1} f(x)) / ((1-q) x)
    delta_alpha     : backward on the even part + backward_alpha on the odd part
    delta_alpha_plus: forward on the even part + forward_alpha on the odd part
    """
    if x == 0.0:
        raise DomainError("q-difference operators are not evaluated at x = 0")
    q = ctx.q
    denom = (1.0 - q) * x
    if variant == "backward":
        return (f(x) - f(q * x)) / denom
    if variant == "forward":
        return (f(x / q) - f(x)) / denom
    shift = q ** (2.0 * ctx.alpha + 1.0)
    if variant == "backward_alpha":
        return (f(x) - shift * f(q * x)) / denom
    if variant == "forward_alpha":
        return (f(x / q) - shift * f(x)) / denom
    parts = parity_split(f)
    if variant == "delta_alpha":
        return (
            qderiv(parts.even, x, "backward", ctx)
            + qderiv(parts.odd, x, "backward_alpha", ctx)
        )
    if variant == "delta_alpha_plus":
        return (
            qderiv(parts.even, x, "forward", ctx)
            + qderiv(parts.odd, x, "forward_alpha", ctx)
        )
    raise ArgumentError(f"unknown q-derivative variant: {variant!r}")


def qderiv_pow(f: FunctionHandle, k: int, variant: str, ctx: QContext) -> FunctionHandle:
    """k-fold composition of a delta-type q-difference operator.

    The handle evaluates f once at each of the 2(k + 1) lattice points +-p_i,
    p_0 = x and p_{i+1} = q p_i (p_i / q for delta_alpha_plus), then applies
    the operator k times to the lists of values.  A level maps the values
    g(+-p_i) to its even and odd halves e_i, o_i and sets g'(p_i) = A + B,
    g'(-p_i) = B - A, with A the difference of the even half and B that of
    the odd half at p_i: the even half is the same at -p_i and the odd half
    is negated, exactly, and so are A and the denominator.  Every operation
    is qderiv's, in qderiv's order, so the value is bit for bit that of k
    nested qderiv calls.
    """
    if variant not in ("delta_alpha", "delta_alpha_plus"):
        raise ArgumentError("qderiv_pow supports the delta variants only")
    if k < 0:
        raise DomainError("qderiv_pow requires k >= 0")
    if k == 0:
        return f
    q = ctx.q
    shift = q ** (2.0 * ctx.alpha + 1.0)
    backward = variant == "delta_alpha"

    def g(x: float) -> float:
        points = [x]
        for _ in range(k):
            points.append(points[-1] * q if backward else points[-1] / q)
        if 0.0 in points[:k]:
            raise DomainError("q-difference operators are not evaluated at x = 0")
        denoms = [(1.0 - q) * p for p in points[:k]]
        plus = [f(p) for p in points]
        minus = [f(-p) for p in points]
        for _ in range(k):
            even = [0.5 * (a + b) for a, b in zip(plus, minus)]
            odd = [0.5 * (a - b) for a, b in zip(plus, minus)]
            if backward:
                ev = [(e0 - e1) / d for e0, e1, d in zip(even, even[1:], denoms)]
                od = [(o0 - shift * o1) / d for o0, o1, d in zip(odd, odd[1:], denoms)]
            else:
                ev = [(e1 - e0) / d for e0, e1, d in zip(even, even[1:], denoms)]
                od = [(o1 - shift * o0) / d for o0, o1, d in zip(odd, odd[1:], denoms)]
            plus = [a + b for a, b in zip(ev, od)]
            minus = [b - a for a, b in zip(ev, od)]
        return plus[0]

    return g


# ---------------------------------------------------------------------------
# Jackson q-integrals
# ---------------------------------------------------------------------------

def jackson_integral(f: FunctionHandle, domain: str, ctx: QContext) -> TruncatedValue:
    """Jackson q-integral over the geometric lattice {q^n}.

    halfline: (1-q) sum_n q^n f(q^n)
    line    : (1-q) sum_n q^n [f(q^n) + f(-q^n)]

    The exponent n runs over [lattice_lo, lattice_hi]; summation proceeds
    outward from n = 0 in both directions and a direction stops once its
    terms have stayed below series_tol (relative to the largest term seen)
    for a few consecutive lattice points.  Where a window edge comes first,
    the terms beyond it are summed as a geometric series t r / (1 - r), with
    t the edge term and r = t / (the term before); tail_bound holds how far
    that sum moves with the ratio one point in, plus rounding, or the whole
    sum if there is no such ratio.  An edge ratio outside (-1, 1) raises
    NonConvergence.
    """
    if domain == "halfline":
        g = f
    elif domain == "line":
        g = lambda x: f(x) + f(-x)  # noqa: E731
    else:
        raise ArgumentError(f"unknown Jackson integral domain: {domain!r}")

    q = ctx.q
    tol = ctx.series_tol
    terms: list[float] = []
    peak = 1.0
    tail = 0.0
    count = 0

    for step, lo, hi in ((1, 0, ctx.lattice_hi), (-1, -1, ctx.lattice_lo)):
        below = 0
        prev = prev2 = math.nan  # the two terms before, in this direction
        n = lo
        while (n <= hi) if step == 1 else (n >= hi):
            xn = q ** n
            t = xn * g(xn)
            count += 1
            mag = abs(t)
            if math.isnan(t):
                raise NonConvergence(f"Jackson integral term is NaN at q^{n}")
            terms.append(t)
            peak = max(peak, mag)
            if mag < tol * peak:
                below += 1
                if below >= 3:
                    # geometric extrapolation of the discarded tail
                    r = q if step == 1 else min(0.9, mag / abs(prev) if prev else q)
                    tail += mag * r / (1.0 - r)
                    break
            else:
                below = 0
            if n == hi and mag >= tol * peak:
                r = t / prev if prev else math.nan
                r0 = prev / prev2 if prev2 else math.nan
                if not -1.0 < r < 1.0:
                    raise NonConvergence(f"Jackson integral terms do not decay geometrically "
                                         f"at lattice edge n={n} (ratio {r:.6g})")
                terms.append(t * r / (1.0 - r))
                tail += (abs(t) * (abs(r - r0) + 1e-15) / ((1.0 - r) * (1.0 - r0))
                         if -1.0 < r0 < 1.0 else abs(terms[-1]))
            prev, prev2 = t, prev
            n += step

    value = (1.0 - q) * math.fsum(terms)
    return TruncatedValue(value, (1.0 - q) * tail, count)
