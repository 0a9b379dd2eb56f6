"""Foundational q-arithmetic.

q-shifted factorials, the one summation routine of the infinite series,
generalized q-integers and factorials, q-difference operators (plain,
generalized and even/odd-split variants) on one lattice engine, and Jackson
q-integrals over the geometric lattice.
"""

from __future__ import annotations

import inspect
import math
from array import array
from functools import lru_cache, wraps
from itertools import count, islice
from typing import Callable, Sequence

import numpy as np
from numpy import ndarray  # isinstance(a, np.ndarray) looks the class up on every call

from . import context
from .context import (ArgumentError, DomainError, NonConvergence, QContext,
                      TruncatedValue)

FunctionHandle = Callable[[float], float]

#: a point or a numpy array of points: the x of the functions that take arrays
Points = float | ndarray


# ---------------------------------------------------------------------------
# q-shifted factorials and q-numbers
# ---------------------------------------------------------------------------

def qpoch(a: float, n: int, ctx: QContext) -> float:
    """Finite q-shifted factorial (a; q)_n = prod_{k=0}^{n-1} (1 - a q^k)."""
    return _in_range(_qpoch(a, n, ctx.q), f"({a}; q)_{n}", ctx)


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
    function feeds arguments of magnitude ~ x^2 here).  A product that
    leaves double range raises DomainError.
    """
    p = _qpoch_inf(a, ctx.q)
    _in_range(p.value, "(a;q)_inf", ctx)
    return p


def _qpoch_inf(a, q: float) -> TruncatedValue:
    # a scalar product recurs often (lattice points, envelopes, the constants of every
    # check) and is cached; an array is formed afresh, inf where it overflows
    if isinstance(a, ndarray):
        with np.errstate(over="ignore"):
            return _qpoch_inf_product(a, q)
    return _qpoch_inf_cached(float(a), q)


def _qpoch_inf_product(a, q: float) -> TruncatedValue:
    # a may be a numpy array: every entry then takes the factor count that
    # the stopping rule gives its largest |a|, and the value is an array
    array = isinstance(a, ndarray)
    top = float(np.max(np.abs(a))) if array else abs(a)
    if top == 0.0:
        return TruncatedValue(np.ones_like(a) if array else 1.0, 0.0, 0)
    if not top < math.inf:
        raise DomainError(f"(a;q)_inf needs a finite argument (a={_show(a)}, q={q})")
    tol = context.SERIES_TOL
    one_minus_q = 1.0 - q
    # the loop stops about where |a| q^k / (1 - q) <= tol / 2
    need = math.ceil((math.log(tol * one_minus_q / 2.0) - math.log(top)) / math.log(q))
    if need <= context.MAX_TERMS:
        out = 1.0
        aq = 0.0 if array else a  # an array runs the loop for its factor count alone
        for k in range(1, context.MAX_TERMS + 1):
            out *= 1.0 - aq
            aq *= q
            top *= q  # |aq|, or the largest |aq| of an array
            s = top / one_minus_q
            # expm1(y) >= y in floating point, so 2 s > tol cannot stop the loop
            if s < 0.5 and 2.0 * s <= tol:
                rel_tail = math.expm1(2.0 * s)
                if rel_tail <= tol:
                    if array:
                        out = _array_product(a, q, k)
                        tail = np.where(np.isfinite(out), np.abs(out) * rel_tail, np.inf)
                    else:
                        tail = abs(out) * rel_tail if math.isfinite(out) else math.inf
                    return TruncatedValue(out, tail, k)
    raise NonConvergence(f"(a;q)_inf needs about {max(1, need)} factors to meet tol={tol}, "
                         f"beyond the ceiling of {context.MAX_TERMS} (a={_show(a)}, q={q})")


def _array_product(a: ndarray, q: float, k: int) -> ndarray:
    """prod_{i<k} (1 - a q^i) on an array, multiplied in the scalar loop's order, so bit for
    bit its value.  A small array (at most 256 points, 2^18 factors in all) forms every
    factor in one table: row i holds a q^i, by multiply.accumulate down a column of q, and
    one multiply.reduce along axis 0 takes the product.  At 64 points that took 2-5 times
    less time than one pass a factor, and at 512 points more, so a larger array multiplies
    its factors in a loop, one pass over the points each."""
    if a.size <= 256 and a.size * k <= 1 << 18:
        table = np.empty((k,) + a.shape)
        table[0], table[1:] = a, q
        np.multiply.accumulate(table, axis=0, out=table)
        return np.multiply.reduce(np.subtract(1.0, table, out=table), axis=0)
    out, aq = 1.0, a.copy()  # a is the caller's, left as it was
    for _ in range(k):
        out *= 1.0 - aq
        aq *= q
    return out


_qpoch_inf_cached = lru_cache(maxsize=256)(_qpoch_inf_product)


def _sum_series(terms, what: str, x: Points = 0.0) -> Points:
    """The sum of the iterable terms: every infinite series is summed here.

    Stops once three successive terms fall below SERIES_TOL relative to
    max(1, |sum|), from the sixth term on, so a lone small term (a polynomial
    value near a zero) does not end the sum.  Raises DomainError naming what
    when forming a term overflows or divides by zero, or when the partial sum
    is inf or NaN; NonConvergence after MAX_TERMS terms.

    Where the caller's point x is a numpy array, the terms are arrays of its
    shape (or floats, such as a first term 1.0, that stand for one) and the
    sum is an array: each element takes terms until it meets the rule on its
    own, and the loop runs until every element has; an element that raises
    raises for the whole array.
    """
    tol = context.SERIES_TOL
    if isinstance(x, ndarray):
        total = np.zeros(x.shape)
        below = np.zeros(x.shape, dtype=int)
        live = np.ones(x.shape, dtype=bool)
        with np.errstate(all="ignore"):  # the terms of an element that has stopped may overflow
            try:
                for i, t in enumerate(islice(terms, context.MAX_TERMS)):
                    total += np.where(live, t, 0.0)
                    if not np.isfinite(total).all():
                        raise DomainError(f"{what}: partial sum leaves double range at term {i}")
                    small = np.abs(t) < tol * np.maximum(np.abs(total), 1.0)
                    below = (below + 1) * small
                    if i > 4:
                        live &= below < 3
                        if not live.any():
                            return total
            except (OverflowError, ZeroDivisionError) as exc:
                raise DomainError(f"{what}: a term leaves double range") from exc
        raise NonConvergence(f"{what}: did not meet tol={tol} within {context.MAX_TERMS} "
                             f"terms (sums so far {_show(total)})")
    total = 0.0
    below = 0
    try:
        for i, t in enumerate(islice(terms, context.MAX_TERMS)):
            total += t
            if total - total != 0.0:
                raise DomainError(f"{what}: partial sum leaves double range at term {i}")
            scale = abs(total)  # max(1, |total|), without the slower builtin call
            if abs(t) < (tol * scale if scale > 1.0 else tol):
                below += 1
                if below >= 3 and i > 4:
                    return total
            else:
                below = 0
    except (OverflowError, ZeroDivisionError) as exc:  # a factorial may round to 0
        raise DomainError(f"{what}: a term leaves double range") from exc
    raise NonConvergence(f"{what}: did not meet tol={tol} within {context.MAX_TERMS} "
                         f"terms (sum so far {total!r})")


def _guarded(fn):
    """fn, where an OverflowError or ZeroDivisionError (a power past double
    range, a factorial rounded to 0) raises a DomainError naming the call, and
    a numpy array given to its parameter annotated Points runs without numpy's
    warnings: the one place overflow is mapped.  Hot helpers go without it."""
    params = inspect.signature(fn, eval_str=True).parameters
    at, key = next(((i, k) for i, (k, p) in enumerate(params.items())
                    if p.annotation == Points), (len(params), None))

    @wraps(fn)
    def guarded(*args, **kwargs):
        try:
            if isinstance(args[at] if at < len(args) else kwargs.get(key), ndarray):
                with np.errstate(all="ignore"):
                    return fn(*args, **kwargs)
            return fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            shown = [*map(_show, args), *(f"{k}={_show(v)}" for k, v in kwargs.items())]
            raise DomainError(f"{fn.__name__}({', '.join(shown)}) leaves double range") from exc

    return guarded


@_guarded
def qnumber(x: float, ctx: QContext) -> float:
    """q-number [[x]]_q = (1 - q^x) / (1 - q)."""
    if not math.isfinite(x):
        raise DomainError(f"qnumber needs a finite x, got {x}")
    return _qnumber(x, ctx.q)


def _qnumber(x: float, q: float) -> float:
    return (1.0 - q ** x) / (1.0 - q)


@_guarded
def sym_qnumber(x: float, base: float) -> float:
    """Symmetric q-number [x]_base = (base^x - base^-x) / (base - 1/base)."""
    if not 0.0 < base < math.inf or base == 1.0:
        raise DomainError(f"sym_qnumber needs a base in (0, 1) or (1, inf), got {base}")
    if not math.isfinite(x):
        raise DomainError(f"sym_qnumber needs a finite x, got {x}")
    return (base ** x - base ** (-x)) / (base - 1.0 / base)


@_guarded
def gen_qint(n: int, ctx: QContext) -> float:
    """Generalized q-integer: [[n]]_q for even n, [[n + 2 alpha + 1]]_q for odd."""
    return _gen_qint(n, ctx.q, ctx.alpha)


def _gen_qint(n: int, q: float, alpha: float) -> float:
    return _qnumber(float(n) if n % 2 == 0 else n + 2.0 * alpha + 1.0, q)


def gen_qfact(n: int, ctx: QContext) -> float:
    """Generalized q-factorial n!_{q,alpha} = prod_{k=1}^{n} gen_qint(k)."""
    return _in_range(_factorials(ctx.q, ctx.alpha).upto(n).gf[n], f"{n}!_(q,alpha)", ctx)


def _in_range(value: Points, what: str, ctx: QContext, x: Points | None = None) -> Points:
    # as q -> 1 factorials, sums and products overflow at large n or |x|,
    # and (1-q)^n underflows; an array is in range where all of it is.  The message
    # names the point x, where given, only when it raises
    if not (np.isfinite(value).all() if isinstance(value, ndarray) else math.isfinite(value)):
        where = "" if x is None else f" at x = {_show(x)}"
        raise DomainError(f"{what}{where} leaves double range at q = {ctx.q}, alpha = {ctx.alpha}")
    return value


def _show(x) -> str:
    # x in a message: an array, of up to thousands of points, by its size and range
    return (f"{x.size} points in [{x.min(initial=np.inf):.6g}, {x.max(initial=-np.inf):.6g}]"
            if isinstance(x, ndarray) else f"{x}")


def gen_qpoch(n: int, ctx: QContext) -> float:
    """Generalized q-shifted factorial (q; q)_{n, alpha} = (1-q)^n n!_{q,alpha};
    it is positive, so where it underflows to 0 it raises DomainError."""
    value = _in_range(_factorials(ctx.q, ctx.alpha).upto(n).gp[n], f"(q;q)_({n},alpha)", ctx)
    if value == 0.0:  # q = 0.99, alpha = 0.25, n = 170: the product is about 1e-60
        raise DomainError(f"(q;q)_({n},alpha) underflows to 0 at q = {ctx.q}, "
                          f"alpha = {ctx.alpha}")
    return value


class _Factorials:
    """The finite q-shifted factorials of one (q, alpha), grown on demand: the
    one place they are formed.

    qp[n] = (q;q)_n, qq[n] = (q^2;q^2)_n and ab[n] = (q^{2 alpha + 2};q^2)_n
    are the running products of _qpoch, bit for bit.  gf[n] = n!_{q,alpha} is
    the running product of the generalized q-integers g_k / (1 - q), where
    g_k = 1 - q^k for even k and 1 - q^{k + 2 alpha + 1} for odd k, and
    gp[n] = (q;q)_{n,alpha} = (1 - q)^n gf[n].  pc[n] = (q;q)_{n,alpha} / (q;q)_n^2,
    the Poisson kernel's coefficient, is the running product of the factors
    g_k / (1 - q^k)^2, which stay near 1: it stays in range where gp and qp
    underflow with (1 - q)^n.  gp is (1 - q)^n gf[n] on purpose, not the
    product of the g_k: near q = 1 it underflows to 0 at large n, and that 0
    makes hermite_h's cancelling explicit sum raise instead of returning a
    wrong finite value.

    The q-Bessel series of order alpha read the ratio of their terms n + 1 and n,
    less the u^2, as a numerator over bd[n] = (1 - q^{2n+2})(1 - q^{2 alpha + 2 + 2n}):
    hx[n] = -q^{2n+2} (Hahn-Exton and modified) or j2[n] = -q^{4n + 2 alpha + 2}
    (second Jackson).  bessel_chunk grows the three columns in chunks of 16.

    The explicit sums of one degree n read their x-independent parts, formed from
    the columns above, through _row.
    """

    def __init__(self, q: float, alpha: float):
        self.q, self.alpha = q, alpha
        self.qp, self.qq, self.ab = [1.0], [1.0], [1.0]
        self.gf, self.gp, self.pc = [1.0], [1.0], [1.0]
        # unboxed doubles: a float object and its list slot take four times the memory,
        # and the cache holds a table for every (q, Bessel order) too
        self.hx, self.j2, self.bd = array("d"), array("d"), array("d")
        self._aq = [q, q * q, q ** (2.0 * alpha + 2.0)]  # next a q^n of qp, qq, ab

    def upto(self, n: int) -> "_Factorials":
        """This table, with every list holding index n."""
        if n < 0:
            raise DomainError(f"degree {n} is negative: the q-factorial table starts at 0")
        q = self.q
        while len(self.gp) <= n:
            for i, (vals, base) in enumerate(((self.qp, q), (self.qq, q * q),
                                              (self.ab, q * q))):
                vals.append(vals[-1] * (1.0 - self._aq[i]))
                self._aq[i] *= base
            k = len(self.gp)
            g = 1.0 - q ** (k if k % 2 == 0 else k + 2.0 * self.alpha + 1.0)
            self.gf.append(self.gf[-1] * (g / (1.0 - q)))
            self.gp.append((1.0 - q) ** k * self.gf[-1])
            self.pc.append(self.pc[-1] * (g / (1.0 - q ** k) ** 2))
        return self

    def bessel_chunk(self, chunk: int, second_jackson: bool) -> tuple[array, array]:
        """The entries n = 16 chunk ... 16 chunk + 15 of the numerator column, j2
        (second Jackson) or hx, and of bd; the columns grow 16 entries at a time
        (on a series-grid run, 81 % of the series stop within 16 terms, over 99 %
        within 32)."""
        lo = 16 * chunk
        q, shift = self.q, 2.0 * self.alpha + 2.0
        for n in range(len(self.bd), lo + 16):
            self.bd.append((1.0 - q ** (2 * n + 2)) * (1.0 - q ** (shift + 2 * n)))
            self.hx.append(-q ** (2 * (n + 1)))
            self.j2.append(-q ** (2.0 * (2 * n + 1 + self.alpha)))
        return (self.j2 if second_jackson else self.hx)[lo:lo + 16], self.bd[lo:lo + 16]


@lru_cache(maxsize=256)
def _factorials(q: float, alpha: float) -> _Factorials:
    return _Factorials(q, alpha)


@lru_cache(maxsize=4096)  # a series-grid run forms 3648 rows, `qlab verify` 414
def _row(build, q: float, alpha: float, n: int):
    """build(table, n), the x-independent parts of degree n of one explicit sum, with
    the factorial table of (q, alpha) holding index n.  A build that raises (a q-power
    past double range) is not cached."""
    return build(_factorials(q, alpha).upto(n), n)


def theta(n: int) -> int:
    """Parity indicator: 1 for even n, 0 for odd n."""
    return 1 if n % 2 == 0 else 0


# ---------------------------------------------------------------------------
# q-difference operators and the lattice engine
# ---------------------------------------------------------------------------

def _lattice_power(f, x, k: int, stencil, reach: tuple[int, int], q) -> list:
    """The values at x of the levels 0..k of a lattice operator's powers on f.

    The operator's value at t reads the even and odd halves of its argument
    g at t q^j, lo <= j <= hi (reach = (lo, hi)).  f is evaluated once at
    each lattice point +-x q^i, k lo <= i <= k hi.  Each level splits the
    values into the halves e = (g(p) + g(-p)) / 2 and o = (g(p) - g(-p)) / 2,
    listed by increasing i, and stencil(ts, even, odd) returns the new
    values at +t and at -t for the level's points ts; even[i - lo + j] is
    e(ts[i] q^j).  The list stops before a level that would divide by a point
    rounded to 0.  x may be a float, an mpmath number or a numpy array.
    """
    lo, hi = reach
    pts = [x]
    for _ in range(-lo * k):
        pts.insert(0, pts[0] / q)
    for _ in range(hi * k):
        pts.append(pts[-1] * q)
    top = k  # the last level that divides by no point rounded to 0
    if k and (np.any(np.array(pts) == 0.0) if isinstance(x, ndarray) else 0.0 in pts):
        # the zeros run from z on; level j divides by pts up to len - 1 - hi (k - j + 1)
        z = next(i for i, p in enumerate(pts) if np.any(p == 0.0))
        top = max(0, k - (len(pts) - 1 - z) // hi) if hi else 0
        pts = pts[-lo * (k - top):len(pts) - hi * (k - top)]
    plus = [f(p) for p in pts]
    minus = [f(-p) for p in pts]
    levels = [plus[-lo * top]]
    for j in range(top - 1, -1, -1):
        pts = pts[-lo:len(pts) - hi]
        even = [0.5 * (a + b) for a, b in zip(plus, minus)]
        odd = [0.5 * (a - b) for a, b in zip(plus, minus)]
        plus, minus = stencil(pts, even, odd)
        levels.append(plus[-lo * j])
    return levels


def _level(levels: Sequence, k: int):
    if len(levels) <= k:  # the _lattice_power list stops short
        raise DomainError("lattice operators are not evaluated at x = 0")
    return levels[k]


#: Delta_alpha reads t and q t, Delta_alpha^+ reads t / q and t
_DELTA_REACH = {"delta_alpha": (0, 1), "delta_alpha_plus": (-1, 0)}


def _delta_stencil(q, alpha):
    # with the halves listed by increasing powers of q, both variants take
    # A = (e_i - e_{i+1}) / ((1-q) t) and B = (o_i - q^{2a+1} o_{i+1}) / ((1-q) t);
    # at -t, A and the denominator change sign
    shift = q ** (2.0 * alpha + 1.0)

    def stencil(ts, even, odd):
        plus, minus = [], []
        for e0, e1, o0, o1, t in zip(even, even[1:], odd, odd[1:], ts):
            d = (1.0 - q) * t
            a, b = (e0 - e1) / d, (o0 - shift * o1) / d
            plus.append(a + b)
            minus.append(b - a)
        return plus, minus

    return stencil


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
    if variant in _DELTA_REACH:
        return _lattice_power(f, x, 1, _delta_stencil(q, ctx.alpha), _DELTA_REACH[variant], q)[1]
    raise ArgumentError(f"unknown q-derivative variant: {variant!r}")


def qderiv_pow(f: FunctionHandle, k: int, variant: str, ctx: QContext) -> FunctionHandle:
    """k-fold composition of a delta-type q-difference operator.

    The handle evaluates f once at each of the 2(k + 1) lattice points, and
    its value is bit for bit that of k nested qderiv calls.  With mpmath
    numbers for q and alpha, and an f returning them, it runs in mpmath.
    """
    levels = qderiv_levels(f, k, variant, ctx)
    return f if k == 0 else lambda x: _level(levels(x), k)


def qderiv_levels(f: FunctionHandle, k: int, variant: str, ctx: QContext) -> Callable:
    """The handle x -> [qderiv_pow(f, j, variant, ctx)(x) for j = 0..k] from one
    lattice, bit for bit; it stops before a level that qderiv_pow raises for."""
    if variant not in _DELTA_REACH:
        raise ArgumentError("qderiv_pow and qderiv_levels support the delta variants only")
    if k < 0:
        raise DomainError("qderiv_pow and qderiv_levels require k >= 0")
    stencil, reach = _delta_stencil(ctx.q, ctx.alpha), _DELTA_REACH[variant]
    return lambda x: _lattice_power(f, x, k, stencil, reach, ctx.q)


# ---------------------------------------------------------------------------
# Jackson q-integrals
# ---------------------------------------------------------------------------

def jackson_integral(f: FunctionHandle, ctx: QContext) -> TruncatedValue:
    """Jackson q-integral over the half-line, (1-q) sum_n q^n f(q^n) over every
    integer n; over the line, that of f(x) + f(-x).

    Each direction walks out from n = 0 or n = -1 until three terms in a row fall
    below SERIES_TOL times the largest term seen, or are 0 (the rest bounded as a
    geometric series of the last ratio, at most 0.9), or until the edge rule
    (_edge_tail) has a settled ratio and knows the geometric tail beyond to
    SERIES_TOL times the largest term or the partial sum; that tail is added and
    its bound joins tail_bound.  A first 0 after terms that were not small (an
    envelope cut in f) takes the edge rule too.  NonConvergence where the terms
    leave double range or after MAX_TERMS points in a direction; DomainError where
    f or the lattice point overflows.
    """
    return _jackson_walk(f, ctx, False)


def _enveloped_jackson(g: FunctionHandle, ctx: QContext) -> TruncatedValue:
    """The half-line Jackson integral of e_{q^2}(-q y^2) g(y), on jackson_integral's
    walk and stop rule.  The envelope is the cached product at y = 1, stepped by
    one factor a point, e(q y) = e(y) (1 + q y^2); where it falls below 1e-250 the
    term is 0 and g is not evaluated (a power of y may overflow there).  A cut after
    terms that were not small takes the edge rule, and NonConvergence where it knows
    no tail: past the cut g may grow like 1 / e, so the rest need not be small."""
    return _jackson_walk(g, ctx, True)


def _jackson_walk(f, ctx: QContext, enveloped: bool) -> TruncatedValue:
    # the one walk of the Jackson sums: its terms are y env f(y) at the lattice points
    # y = q^n, with env from _lattice
    q, tol = ctx.q, context.SERIES_TOL
    terms, edges = [], []  # the lattice points' terms, and the tails the edge rule adds
    peak = total = tail = 0.0
    for start, step in ((0, 1), (-1, -1)):
        first, below = len(terms), 0  # this direction's terms start at terms[first]
        points = _lattice(q, start, step, enveloped)
        for n in range(start, start + step * context.MAX_TERMS, step):
            xn = math.inf
            try:
                xn, env = next(points)
                t = xn * env * f(xn) if env >= 1e-250 else 0.0
            except (OverflowError, ZeroDivisionError) as exc:
                raise DomainError(f"Jackson integrand leaves double range at q^{n} = {xn}") from exc
            mag = abs(t)
            if not mag < math.inf:
                raise NonConvergence(f"Jackson integral term is {t} at q^{n}")
            terms.append(t)
            total += t
            if mag > peak:
                peak = mag
            zero, small = mag == 0.0, mag == 0.0 or mag < tol * peak
            if len(terms) - first > 4 + zero and (zero and not below or not small):
                # the edge rule where the terms are not small, or at a first 0 after them
                i = len(terms) - 1 - zero
                beyond, bound, settled = _edge_tail(terms[i], terms[i - 1], terms[i - 2],
                                                    terms[i - 3], terms[i - 4])
                if bound < math.inf and (zero or settled and bound <= tol * max(peak, abs(total))):
                    edges.append(beyond)
                    tail += bound
                    break
            if env < 1e-250 and not below and len(terms) - first > 1:
                # past the cut the integrand may grow like 1 / env: the rest is not small
                raise NonConvergence(f"Jackson sum: the envelope cut at q^{n} = {xn} follows "
                                     f"terms that are not small, and no tail past it is known")
            below = below + 1 if small else 0
            if below >= 3:
                # toward 0, f ~ y^p gives terms falling like q^(p+1): slower than q if p < 0
                r = min(0.9, mag / abs(terms[-2]) if terms[-2] else q)
                tail += mag * r / (1.0 - r)
                break
        else:
            raise NonConvergence(f"Jackson sum: no stop within {context.MAX_TERMS} points")
    return TruncatedValue((1.0 - q) * math.fsum(terms + edges), (1.0 - q) * tail, len(terms))


def _lattice(q: float, start: int, step: int, enveloped: bool):
    """The points y = q^n, n = start, start + step, ..., of one direction of a
    Jackson walk, each with its envelope: 1, or e_{q^2}(-q y^2), the cached product
    at y = 1 stepped by one factor a point, e(q y) = e(y) (1 + q y^2)."""
    if not enveloped:
        for n in count(start, step):
            yield q ** n, 1.0
    env = 1.0 / _qpoch_inf(-q, q * q).value
    for n in count(start, step):
        y = q ** n
        if step < 0:  # from the point before, nearer 1: e(y) = e(q y) / (1 + q y^2)
            env /= 1.0 + q * y * y
        yield y, env
        if step > 0:  # for the point after: e(q y) = e(y) (1 + q y^2)
            env *= 1.0 + q * y * y


def _edge_tail(t: float, t1: float, t2: float, t3: float, t4: float
               ) -> tuple[float, float, bool]:
    # the edge rule of a Jackson sum from its last five terms, finite, t the last: the
    # tail t r / (1 - r), r = t / t1, how far it moves as r drifts by at most D,
    # |t| (D + 1e-15) / ((1 - r)(1 - r - D)), and whether r has settled: its last three
    # steps d, d0, d1 go one way and shrink by at most rho < 1 a step, D = |d| / (1 - rho);
    # else D = 2 max |d|, settled at rounding level.  (nan, inf, False) unless the four
    # ratios are finite, -1 < r and r + D < 1; a ratio that overflows to +-inf makes D
    # inf or puts r outside (-1, 1), so only a ratio over 0 needs its own test
    if not (t1 and t2 and t3 and t4):
        return math.nan, math.inf, False
    r, r0, r1, r2 = t / t1, t1 / t2, t2 / t3, t3 / t4
    d, d0, d1 = r - r0, r0 - r1, r1 - r2
    settled = d0 != 0.0 != d1 and 0.0 < d / d0 < 1.0 and 0.0 < d0 / d1 < 1.0
    drift = (abs(d) / (1.0 - max(d / d0, d0 / d1)) if settled
             else 2.0 * max(abs(d), abs(d0), abs(d1)))
    if not (-1.0 < r < 1.0 and r + drift < 1.0):
        return math.nan, math.inf, False
    bound = abs(t) * (drift + 1e-15) / ((1.0 - r) * (1.0 - r - drift))
    return t * r / (1.0 - r), bound, settled or drift <= 2e-15
