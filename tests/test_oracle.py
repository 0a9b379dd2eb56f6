"""Products at the q -> 1 end against 40-digit mpmath, and the series
against 50-digit mpmath.

Each product takes the factor count its own stopping rule needs, so the
weight, d_n, the moment constant and (a; q)_inf have values up to
q = 0.995.  mp.qp stops at 50 * prec factors and raises NoConvergence at
q >= 0.99, so the reference writes the product out in 40-digit mpf: the
factors 1 - a q^k while |a q^k| >= 1e-3, and the rest b = a q^K from
log prod_{j >= 0} (1 - b q^j) = -sum_{m >= 1} b^m / (m (1 - q^m)).

The series references are the same sums written out in 50-digit mpf, and
mp.qhyper for the modified q-Bessel function; errors are relative to
max(1, |reference|).

Jackson sums of small integrands are checked against the same sums in
60-digit mpf, a Jackson sum's tail bound against 40-digit lattice sums and the
Bessel transform's closed form, the sums near q = 1 and alpha = -1 against
closed forms, and the normalization offset of the wave functions against
Ramanujan's q-beta integral by 40-digit quadrature.
"""

import math
from functools import lru_cache
from itertools import islice

import mpmath
import numpy as np
import pytest

from qlab import (PoleError, QContext, QError, continuous_orthogonality,
                  discrete_orthogonality_residual, discrete_orthogonality_rhs, hermite_h,
                  jackson_integral, moment_check, moment_constant, norm_constant, phi, qbessel,
                  qexp_gen, qexp_small, qpoch_inf, qtrig, weight)
from qlab.qcore import _enveloped_jackson, _lattice
from qlab.qhermite import (_jackson_nodes, _lattice_log_weight, _piecewise_quad,
                           _shifted_log_weight)

QS = (0.97, 0.99, 0.995)
ALPHAS = (-0.99, -0.5, 0.25, 5.3, 20.0)
CONTEXTS = [QContext(q=q, alpha=alpha) for q in QS for alpha in ALPHAS]
IDS = [f"q={c.q}-alpha={c.alpha}" for c in CONTEXTS]


def _root_h(n: int, x: float, ctx: QContext) -> float:
    # sqrt(w) h_n by the explicit sum, independent of phi's recurrence; 0 where
    # sqrt(w) < 1e-250, far out, where h_n may leave double range
    root = math.sqrt(weight(x, ctx))
    return 0.0 if root < 1e-250 else root * hermite_h(n, x, ctx)


def _ortho_integrand(n: int, m: int, ctx: QContext):
    # (sqrt(w) h_n) (sqrt(w) h_m) |x|^{2a+1} at a point: the discrete entries' integrand
    return lambda x: _root_h(n, x, ctx) * _root_h(m, x, ctx) * abs(x) ** (2.0 * ctx.alpha + 1.0)


mp = mpmath.MPContext()
mp.dps = 40


@lru_cache(maxsize=None)
def _qp(a, q):
    """(a; q)_inf in 40-digit mpf; a and q are mpf or exact floats."""
    a, q = mp.mpf(a), mp.mpf(q)
    out = mp.mpf(1)
    while abs(a) >= 1e-3:
        out *= 1 - a
        a *= q
    log_tail, m, bm = mp.mpf(0), 1, a
    while abs(bm) > mp.mpf(10) ** -45:
        log_tail -= bm / (m * (1 - q ** m))
        m, bm = m + 1, bm * a
    return out * mp.exp(log_tail)


def _mp(ctx):
    return mp.mpf(ctx.q), mp.mpf(ctx.alpha)


def _d0(ctx):
    q, a = _mp(ctx)
    return mp.sqrt(q ** (-(a + 1) * (a + 0.5)) * _qp(q * q, q * q)
                   / (mp.gamma(-a) * mp.gamma(a + 1) * _qp(q ** (-2 * a), q * q)))


def _rel_err(got, want):
    return abs(mp.mpf(got) - want) / abs(want)


def test_reference_product_matches_mp_qp_where_it_converges():
    for a, q in ((-3.0, 0.9), (0.5, 0.95), (-0.3, 0.97)):
        assert _rel_err(_qp(a, q), mp.qp(mp.mpf(a), mp.mpf(q))) < mp.mpf(10) ** -35


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_weight(ctx):
    q, a = _mp(ctx)
    for x in (0.3, 2.0, 50.0):
        got = weight(x, ctx)
        if got < 1e-300:  # underflows to 0
            continue
        want = 1 / _qp(-q ** (-2 * a - 1) * mp.mpf(x) ** 2, q * q)
        assert _rel_err(got, want) <= 5e-12


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_norm_constant(ctx):
    if ctx.alpha == int(ctx.alpha):
        with pytest.raises(PoleError):  # Gamma(-alpha) has a pole
            norm_constant(0, ctx)
        return
    assert _rel_err(norm_constant(0, ctx), _d0(ctx)) <= 1e-13


def _mp_moment_constant(ctx):
    q, a = _mp(ctx)
    q2 = q * q
    return ((1 - q) * _qp(-q ** (2 * a + 3), q2) * _qp(-q ** (-2 * a - 1), q2) * _qp(q2, q2)
            / (_qp(-q, q2) ** 2 * _qp(q ** (2 * a + 2), q2)))


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_moment_constant(ctx):
    assert _rel_err(moment_constant(ctx), _mp_moment_constant(ctx)) <= 1e-12


@pytest.mark.parametrize("ctx", CONTEXTS, ids=IDS)
def test_qpoch_inf(ctx):
    for a in (-2.0, -1.0, 0.5, ctx.q ** (2.0 * ctx.alpha + 2.0)):
        assert _rel_err(qpoch_inf(a, ctx).value, _qp(a, ctx.q)) <= 5e-13


# ---------------------------------------------------------------------------
# log w by the weight's functional equation, against 1 / (-z; q^2)_inf
# ---------------------------------------------------------------------------

LOG_WEIGHT_CONTEXTS = [QContext(q=q, alpha=alpha) for q in (0.05, 0.3, 0.8, 0.95, 0.995)
                       for alpha in (-0.99, -0.5, 0.25, 20.0)]
LOG_WEIGHT_IDS = [f"q={c.q}-alpha={c.alpha}" for c in LOG_WEIGHT_CONTEXTS]

#: the relative error allowed in w = exp(log w) where w > 1e-300; over these contexts
#: the lattice log w errs by at most 4.7e-13 and the shifted one by 3.6e-13, a few eps
#: times |log w| <= 690
LOG_WEIGHT_TOL = 2e-12


def _log_weight_errors(point, log_w: np.ndarray, ctx: QContext) -> list:
    """The relative errors of exp(log_w[i]) against the weight at point(i), an mpf, at
    40 indices spread over those where w > 1e-300."""
    q, a = _mp(ctx)
    keep = np.flatnonzero(log_w > math.log(1e-300))
    spread = np.unique(np.linspace(0, keep.size - 1, min(40, keep.size)).astype(int))
    return [_rel_err(mp.exp(log_w[i]), 1 / _qp(-q ** (-2 * a - 1) * point(i) ** 2, q * q))
            for i in keep[spread]]


@pytest.mark.parametrize("ctx", LOG_WEIGHT_CONTEXTS, ids=LOG_WEIGHT_IDS)
def test_lattice_log_weight(ctx):
    # the Jackson table's lattice, ascending from its far end, and the cutoff scan's,
    # outward from 1 to e^700 (at q = 0.05, alpha = 20 all of it below 1e-300); each
    # point is the exact power q^j
    q = mp.mpf(ctx.q)
    table = np.rint(np.log(_jackson_nodes(8, ctx)[0]) / math.log(ctx.q))
    scan = -np.arange(math.floor(700.0 / -math.log(ctx.q)))
    errors = [_log_weight_errors(lambda i: q ** int(j[i]), _lattice_log_weight(j, ctx), ctx)
              for j in (table, scan)]
    assert errors[0] and max(errors[0] + errors[1]) <= LOG_WEIGHT_TOL


@pytest.mark.parametrize("ctx", LOG_WEIGHT_CONTEXTS, ids=LOG_WEIGHT_IDS)
def test_shifted_log_weight(ctx):
    # log w at t / q, t and q t, t the quadrature table's nodes
    q = mp.mpf(ctx.q)
    t, log_w, _ = _piecewise_quad(8, ctx)
    for power, shifted in zip((-1, 0, 1), _shifted_log_weight(t, log_w, ctx)):
        errors = _log_weight_errors(lambda i: mp.mpf(t[i]) * q ** power, shifted, ctx)
        assert errors and max(errors) <= LOG_WEIGHT_TOL


def test_phi_at_q_099():
    # the weight's product needs about 1765 factors here, and d_0's more
    ctx = QContext(q=0.99, alpha=0.25)
    d0 = norm_constant(0, ctx)
    assert _rel_err(d0, _d0(ctx)) <= 1e-13
    assert phi(0, 0.5, ctx) == d0 * math.sqrt(weight(0.5, ctx))


# ---------------------------------------------------------------------------
# Series at 50 digits
# ---------------------------------------------------------------------------

mp50 = mpmath.MPContext()
mp50.dps = 50
SERIES_QS = (0.3, 0.5, 0.8)
SERIES_ALPHAS = (-0.5, 0.25, 1.3)
SERIES_ZS = (-2.0, -0.7, 0.3, 1.2, 3.0)


def _series_err(got, want):
    return abs(mp50.mpf(got) - want) / max(1, abs(want))


def _mp_sum(term):
    """sum_{n >= 0} term(n) in 50-digit mpf, until a term falls below 1e-60."""
    total, n = mp50.mpf(0), 0
    while True:
        t = term(n)
        total += t
        if n > 4 and abs(t) < mp50.mpf(10) ** -60:
            return total
        n += 1


@pytest.mark.parametrize("which, shift, bound", [("cos", 0, 5e-14), ("sin", 1, 5e-14)])
@pytest.mark.parametrize("qf", SERIES_QS)
def test_qtrig(qf, which, shift, bound):
    q = mp50.mpf(qf)
    for zf in SERIES_ZS:
        z = mp50.mpf(zf)
        want = _mp_sum(lambda n: ((-1) ** n * q ** (n * (2 * n - 1 + 2 * shift))
                                  * z ** (2 * n + shift) / mp50.qp(q, q, 2 * n + shift)))
        assert _series_err(qtrig(zf, which, qf), want) <= bound


def _mp_gen_qpoch(k, q, a):
    # (q;q)_{k,alpha} = prod_{j=1}^{k} (1 - q^j) for even j, (1 - q^{j+2a+1}) for odd j
    return mp50.fprod(1 - q ** (j if j % 2 == 0 else j + 2 * a + 1) for j in range(1, k + 1))


@pytest.mark.parametrize("qf", SERIES_QS)
@pytest.mark.parametrize("af", SERIES_ALPHAS)
def test_qexp_gen(qf, af):
    q, a = mp50.mpf(qf), mp50.mpf(af)
    ctx = QContext(q=qf, alpha=af)
    for zf in SERIES_ZS:
        z = mp50.mpf(zf)
        want = _mp_sum(lambda k: q ** (k * (k - 1) / 2) * z ** k / _mp_gen_qpoch(k, q, a))
        assert _series_err(qexp_gen(zf, ctx), want) <= 2e-13


@pytest.mark.parametrize("qf", SERIES_QS)
@pytest.mark.parametrize("af", SERIES_ALPHAS)
def test_modified_qbessel(qf, af):
    # j_alpha(x; q^2) = 1phi1(0; q^{2 alpha + 2}; q^2, q^2 x^2)
    q, a = mp50.mpf(qf), mp50.mpf(af)
    ctx = QContext(q=qf, alpha=af)
    for xf in SERIES_ZS:
        x = mp50.mpf(xf)
        want = mp50.qhyper([0], [q ** (2 * a + 2)], q * q, q * q * x * x)
        assert _series_err(qbessel(xf, af, "modified", ctx), want) <= 5e-12


def _mp_bessel(kind, x, nu, q):
    """The q-Bessel function of base q^2 by mp.qhyper in 40-digit mpf, with its
    condition: the sum of its series' |terms| over the |sum|."""
    base, b = q * q, q ** (2 * nu + 2)
    if kind == "second_jackson":
        x = x / 2
        series = mp.qhyper([], [b], base, -b * x * x)
    else:
        series = mp.qhyper([0], [b], base, base * x * x)
    t, n, total = mp.mpf(1), 0, mp.mpf(0)
    while n < 5 or abs(t) > mp.mpf(10) ** -45:
        total += abs(t)
        w = b * base ** (2 * n) if kind == "second_jackson" else base ** (n + 1)
        t *= -w * x * x / ((1 - base ** (n + 1)) * (1 - b * base ** n))
        n += 1
    pref = 1 if kind == "modified" else mp.qp(b, base) / mp.qp(base, base) * x ** nu
    return pref * series, total / abs(series)


@pytest.mark.parametrize("kind", ["modified", "hahn_exton", "second_jackson"])
def test_qbessel_kinds_against_qhyper(kind):
    # the terms' ratios come from the factorial table's Bessel columns; where the
    # series is well conditioned (|terms| sum to at most 10 |sum|) each kind is
    # within 1e-14 relative of mp.qhyper (measured: modified 8e-16, the two
    # prefactored kinds 4.6e-15, their prefactor's product truncated at SERIES_TOL)
    checked = 0
    for qf in (0.2, 0.5, 0.8, 0.95):
        for nu in (-0.5, 0.25, 1.3, 4.0):
            for xf in (0.3, 1.2, 3.0, 6.0):
                want, cond = _mp_bessel(kind, mp.mpf(xf), mp.mpf(nu), mp.mpf(qf))
                if cond <= 10:
                    checked += 1
                    got = qbessel(xf, nu, kind, QContext(q=qf, alpha=nu))
                    assert abs(got - want) <= 1e-14 * abs(want)
    assert checked >= 20


# ---------------------------------------------------------------------------
# Jackson sums at 60 digits
# ---------------------------------------------------------------------------

mp60 = mpmath.MPContext()
mp60.dps = 60


def _mp60_hermite(n, x, q, a):
    # the explicit sum of h_n, with (b; base)_k written out
    def qpoch(b, base, k):
        return mp60.fprod(1 - b * base ** j for j in range(k))

    def gen_qpoch(k):
        return mp60.fprod(1 - q ** (j if j % 2 == 0 else j + 2 * a + 1) for j in range(1, k + 1))

    return qpoch(q, q, n) * mp60.fsum(
        (-1) ** k * q ** (-2 * n * k + k * (2 * k + 1)) * x ** (n - 2 * k)
        / (qpoch(q * q, q * q, k) * gen_qpoch(n - 2 * k)) for k in range(n // 2 + 1))


def _mp60_weight(x, q, a):
    b, out = -q ** (-2 * a - 1) * x * x, mp60.mpf(1)
    while abs(b) > mp60.mpf(10) ** -70:
        out *= 1 - b
        b *= q * q
    return 1 / out


def _mp60_jackson_line(f, q):
    """(1 - q) sum over all integers k of q^k (f(q^k) + f(-q^k)), outward from
    k = 0 until three terms in a row fall below 1e-70 of the sum."""
    total = mp60.mpf(0)
    for k, step in ((0, 1), (-1, -1)):
        small = 0
        while small < 3:
            y = q ** k
            t = y * (f(y) + f(-y))
            total += t
            small = small + 1 if abs(t) < mp60.mpf(10) ** -70 * abs(total) else 0
            k += step
    return (1 - q) * total


@pytest.mark.parametrize("n", range(6))
def test_discrete_diagonal_small_integrand(n):
    # at q = 0.05, alpha = 5 every term of h_n^2 w |x|^{2 alpha + 1} lies
    # between 1e-47 and 1e-15: the sum stops relative to its own largest term
    ctx = QContext(q=0.05, alpha=5.0)
    q, a = mp60.mpf(ctx.q), mp60.mpf(ctx.alpha)
    want = _mp60_jackson_line(
        lambda x: _mp60_hermite(n, x, q, a) ** 2 * _mp60_weight(x, q, a) * abs(x) ** (2 * a + 1), q)
    g = _ortho_integrand(n, n, ctx)
    got = jackson_integral(lambda y: g(y) + g(-y), ctx).value
    assert abs(got - want) / want <= 1e-13
    assert abs(discrete_orthogonality_rhs(n, ctx) - want) / want <= 1e-13
    assert discrete_orthogonality_residual(n, n, ctx) <= 1e-13


def test_jackson_sum_of_a_small_integrand():
    # a bump of height 1e-12 at y = 0.05; with an absolute stopping rule the
    # sum read 8.25e-17
    q = 0.9
    got = jackson_integral(lambda y: 1e-12 * math.exp(-(math.log(y) - math.log(0.05)) ** 2),
                           QContext(q=q)).value
    qm = mp.mpf(q)
    want = (1 - qm) * mp.nsum(lambda k: qm ** k * mp.mpf(1e-12)
                              * mp.exp(-(k * mp.log(qm) - mp.log(mp.mpf(0.05))) ** 2),
                              [-mp.inf, mp.inf])
    assert _rel_err(got, want) <= 1e-14
    assert _rel_err(got, mp.mpf("1.08004207281026754e-13")) <= 1e-14


def _mp_lattice(q, p, c, walked=()):
    """(1 - q) sum over every integer k of q^{kp} / (-c q^{2k}; q^2)_inf in 40-digit
    mpf, or, given walked, over the other k only: the Jackson sum of the moment
    integrand (p = 2a + 2, c = q) and of the weight's (c = q^{-2a-1}).  Toward
    infinity term by term, until they fall below 1e-45 of the term at k = 0; past
    k = 30 and the walked points by the q-binomial series
    1 / (-z; q^2)_inf = sum_j (-z)^j / (q^2; q^2)_j, whose sum over k is geometric."""
    q, p, c = mp.mpf(q), mp.mpf(p), mp.mpf(c)
    q2, start = q * q, max([30, *walked]) + 1

    def term(k):
        return q ** (k * p) / _qp(-c * q ** (2 * k), q2)

    total = mp.fsum(term(k) for k in range(start) if k not in walked)
    total += mp.fsum((-c) ** j / mp.qp(q2, q2, j) * q ** (start * (p + 2 * j))
                     / (1 - q ** (p + 2 * j)) for j in range(80))
    k, small = -1, mp.mpf(10) ** -45 * term(0)
    while k in walked or term(k) >= small:
        total += 0 if k in walked else term(k)
        k -= 1
    return (1 - q) * total


@pytest.mark.parametrize("q, alpha", [(0.5, -0.6), (0.4, -0.75), (0.3, -0.85), (0.2, -0.9)])
def test_jackson_tail_bound_covers_the_dropped_terms(q, alpha):
    # moment_check(0)'s integrand e_{q^2}(-q y^2) y^{2 alpha + 1}: toward 0 its terms
    # fall like q^{2 alpha + 2}, slower than q; a bound that took q as their ratio
    # read 1.3 (at q = 0.5) to 10.5 (at q = 0.2) times below the terms it dropped.
    # The walk now sums those terms as a geometric tail: its value is within its
    # tail bound of the whole lattice sum
    got = jackson_integral(lambda y: qexp_small(-q * y * y, q * q).value * y ** (2.0 * alpha + 1.0),
                           QContext(q=q, alpha=alpha))
    assert abs(got.value - _mp_lattice(q, 2 * mp.mpf(alpha) + 2, q)) <= got.tail_bound


def test_jackson_tail_bound_covers_the_tail_error():
    # at q = 0.9, alpha = -0.9 the terms fall like q^{0.2 k} toward 0; the window
    # q^120 cut them at 0.08 of the largest, and the sum was 1.9e-10 off with a
    # tail bound of 4.9e-11.  What the walked terms' own rounding (1.4e-14 here)
    # does not explain is the tail's error, within the tail bound
    q, alpha, points = 0.9, -0.9, []

    def f(y):
        value = qexp_small(-q * y * y, q * q).value * y ** (2.0 * alpha + 1.0)
        points.append((round(math.log(y) / math.log(q)), y * value))
        return value

    got = jackson_integral(f, QContext(q=q, alpha=alpha))
    p = 2 * mp.mpf(alpha) + 2
    walked = {k for k, _ in points}
    rest = _mp_lattice(q, p, q, walked)
    summed = (1 - mp.mpf(q)) * mp.fsum(mp.mpf(t) for _, t in points)
    assert abs(got.value - summed - rest) <= got.tail_bound


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.99, 0.995])
def test_walked_envelope_against_40_digits(q):
    # _enveloped_jackson's envelope, the cached product at y = 1 stepped by one factor
    # a point, at every point moment_check(0)'s walk visits at alpha = 0.25, against
    # 1 / (-q y^2; q^2)_inf in 40-digit mpf.  Measured: at most 4.9e-15 relative up to
    # q = 0.9, 3.7e-14 at 0.99 and 4.4e-13 at 0.995, nearly all of it the product at
    # y = 1 (its thousands of factors' rounding).  Relative to the walk's first
    # point, the steps themselves drift by at most 2.8e-15, over 1874 points toward
    # 0 at q = 0.995
    walked = []
    _enveloped_jackson(lambda y: walked.append(y) or y ** 1.5, QContext(q=q, alpha=0.25))
    qm = mp.mpf(q)
    for start, step in ((0, 1), (-1, -1)):
        ns = [n for n in (round(math.log(y) / math.log(q)) for y in walked)
              if (n >= 0) == (step > 0)]
        points = list(islice(_lattice(q, start, step, True), max(abs(n) for n in ns) + 1))
        # the walk's first envelope over its reference: 1 + the product's own error
        first = points[0][1] * _qp(-qm ** (2 * start + 1), qm * qm)
        for n in ns:
            y, env = points[abs(n - start)]
            want = 1 / _qp(-qm ** (2 * n + 1), qm * qm)
            assert y in walked
            assert abs(env - want) <= 1e-12 * want
            assert abs(env / first - want) <= 1e-14 * want  # the steps' own rounding
    assert len(walked) > 10


@pytest.mark.parametrize("q, alpha, frac", [(0.5, -0.5, 0.9), (0.5, 0.25, 0.9), (0.5, 1.3, 0.9),
                                             (0.8, 0.25, 0.99)])
def test_jackson_tail_bound_near_the_disc_edge(q, alpha, frac):
    # bessel_weight_transform's sum near the radius: the terms at y = q^{-k}
    # alternate with ratio near -frac^2.  At q = 0.5 the envelope underflows below
    # 1e-250 at k = 29, inside the old window, and the integrand reads 0 there: the
    # sum stopped on those zeros, up to 5.3e-5 off with a tail bound of 1.7e-17.  At
    # q = 0.8 the walk meets that cut (k = 51) before its ratio settles: the edge rule
    # sums the rest.  The identity's right side is c e_{q^2}(-q^{-2a-1} x^2)
    ctx = QContext(q=q, alpha=alpha)
    x = frac * q ** (alpha + 0.5)

    def f(y):
        env = qexp_small(-q * y * y, q * q).value
        return 0.0 if env < 1e-250 else env * g(y)

    def g(y):
        return qbessel(x * y, alpha, "modified", ctx) * y ** (2 * alpha + 1)

    qm, am = _mp(ctx)
    want = _mp_moment_constant(ctx) / _qp(-qm ** (-2 * am - 1) * mp.mpf(x) ** 2, qm * qm)
    # the walk with the envelope in the integrand, and with it stepped along the walk
    for got in (jackson_integral(f, ctx), _enveloped_jackson(g, ctx)):
        assert abs(got.value - want) <= got.tail_bound + 1e-15 * abs(want)


# ---------------------------------------------------------------------------
# Wave functions at 60 digits
# ---------------------------------------------------------------------------

def _mp60_phi(n, x, ctx):
    """d_n sqrt(w) h_n at x: the explicit sum times mp.qp's weight, and d_n from
    its closed form, in 60-digit mpf."""
    q, a, x = mp60.mpf(ctx.q), mp60.mpf(ctx.alpha), mp60.mpf(x)
    c_squared = (q ** (-(a + 1) * (a + 0.5)) * mp60.qp(q * q, q * q)
                 / (mp60.gamma(-a) * mp60.gamma(a + 1) * mp60.qp(q ** (-2 * a), q * q)))
    gen_qpoch = mp60.fprod(1 - q ** (j if j % 2 == 0 else j + 2 * a + 1) for j in range(1, n + 1))
    d = mp60.sqrt(c_squared * gen_qpoch) * q ** (mp60.mpf(n * n) / 2) / mp60.qp(q, q, n)
    return d * _mp60_hermite(n, x, q, a) / mp60.sqrt(mp60.qp(-q ** (-2 * a - 1) * x * x, q * q))


def _phi_agrees(n, x, ctx, want):
    # phi at x as a float and inside an array, and at -x by its parity, to 1e-12
    for got in (phi(n, x, ctx), *phi(n, np.array([0.3, x, -x]), ctx)[1:] * [1, (-1) ** n]):
        assert abs(got - want) / abs(want) <= 1e-12, (got, want)


@pytest.mark.parametrize("n, x, q, alpha", [
    # the explicit sum left double range where phi is finite: it raised DomainError
    (20, 1.024e13, 0.05, 0.25), (20, 0.05 ** -11, 0.05, 0.25),
    # sqrt(w) rounds to 0 where h_n is large: it read 0.0, at phi_16's largest value
    (16, 6.5536e20, 0.05, -0.9), (20, 1.048576e26, 0.05, -0.9)])
def test_phi_where_the_explicit_sum_failed(n, x, q, alpha):
    ctx = QContext(q=q, alpha=alpha)
    _phi_agrees(n, x, ctx, _mp60_phi(n, x, ctx))


@pytest.mark.parametrize("n, q, alpha, j", [(16, 0.05, -0.9, 15), (20, 0.05, 0.25, 14),
                                            (16, 0.2, 1.3, 18), (20, 0.5, 0.25, 30)])
def test_phi_agrees_across_the_log_cut(n, q, alpha, j):
    # sqrt(w) >= 1e-250 at q^-j, read from the float walk, and 0 at its lattice
    # neighbour q^-(j + 1), read from _log_rows
    ctx = QContext(q=q, alpha=alpha)
    inner, outer = q ** -float(j), q ** -float(j + 1)
    assert math.sqrt(weight(inner, ctx)) >= 1e-250 > math.sqrt(weight(outer, ctx))
    for x in (inner, outer):
        _phi_agrees(n, x, ctx, _mp60_phi(n, x, ctx))


# ---------------------------------------------------------------------------
# The normalization offset: <phi_n, phi_n> = q^((alpha + 1)(alpha + 1/2))
# ---------------------------------------------------------------------------

OFFSET_CONTEXTS = [QContext(q=0.5, alpha=0.25), QContext(q=0.8, alpha=1.3),
                   QContext(q=0.3, alpha=-0.9), QContext(q=0.9, alpha=3.7)]
OFFSET_IDS = [f"q={c.q}-alpha={c.alpha}" for c in OFFSET_CONTEXTS]


@pytest.mark.parametrize("ctx", OFFSET_CONTEXTS, ids=OFFSET_IDS)
def test_normalization_offset_closed_form(ctx):
    # d_n^2 int h_n^2 w |x|^{2 alpha + 1} dx is n-independent, and equals the
    # power of q that the weight's moment below leaves over from d_0^2
    offset = ctx.q ** ((ctx.alpha + 1.0) * (ctx.alpha + 0.5))
    for n in range(4):
        assert abs(continuous_orthogonality(n, n, ctx) - offset) / offset <= 1e-14


def _or_qerror(entry):
    # the entry's value, or None where it raises a QError
    try:
        return entry()
    except QError:
        return None


@pytest.mark.parametrize("q, alpha, degrees", [(0.05, 0.25, range(17)), (0.05, -0.9, range(17)),
                                               (0.2, 1.3, [*range(17), 18])])
def test_normalization_offset_at_small_q_and_high_degree(q, alpha, degrees):
    # the weight underflows to 0 at nodes where w h_n^2 is not small: (18, 18)
    # at (0.2, 1.3) read 11 % off the offset without raising, and (14, 14) at
    # (0.05, 0.25) raised QuadratureFailure; a 40-digit quadrature gives the
    # offset to 2.6e-27 and 3.6e-41 there
    ctx = QContext(q=q, alpha=alpha)
    offset = q ** ((alpha + 1.0) * (alpha + 0.5))
    for n in degrees:
        value = _or_qerror(lambda: continuous_orthogonality(n, n, ctx))
        assert value is None or abs(value - offset) <= 1e-12 * offset, n


@pytest.mark.parametrize("q", [0.5, 0.8, 0.9])
def test_normalization_offset_at_large_alpha(q):
    # at alpha = 20.3 the mass w (h_8 / c)^2 x^{2a+1} of the quadrature cutoff stays
    # below 1e-24 on the whole line; that absolute floor put the cutoff at x = 1,
    # inside the mass, and the diagonals read 50-99 % below the offset without raising
    ctx = QContext(q=q, alpha=20.3)
    offset = q ** ((ctx.alpha + 1.0) * (ctx.alpha + 0.5))
    for n in range(7):
        assert abs(continuous_orthogonality(n, n, ctx) - offset) <= 1e-12 * offset, n


@pytest.mark.parametrize("q, n_max", [(0.2, 20), (0.5, 27)])
def test_discrete_diagonal_at_high_degree(q, n_max):
    # the per-point sums lost the weight where it underflows: (20, 20) at
    # q = 0.2 read 0.88 and (27, 27) at q = 0.5 read 1.0e-5; the closed form
    # agrees with a 150-digit Jackson sum to 3e-15
    ctx = QContext(q=q, alpha=0.25)
    for n in range(n_max + 1):
        residual = _or_qerror(lambda: discrete_orthogonality_residual(n, n, ctx))
        assert residual is None or residual <= 1e-12, n


@pytest.mark.parametrize("q", [0.99, 0.995])
def test_discrete_diagonals_near_q_one(q):
    # the window [q^120, q^-40] covered only 0.30 <= x <= 1.49 at q = 0.99, and the
    # terms still grew at its small-x end: (3, 3) read 0.1505 from a geometric tail
    # whose ratio had not settled, and later raised NonConvergence
    ctx = QContext(q=q, alpha=0.25)
    for n in range(9):
        assert discrete_orthogonality_residual(n, n, ctx) <= 1e-10, n


@pytest.mark.parametrize("q, degrees", [(0.99, range(4)), (0.995, (0, 3))])
def test_moment_check_near_q_one(q, degrees):
    # the Jackson sum against the moment formula's closed form (test_moment_constant
    # pins the constant to 40 digits there); the window ended inside the mass and
    # the sums raised NonConvergence
    ctx = QContext(q=q, alpha=0.25)
    for n in degrees:
        assert moment_check(n, ctx) <= 1e-10, n


@pytest.mark.parametrize("q", [0.5, 0.8])
def test_discrete_diagonal_near_alpha_minus_one(q):
    # at alpha = -0.99 the terms fall like q^{0.02 j} toward 0: past the window's
    # end q^120 the edge rule's tail was not known to SERIES_TOL and the entry
    # raised NonConvergence.  The reference is the 40-digit lattice sum of w |x|^{2a+1}
    ctx = QContext(q=q, alpha=-0.99)
    qm, am = _mp(ctx)
    want = 2 * _mp_lattice(q, 2 * am + 2, qm ** (-2 * am - 1))
    assert _rel_err(discrete_orthogonality_rhs(0, ctx), want) <= 1e-13
    assert discrete_orthogonality_residual(0, 0, ctx) <= 1e-12


@pytest.mark.parametrize("ctx", OFFSET_CONTEXTS, ids=OFFSET_IDS)
def test_weight_moment_ramanujan_closed_form(ctx):
    # Ramanujan's q-beta integral with t = q^{-2 alpha - 1} x^2, p = q^2 and
    # c = alpha + 1: int_R w |x|^{2 alpha + 1} dx
    #   = q^{(alpha + 1)(2 alpha + 1)} Gamma(-alpha) Gamma(alpha + 1)
    #     (q^{-2 alpha}; q^2)_inf / (q^2; q^2)_inf
    q, a = _mp(ctx)
    qp = _qp.__wrapped__  # the quadrature nodes would fill the cache
    c = q ** (-2 * a - 1)
    # s = |x|^{2 alpha + 2} takes |x|^{2 alpha + 1} dx into ds / (2 alpha + 2),
    # which leaves no singularity at 0 for alpha near -1
    lhs = mp.quad(lambda s: 1 / qp(-c * s ** (1 / (a + 1)), q * q), [0, 1, mp.inf]) / (a + 1)
    rhs = (q ** ((a + 1) * (2 * a + 1)) * mp.gamma(-a) * mp.gamma(a + 1)
           * qp(q ** (-2 * a), q * q) / qp(q * q, q * q))
    assert _rel_err(lhs, rhs) <= 1e-35
    if ctx.q == 0.5:
        assert _rel_err(lhs, mp.mpf("0.41683350159888355559")) <= 1e-19
