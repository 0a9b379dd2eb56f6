"""Unit tests for the polynomial family, weight, and identity residuals."""

import math
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import qlab
from qlab import (DomainError, NonConvergence, PoleError,
                  QContext, QError, QuadratureFailure, bessel_expansion_residual,
                  bessel_weight_transform, continuous_orthogonality,
                  discrete_orthogonality_residual, discrete_orthogonality_rhs, hermite_h,
                  hermite_h_scaled,
                  hermite_via_laguerre, integral_representation_residual,
                  moment_check, moment_constant, norm_constant, phi,
                  poisson_kernel_residual, qexp_small, qlaguerre,
                  relation_residual, rogers_ramanujan_residual, selfadjoint_residual,
                  weight)
from qlab import qbessel, qhermite
from qlab.qcore import _Factorials, _factorials, _qpoch, _row, _sum_series
from qlab.qfunctions import _bessel_terms
from qlab.suites import SuiteConfig, suite_orthogonality

CTX = QContext(q=0.5, alpha=0.25)
GRID = [QContext(q=q, alpha=a) for q in (0.3, 0.5, 0.8)
        for a in (-0.5, 0.25, 1.3)]
#: the exponents j of the lattice points q^j the array tests evaluate at
LATTICE = np.arange(-40.0, 121.0)


class TestPolynomial:
    def test_first_polynomials(self):
        q, a = CTX.q, CTX.alpha
        assert hermite_h(0, 0.7, CTX) == pytest.approx(1.0)
        # degree 1: (1 - q) x / (1 - q^{2a+2}); monic only at a = -1/2
        assert hermite_h(1, 0.7, CTX) == pytest.approx(
            (1 - q) * 0.7 / (1 - q ** (2 * a + 2)))
        assert hermite_h(2, 0.0, CTX) == pytest.approx(-1.0)
        c = QContext(q=q, alpha=-0.5)
        assert hermite_h(1, 0.7, c) == pytest.approx(0.7)

    def test_parity(self):
        for ctx in GRID:
            for n in range(9):
                for x in (0.4, 1.7):
                    assert hermite_h(n, -x, ctx) == pytest.approx(
                        (-1.0) ** n * hermite_h(n, x, ctx), rel=1e-12, abs=1e-12)

    def test_overflow_raises_domain_error(self):
        # q^{-2nk + k(2k+1)} leaves double range at degree 40 for small q
        with pytest.raises(DomainError):
            hermite_h(40, 0.7, QContext(q=0.05))

    def test_array_matches_float(self):
        xs = np.array([-2.5, -0.7, 0.0, 0.3, 1.1, 4.0])
        for n in range(9):
            got = hermite_h(n, xs, CTX)
            for x, v in zip(xs, got):
                assert v == pytest.approx(hermite_h(n, float(x), CTX), rel=1e-14, abs=1e-14)

    def test_array_overflow_raises_domain_error(self):
        # x^2 leaves double range: a float raises through OverflowError, an
        # array through the inf it holds
        with pytest.raises(DomainError):
            hermite_h(2, 1e200, CTX)
        with pytest.raises(DomainError), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            hermite_h(2, np.array([0.5, 1e200]), CTX)

    @pytest.mark.parametrize("fn", [hermite_h, hermite_h_scaled])
    def test_array_overflow_raises_a_short_domain_error(self, fn):
        # degree 20 overflows on the Jackson lattice points +-q^j at q = 0.05:
        # under a warnings-as-errors filter numpy's overflow warning escaped
        # as a RuntimeWarning, and otherwise the message held all 322 points
        ctx = QContext(q=0.05, alpha=0.25)
        x = ctx.q ** LATTICE
        with warnings.catch_warnings(), pytest.raises(DomainError) as info:
            warnings.simplefilter("error")
            fn(20, np.concatenate((-x, x)), ctx)
        assert len(str(info.value)) <= 300

    def test_phi_on_the_small_q_lattice_is_finite(self):
        # degree 20 on the same lattice: phi read the explicit sum, which leaves
        # double range at points where sqrt(w) is 0, and raised DomainError
        ctx = QContext(q=0.05, alpha=0.25)
        x = ctx.q ** LATTICE
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = phi(20, np.concatenate((-x, x)), ctx)
        assert np.isfinite(values).all()
        # the largest |phi_20| there, first at x = -q^7, against d_20 sqrt(w) h_20 in 60
        # digits: the explicit sum times mp.qp's weight
        assert np.argmax(np.abs(values)) == 7 + 40
        assert np.abs(values).max() == pytest.approx(1.0180119330044445988394e-13, rel=1e-12)

    def test_scaled_variant(self):
        for n in range(7):
            want = CTX.q ** (n * n / 2.0) * hermite_h(n, 0.8, CTX)
            assert hermite_h_scaled(n, 0.8, CTX) == pytest.approx(want, rel=1e-10)

    def test_laguerre_route_agrees(self):
        for ctx in GRID:
            for n in range(11):
                a = hermite_h(n, 0.9, ctx)
                b = hermite_via_laguerre(n, 0.9, ctx)
                assert abs(a - b) / (1 + abs(a) + abs(b)) < 1e-12

    def test_qlaguerre_value_at_zero(self):
        # base q^2: L_n^{(a)}(0; q^2) = (q^{2a+2}; q^2)_n / (q^2; q^2)_n
        from qlab import qpoch
        q, a = 0.5, 0.75
        ctx = QContext(q=q)
        ctx2 = QContext(q=q * q)
        for n in range(6):
            want = (qpoch(q ** (2 * a + 2), n, ctx2)
                    / qpoch(q * q, n, ctx2))
            assert qlaguerre(n, a, 0.0, ctx) == pytest.approx(want, rel=1e-12)


RECURRENCE_CASES = ((0.3, -0.5), (0.5, 0.25), (0.8, 1.3), (0.9, -0.9), (0.9, 2.5),
                    (0.2, 2.4))


def _mp_scaled(n_max, x, q, alpha, mp):
    """q^{n^2/2} h_n(x) for n = 0..n_max by the explicit sum, in mpf."""
    q, a, x = mp.mpf(q), mp.mpf(alpha), mp.mpf(x)
    qp, qq, gp = [mp.one], [mp.one], [mp.one]  # (q;q)_k, (q^2;q^2)_k, (q;q)_{k,alpha}
    for j in range(1, n_max + 1):
        qp.append(qp[-1] * (1 - q ** j))
        qq.append(qq[-1] * (1 - q ** (2 * j)))
        gp.append(gp[-1] * (1 - q ** (j + (2 * a + 1) * (j % 2))))
    return [q ** (mp.mpf(n * n) / 2) * qp[n] * mp.fsum(
        (-1) ** k * q ** (k * (2 * k + 1) - 2 * n * k) * x ** (n - 2 * k)
        / (qq[k] * gp[n - 2 * k]) for k in range(n // 2 + 1)) for n in range(n_max + 1)]


class TestThreeTermRecurrence:
    def test_identity_against_explicit_sum(self):
        # x h_n = A_n h_{n+1} + C_n h_{n-1} with A_n = 1 (n odd),
        # (1 - q^{n+2a+2}) / (1 - q^{n+1}) (n even), C_n = q^{1-2n} (1 - q^n)
        for q, a in RECURRENCE_CASES[:3]:
            ctx = QContext(q=q, alpha=a)
            for x in (0.3, -0.8, 1.2):
                for n in range(1, 31):
                    big_a = 1.0 if n % 2 else (1 - q ** (n + 2 * a + 2)) / (1 - q ** (n + 1))
                    big_c = q ** (1 - 2 * n) * (1 - q ** n)
                    lhs = x * hermite_h(n, x, ctx)
                    up = big_a * hermite_h(n + 1, x, ctx)
                    down = big_c * hermite_h(n - 1, x, ctx)
                    scale = 1 + abs(lhs) + abs(up) + abs(down)
                    assert abs(lhs - up - down) / scale <= 1e-12, (q, a, x, n)

    def test_scaled_against_mpmath(self):
        mp = mpmath.MPContext()
        mp.dps = 50
        for q, a in RECURRENCE_CASES:
            ctx = QContext(q=q, alpha=a)
            for x in (0.3, 0.8, 1.2, 2.5):
                for n, want in enumerate(_mp_scaled(40, x, q, a, mp)):
                    got = hermite_h_scaled(n, x, ctx)
                    assert abs(got - want) <= 1e-13 * abs(want), (q, a, x, n)

    def test_kernel_residuals_make_no_polynomial_call(self, monkeypatch):
        # the kernel sums walk the recurrence once per point: a call of the
        # explicit sum or of hermite_h_scaled would make N terms cost O(N^2)
        def refuse(*args):
            raise AssertionError("kernel sum evaluated a polynomial afresh")

        monkeypatch.setattr(qhermite, "hermite_h", refuse)
        monkeypatch.setattr(qhermite, "hermite_h_scaled", refuse)
        ctx = QContext(q=0.8, alpha=1.3)
        assert poisson_kernel_residual(0.8, 0.3, "general", ctx) < 1e-10
        assert poisson_kernel_residual(1.2, 0.5, "half_integer_corollary", ctx) < 1e-10
        assert bessel_expansion_residual(1.2, ctx) < 1e-10
        assert relation_residual("generating", 0, 1.5, ctx) < 1e-10

    def test_poisson_near_one_converges(self):
        # the bilinear sum needs 300+ terms here; a coefficient
        # (q;q)_{i,alpha} / (q;q)_i^2 read as (1-q)^i i!_{q,alpha} / (q;q)_i^2
        # underflows with (1-q)^i, and the sum turned to NaN (NonConvergence)
        ctx = QContext(q=0.9021, alpha=0.468)
        assert poisson_kernel_residual(1.2, 0.5, "general", ctx) < 1e-12
        wide = QContext(q=0.93, alpha=0.25)
        for x, y in ((0.8, 0.3), (1.2, 0.5)):
            assert poisson_kernel_residual(x, y, "general", wide) < 1e-12

    def test_poisson_coefficient_does_not_underflow(self):
        # at q = 0.97 the coefficient's (1-q)^i underflows to 0 near i = 210,
        # which would drop the remaining terms and leave a residual of 0.054;
        # the running product keeps them.  The residual left is the q-Bessel
        # side's (the kernel sum agrees with a 60-digit sum to 2e-13)
        ctx = QContext(q=0.97, alpha=1.0)
        assert poisson_kernel_residual(0.8, 0.3, "general", ctx) < 1e-7
        coeff = _Factorials(0.97, 1.0).upto(999)
        for i in range(41):
            assert coeff.pc[i] == pytest.approx(coeff.gp[i] / coeff.qp[i] ** 2, rel=1e-13)
        assert min(coeff.pc) > 0.0


class TestFactorialTable:
    QS = (0.05, 0.3, 0.5, 0.8, 0.95)
    ALPHAS = (-0.9, -0.5, 0.25, 1.3, 2.3)

    def test_entries_equal_the_direct_products(self):
        # (a;q)_n bit for bit, as qpoch forms them; the generalized factorials
        # against 30-digit products of their factors
        mp = mpmath.MPContext()
        mp.dps = 30
        for q in self.QS:
            q2 = q * q
            for a in self.ALPHAS:
                f = _Factorials(q, a).upto(120)
                qm = mp.mpf(q)
                gf = mp.mpf(1)
                for n in range(121):
                    assert f.qp[n] == _qpoch(q, n, q)
                    assert f.qq[n] == _qpoch(q2, n, q2)
                    assert f.ab[n] == _qpoch(q ** (2.0 * a + 2.0), n, q2)
                    if n:
                        gf *= (1 - qm ** (n if n % 2 == 0 else n + 2 * mp.mpf(a) + 1)) / (1 - qm)
                    assert f.gf[n] == pytest.approx(float(gf), rel=1e-13)
                    assert f.gp[n] == pytest.approx(float((1 - qm) ** n * gf), rel=1e-13)

    def test_independent_of_request_order(self):
        for q in self.QS:
            for a in self.ALPHAS:
                f = _Factorials(q, a)
                assert len(f.upto(7).gp) == 8  # grown only as far as asked
                f.upto(3)
                f.upto(120)
                g = _Factorials(q, a).upto(120)
                assert (f.qp, f.qq, f.ab, f.gf, f.gp, f.pc) == (g.qp, g.qq, g.ab, g.gf, g.gp, g.pc)

    def test_negative_index_raises(self):
        with pytest.raises(DomainError):
            _Factorials(0.5, 0.25).upto(-1)

    @pytest.mark.parametrize("fn", [qlab.gen_qfact, qlab.gen_qpoch, norm_constant,
                                    lambda n, ctx: hermite_h(n, 0.5, ctx),
                                    lambda n, ctx: qlaguerre(n, ctx.alpha, 0.5, ctx)],
                             ids=["gen_qfact", "gen_qpoch", "norm_constant", "hermite_h",
                                  "qlaguerre"])
    def test_negative_degree_names_the_degree_and_the_table(self, fn):
        # the table's own message reaches every caller; it read "qpoch requires n >= 0",
        # and qlaguerre's named degree -2, the index 2n it reads
        with pytest.raises(DomainError, match=r"degree -1 .*q-factorial table"):
            fn(-1, QContext(0.5, 0.25))

    def test_negative_degree_of_the_scaled_walk(self):
        # islice raised a raw ValueError
        with pytest.raises(DomainError, match=r"degree -1 is negative"):
            hermite_h_scaled(-1, 0.5, QContext(0.5, 0.25))

    def test_cache_is_bounded(self):
        assert _factorials.cache_info().maxsize is not None


def _mp_qpoch_inf(a, q):
    # (a; q)_inf as the mpf product of its factors down to 1e-30
    out = mpmath.mpf(1)
    while abs(a) > 1e-30:
        out, a = out * (1 - a), a * q
    return out


class TestOutOfRangeRaisesDomainError:
    # each case raised a raw OverflowError or ZeroDivisionError before

    def test_discrete_orthogonality_rhs(self):
        # q^{-n^2} overflows at degree 27
        with pytest.raises(DomainError):
            discrete_orthogonality_rhs(27, QContext(q=0.3261, alpha=0.2537))

    def test_hermite_via_laguerre(self):
        # q^{-m(2m-1)} overflows at degree 40 for small q
        with pytest.raises(DomainError):
            hermite_via_laguerre(40, 0.7, QContext(q=0.05))

    def test_moment_check(self):
        # y^{2n+2a+1} overflows at the lattice point y = q^-40
        with pytest.raises(DomainError):
            moment_check(8, QContext(q=0.1389, alpha=2.5756))

    def test_integral_representation_inside_disc(self):
        # y^power overflows at the lattice point y = q^-40 for large alpha
        with pytest.raises(DomainError):
            integral_representation_residual(0, 0.5 * 0.5 ** 20.5,
                                             QContext(q=0.5, alpha=20.0))

    @pytest.mark.parametrize("q", [0.999, 0.9995])
    def test_constants_refuse_a_subnormal_product(self, q):
        # at q = 0.999, (q^2;q^2)_inf = e^-818 and (q;q^2)_inf = e^-822 both round to
        # the subnormal 1.5e-323, and d_0 at alpha = -1/2 read 0.577 for 3.552 (mpmath:
        # sqrt((q^2;q^2)_inf / (pi (q;q^2)_inf))); at 0.9995 they round to 0
        ctx = QContext(q=q, alpha=-0.5)
        for fn, args in ((norm_constant, (0, ctx)), (moment_constant, (ctx,)),
                         (discrete_orthogonality_rhs, (0, ctx))):
            with pytest.raises(DomainError, match="^" + fn.__name__):
                fn(*args)
        with pytest.raises(DomainError, match="below the normal doubles"):
            norm_constant(0, ctx)
        # one step from the edge the products are normal and d_0 is right
        with mpmath.workdps(30):
            qm = mpmath.mpf(0.995)
            want = mpmath.sqrt(_mp_qpoch_inf(qm ** 2, qm ** 2)
                               / (mpmath.pi * _mp_qpoch_inf(qm, qm ** 2)))
        assert norm_constant(0, QContext(q=0.995, alpha=-0.5)) == pytest.approx(float(want),
                                                                               rel=1e-11)

    def test_hermite_h_generalized_factorial_underflow(self):
        # (q;q)_{n,alpha} = (1-q)^n n!_{q,alpha} underflows to 0 with (1-q)^n
        ctx = QContext(q=0.99)
        with pytest.raises(DomainError):
            hermite_h(170, 0.5, ctx)


class TestWeight:
    def test_positive_and_even(self):
        for x in (0.0, 0.3, 1.2, 4.0):
            w = weight(x, CTX)
            assert w > 0.0
            assert weight(-x, CTX) == pytest.approx(w)

    def test_array_matches_float(self):
        # one factor count, from the largest |z|, serves every point; where
        # the product overflows the weight is 0, as on a float, and silently
        xs = np.array([0.0, 0.2, -0.9, 3.0, 40.0, 1e6, 1e30])
        for ctx in GRID:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = weight(xs, ctx)
            for x, v in zip(xs, got):
                assert v == pytest.approx(weight(float(x), ctx), rel=1e-14, abs=0.0)
        assert weight(1e30, CTX) == 0.0

    def test_float_is_qexp_small_bit_for_bit(self):
        # the weight is e_{q^2}(z), z = -q^{-2a-1} x^2, read as 1 / (z; q^2)_inf;
        # where the product needs more factors than its cap both raise
        def outcome(fn):
            try:
                return fn()
            except QError as exc:
                return type(exc)

        rng = np.random.default_rng(7)
        for _ in range(500):
            ctx = QContext(q=rng.uniform(0.05, 0.95), alpha=rng.uniform(-0.95, 3.0))
            x = float(rng.choice([0.0, 1e200, rng.uniform(-3.0, 3.0),
                                  10.0 ** rng.uniform(-8.0, 30.0)]))
            z = -(ctx.q ** (-2.0 * ctx.alpha - 1.0)) * x * x
            assert (outcome(lambda: weight(x, ctx))
                    == outcome(lambda: qexp_small(z, ctx.q * ctx.q).value))

    def test_rapid_decay(self):
        # 1/(z; q^2)_inf decay accelerates with |x|: log-convex falloff
        w = [weight(x, CTX) for x in (0.5, 4.0, 8.0, 16.0)]
        assert w[0] > w[1] > w[2] > w[3]
        assert w[3] < 1e-8 * w[0]

    def test_moment_constant_finite_at_integer_alpha(self):
        assert math.isfinite(moment_constant(QContext(q=0.5, alpha=1.0)))

    def test_big_c_pole_at_integer_alpha(self):
        with pytest.raises(PoleError):
            norm_constant(2, QContext(q=0.5, alpha=1.0))

    def test_moments(self):
        for ctx in GRID:
            for n in range(5):
                assert moment_check(n, ctx) < 1e-10


class TestRelations:
    @pytest.mark.parametrize("kind", ["generating", "inversion",
                                      "forward_shift", "backward_shift",
                                      "qdiff", "rodrigues"])
    def test_relation_residuals(self, kind):
        for ctx in GRID:
            for n in range(7):
                for x in (0.3, -0.7, 1.5):
                    assert relation_residual(kind, n, x, ctx) < 1e-10, \
                        (kind, ctx.q, ctx.alpha, n, x)


def _bits(values) -> bytes:
    # the doubles of a nested list of floats and arrays, -0.0 told from 0.0
    return np.concatenate([np.ravel(v) for v in values]).astype(float).tobytes()


def _clear_sum_caches():
    _factorials.cache_clear()
    _row.cache_clear()
    qhermite._generating_cached.cache_clear()


class TestExplicitSumRows:
    """The x-independent parts of the explicit sums, kept per degree in the
    qcore._row lru_cache, and the generating residual's cache: no
    value depends on what the tables held before."""

    XS = (-1.7, -0.7, -0.3, 0.3, 0.7, 1.5, 2.2)
    CTXS = (QContext(q=0.3, alpha=-0.5), QContext(q=0.5, alpha=0.25),
            QContext(q=0.8, alpha=1.3))

    def _floats(self, ctx):
        return ([hermite_h(n, x, ctx) for n in range(13) for x in self.XS]
                + [f(n, 0.7, ctx) for n in range(13)
                   for f in (hermite_via_laguerre, lambda n, x, c: qlaguerre(n, c.alpha, x, c))]
                + [relation_residual(kind, n, x, ctx) for kind in ("inversion", "rodrigues",
                                                                    "generating")
                   for n in range(9) for x in self.XS])

    def _arrays(self, ctx):
        xs = np.array(self.XS)
        return ([hermite_h(n, xs, ctx) for n in range(13)]
                + [relation_residual(kind, n, xs, ctx) for kind in ("inversion", "rodrigues",
                                                                     "generating")
                   for n in range(9)])

    @pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"{c.q}-{c.alpha}")
    def test_values_do_not_depend_on_the_rows_held(self, ctx):
        # floats, then arrays on the rows they formed; arrays, then floats
        _clear_sum_caches()
        floats_cold, arrays_warm = _bits(self._floats(ctx)), _bits(self._arrays(ctx))
        _clear_sum_caches()
        arrays_cold, floats_warm = _bits(self._arrays(ctx)), _bits(self._floats(ctx))
        assert floats_cold == floats_warm
        assert arrays_cold == arrays_warm

    @pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"{c.q}-{c.alpha}")
    def test_sums_keep_their_operation_order(self, ctx):
        # each term is a x^m / b, as the sums formed it term by term with the
        # q-power in place: the same doubles
        q, a = ctx.q, ctx.alpha
        for n in range(13):
            fac = _Factorials(q, a).upto(2 * n)
            for x in self.XS:
                total = 0.0
                for k in range(n // 2 + 1):
                    total += ((-1.0) ** k * q ** (-2.0 * n * k + k * (2.0 * k + 1.0))
                              * x ** (n - 2 * k) / (fac.qq[k] * fac.gp[n - 2 * k]))
                assert _bits([hermite_h(n, x, ctx)]) == _bits([fac.qp[n] * total])
                total = 0.0
                for k in range(n + 1):
                    total += ((-1.0) ** k * q ** (2.0 * k * (k + a)) * x ** k
                              / (fac.gp[2 * k] * fac.qq[n - k]))
                assert _bits([qlaguerre(n, a, x, ctx)]) == _bits([fac.ab[n] * total])

    def test_raising_call_leaves_later_values_as_a_fresh_table(self):
        ctx = QContext(q=0.5, alpha=0.25)
        _clear_sum_caches()
        with pytest.raises(DomainError):
            hermite_h(8, 1e200, ctx)  # x^8 overflows, on rows already formed
        with pytest.raises(DomainError):
            relation_residual("inversion", 8, 1e200, ctx)
        after = _bits(self._floats(ctx) + self._arrays(ctx))
        _clear_sum_caches()
        assert after == _bits(self._floats(ctx) + self._arrays(ctx))

    def test_a_row_that_overflows_is_not_kept(self):
        ctx = QContext(q=0.05, alpha=0.25)
        _row.cache_clear()
        for _ in range(2):  # and raises again
            with pytest.raises(DomainError):
                hermite_h(40, 0.7, ctx)  # q^{-2nk + k(2k+1)} leaves double range
        info = _row.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    @pytest.mark.parametrize("ctx", CTXS, ids=lambda c: f"{c.q}-{c.alpha}")
    def test_generating_residual_is_one_value_for_every_degree(self, ctx):
        _clear_sum_caches()
        xs = np.array(self.XS)
        for x in (*self.XS, 0.0, -0.0):
            want = _bits([qhermite._generating_residual(x, ctx)])
            assert {_bits([relation_residual("generating", n, x, ctx)]) for n in range(9)} == {want}
        # a float x of either sign of 0 reads the one entry of 0.0
        assert (_bits([qhermite._generating_residual(0.0, ctx)])
                == _bits([qhermite._generating_residual(-0.0, ctx)]))
        assert len({_bits([relation_residual("generating", n, xs, ctx)]) for n in range(9)}) == 1
        assert qhermite._generating_cached.cache_info().currsize == len(self.XS) + 1


class TestOrthogonality:
    def test_discrete_offdiagonal(self):
        for n in range(7):
            for m in range(n + 1, 7):
                r = discrete_orthogonality_residual(n, m, CTX)
                assert r < 1e-12

    def test_discrete_diagonal_closed_form(self):
        for n in range(7):
            r = discrete_orthogonality_residual(n, n, CTX)
            assert r < 1e-10
            assert discrete_orthogonality_rhs(n, CTX) > 0.0

    def test_discrete_odd_entries_vanish_exactly(self):
        # h_k has the parity of k, so an entry with n + m odd is
        # (1 + (-1)^{n+m}) = 0 times the half-line sum; the line sum read up
        # to 4e-17 at 54 of these 180 entries
        odd = [discrete_orthogonality_residual(n, m, ctx)
               for ctx in GRID for n in range(9) for m in range(n + 1, 9, 2)]
        assert len(odd) == 180 and set(odd) == {0.0}

    @pytest.mark.parametrize("q, n, bound", [(0.5, 27, math.inf), (0.2, 20, math.inf),
                                             (3e-3, 8, 1e-9)])
    def test_discrete_diagonal_past_1e154(self, q, n, bound):
        # the product of the two diagonals overflowed, and the residual was NaN
        r = discrete_orthogonality_residual(n, n, QContext(q=q, alpha=0.25))
        assert math.isfinite(r) and r <= bound

    def test_continuous_offdiagonal(self):
        for (n, m) in ((0, 2), (1, 3), (2, 4)):
            r = abs(continuous_orthogonality(n, m, CTX))
            assert r < 1e-6

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.25, 1.3])
    def test_continuous_entries_near_q_one(self, alpha):
        # panels that grew by q = 0.99 put the first one's end, 0.64 cutoff, past the
        # weight's nearest pole: the entries of degree 4 to 6 raised QuadratureFailure
        ctx = QContext(q=0.99, alpha=alpha)
        values = [continuous_orthogonality(n, n, ctx) for n in range(7)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=qhermite.QUAD_TOL)
        for n, m in ((2, 6), (4, 6)):
            assert abs(continuous_orthogonality(n, m, ctx)) < qhermite.QUAD_TOL

    def test_continuous_diagonal_constant_in_n(self):
        values = []
        for n in range(4):
            values.append(continuous_orthogonality(n, n, CTX))
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-6)

    def test_continuous_cutoff_past_power_overflow(self):
        # the cutoff scan for n = m = 12 passes x = 0.3^-21, where the float
        # power x^{n+m+2a+1} overflows; the diagonal still equals n = 0's
        ctx = QContext(q=0.3, alpha=0.25)
        high = continuous_orthogonality(12, 12, ctx)
        low = continuous_orthogonality(0, 0, ctx)
        assert high == pytest.approx(low, rel=1e-12)

    @pytest.mark.parametrize("n, q, alpha", [(14, 0.3, 0.25), (14, 0.3, -0.5),
                                             (14, 0.3, 1.3), (20, 0.5, 1.3)])
    def test_continuous_high_degree_diagonal_in_range(self, n, q, alpha):
        # h_n h_m alone overflows at the largest nodes (the quadrature read
        # inf); sqrt(w) h_n and sqrt(w) h_m stay in range, and the diagonal
        # equals n = 0's
        ctx = QContext(q=q, alpha=alpha)
        high = continuous_orthogonality(n, n, ctx)
        low = continuous_orthogonality(0, 0, ctx)
        assert high == pytest.approx(low, rel=1e-12)
        if alpha == -0.5:
            assert abs(high - 1.0) <= qhermite.QUAD_TOL

    @pytest.mark.parametrize("value, err", [(math.nan, math.nan), (1.0, math.nan),
                                            (math.inf, 0.0)])
    def test_continuous_non_finite_quadrature_raises(self, monkeypatch, value, err):
        # a NaN error compares false against the tolerance: it must fail too;
        # the case enters as every entry of the 40-node Gram matrix, from which
        # the 20-node one is err away, with unit row scales
        monkeypatch.setattr(qhermite, "_gram", lambda nodes, n_max, ctx: (
            np.stack([np.full((n_max + 1, n_max + 1), v) for v in (value - err, value)]),
            np.zeros(n_max + 1), None))
        with pytest.raises(QuadratureFailure):
            continuous_orthogonality(0, 2, CTX)

    @pytest.mark.parametrize("n, q, alpha", [(0, 0.5, -0.5), (3, 0.3, 1.3),
                                             (2, 0.5, 0.25), (2, 0.3, -0.75)])
    def test_continuous_integral_matches_mpmath(self, n, q, alpha):
        # the raw integral against an independent 30-digit evaluation, to 1e-12
        # relative; at alpha = -0.75 the integrand is singular at 0 like |x|^-0.5
        ctx = QContext(q=q, alpha=alpha)
        d = norm_constant(n, ctx)
        value = continuous_orthogonality(n, n, ctx)
        want = _mp_raw_diagonal(n, q, alpha)
        assert abs(value / (d * d) - want) <= 1e-12 * abs(want)

    def test_continuous_diagonal_unity_at_classical_alpha(self):
        ctx = QContext(q=0.5, alpha=-0.5)
        for n in range(4):
            assert continuous_orthogonality(n, n, ctx) == pytest.approx(1.0, abs=1e-6)


class TestQuadratureTable:
    """The continuous orthogonality reads its entries from one Gram table per
    (q, alpha) and degree bound, built on one quadrature table of nodes."""

    def test_one_table_per_context_over_the_suite(self, monkeypatch):
        builds = []
        build = qhermite._piecewise_quad
        monkeypatch.setattr(qhermite, "_piecewise_quad",
                            lambda cutoff, ctx: builds.append(ctx) or build(cutoff, ctx))
        qhermite._gram.cache_clear()
        suite_orthogonality(SuiteConfig(suite="orthogonality"))
        # a quadrature Gram and a lattice Gram per context, all of degree <= 8
        assert qhermite._gram.cache_info().misses == 2 * 9
        assert builds == GRID

    @pytest.mark.parametrize("ctx", GRID, ids=str)
    def test_entry_independent_of_what_the_table_served_before(self, ctx):
        qhermite._gram.cache_clear()
        first = [continuous_orthogonality(n, m, ctx).hex() for n, m in ((2, 4), (5, 5))]
        qhermite._gram.cache_clear()
        table = {(n, m): continuous_orthogonality(n, m, ctx) for n in range(9) for m in range(9)}
        assert [table[2, 4].hex(), table[5, 5].hex()] == first

    def test_every_entry_to_degree_20_is_exact_or_raises(self):
        # at q = 0.05 the weight underflows to 0 where w h_n^2 is not small, and
        # the degree-20 table's rows 17 to 20 overflowed at its largest nodes;
        # rows formed in logs keep every entry within 1e-12 of its value: the
        # offset q^{(a+1)(a+1/2)} on the diagonal (a 40-digit quadrature gives
        # it to 3.6e-41 at n = 14) and 0 off it, or raise
        ctx = QContext(q=0.05, alpha=0.25)
        offset = ctx.q ** ((ctx.alpha + 1.0) * (ctx.alpha + 0.5))
        for n in range(21):
            for m in range(n, 21):
                try:
                    value = continuous_orthogonality(n, m, ctx)
                except QError:
                    continue
                assert abs(value - offset * (n == m)) <= 1e-12 * offset, (n, m)

    @pytest.mark.parametrize("ctx", GRID, ids=str)
    def test_h_selfadjoint_on_wave_functions(self, ctx):
        for n, m in ((1, 3), (3, 5), (1, 7)):
            assert selfadjoint_residual(n, m, ctx) < 1e-7


def _mp_raw_diagonal(n: int, q: float, alpha: float):
    """int w h_n^2 |x|^{2 alpha + 1} dx over the line at 30 digits:
    the weight as 1 / (z; q^2)_inf by mpmath's qp, the polynomials as their
    explicit sums in mpf, the half line split at q^12, q^6, 1, q^-6, q^-12."""
    mp = mpmath.MPContext()
    mp.dps = 30
    q, a = mp.mpf(q), mp.mpf(alpha)
    q2 = q * q

    def gen_qpoch(k):  # (q;q)_{k,alpha}
        return mp.fprod(1 - q ** (j + (2 * a + 1) * (j % 2)) for j in range(1, k + 1))

    def terms(deg):  # (power of x, coefficient) of the explicit sum of h_deg
        return [(deg - 2 * k, (-1) ** k * mp.qp(q, q, deg) * q ** (k * (2 * k + 1) - 2 * deg * k)
                 / (mp.qp(q2, q2, k) * gen_qpoch(deg - 2 * k)))
                for k in range(deg // 2 + 1)]

    hn, z_scale = terms(n), -q ** (-2 * a - 1)

    def integrand(x):
        return (mp.fsum(c * x ** p for p, c in hn) ** 2 * x ** (2 * a + 1)
                / mp.qp(z_scale * x * x, q2))

    splits = [mp.zero] + [q ** k for k in (12, 6, 0, -6, -12)] + [mp.inf]
    return 2 * mp.quad(integrand, splits, maxdegree=5)


class TestTransformsAndKernels:
    def test_bessel_weight_transform_inside_disc(self):
        for ctx in GRID:
            lim = ctx.q ** (ctx.alpha + 0.5)
            assert bessel_weight_transform(0.4 * lim, ctx) < 1e-9

    def test_bessel_weight_transform_outside_disc(self):
        # outside the disc the transform shares the continued lattice sum of
        # the integral representation
        for ctx in GRID:
            lim = ctx.q ** (ctx.alpha + 0.5)
            for frac in (1.5, 3.0):
                assert bessel_weight_transform(frac * lim, ctx) < 1e-12

    def test_transforms_near_the_disc_edge(self):
        # at 0.9 of the radius the lattice terms at y = q^{-k} alternate with
        # ratio near -0.81 and are still large at lattice_lo (at q = 0.8 the
        # envelope has not underflowed there): their tail beyond the window
        # counts
        for alpha in (-0.5, 0.25, 1.3):
            ctx = QContext(q=0.8, alpha=alpha)
            x = 0.9 * ctx.q ** (alpha + 0.5)
            assert bessel_weight_transform(x, ctx) < 1e-13
            for n in range(5):
                assert integral_representation_residual(n, x, ctx) < 1e-12

    def test_integral_representation_inside_disc(self):
        for ctx in GRID:
            x = 0.5 * ctx.q ** (ctx.alpha + 0.5)
            for n in range(5):
                assert integral_representation_residual(n, x, ctx) < 1e-8

    def test_integral_representation_outside_disc(self):
        # outside the disc the divergent half of the lattice is summed to its
        # analytic continuation; one degree of each parity per context
        for ctx in GRID:
            x = 1.5 * ctx.q ** (ctx.alpha + 0.5)
            for n in (0, 3):
                assert integral_representation_residual(n, x, ctx) < 1e-8

    def test_integral_representation_outside_disc_raises(self, monkeypatch):
        # no silently wrong value outside the disc: continued points too few
        # for the sum to settle raise
        monkeypatch.setattr(qhermite, "_CONTINUED_POINTS", 3)
        with pytest.raises(NonConvergence):
            integral_representation_residual(2, 1.5, CTX)

    def test_integral_representation_unresolvable_raises(self):
        # what the continued sum cannot resolve raises instead of returning a
        # wrong value: at alpha = 20 the lattice terms peak near 1e131 before
        # they turn geometric, beyond the working precision; at x = 100 the
        # two halves cancel below their accuracy; at x = 1e12 the weight in
        # the prefactor underflows
        cases = ((QContext(q=0.5, alpha=20.0), 1.0001 * 0.5 ** 20.5),
                 (CTX, 100.0), (CTX, 1e12))
        for ctx, x in cases:
            with pytest.raises(NonConvergence):
                integral_representation_residual(0, x, ctx)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_envelope_cut_after_large_terms_raises(self, n):
        # at q = 1e-8 the envelope is cut (below 1e-250) from y = 1e48 on, while the
        # outward terms are still about 2e32 and their ratio has not settled; past the
        # cut j grows like 1 / envelope, and with the rest dropped the residuals read
        # 2.4, 0.92 and 2.5
        ctx = QContext(q=1e-8, alpha=-0.99)
        with pytest.raises(NonConvergence, match="envelope cut"):
            integral_representation_residual(n, 0.99 * ctx.q ** (ctx.alpha + 0.5), ctx)

    def test_import_does_not_load_mpmath(self):
        # mpmath serves only the continued lattice sum outside the disc
        src = os.path.dirname(os.path.dirname(qlab.__file__))
        code = "import sys, qlab; sys.exit('mpmath' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_does_not_load_scipy(self):
        # the quadrature runs on numpy alone
        src = os.path.dirname(os.path.dirname(qlab.__file__))
        code = "import sys, qlab; sys.exit('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_poisson_kernel(self):
        for ctx in GRID:
            for (x, y) in ((0.8, 0.3), (1.2, 0.5)):
                assert poisson_kernel_residual(x, y, "general", ctx) < 1e-10

    def test_poisson_corollary_classical_alpha(self):
        ctx = QContext(q=0.5, alpha=-0.5)
        assert poisson_kernel_residual(0.8, 0.3, "half_integer_corollary",
                                       ctx) < 1e-10

    def test_bessel_expansion(self):
        for ctx in GRID:
            for x in (0.5, 1.2):
                assert bessel_expansion_residual(x, ctx) < 1e-10

    def test_rogers_ramanujan(self):
        for ctx in GRID:
            assert rogers_ramanujan_residual(ctx) < 1e-12

    def test_kernel_sum_raises_at_max_terms(self, monkeypatch):
        # a partial sum that leaves double range raises at once
        with pytest.raises(DomainError, match="kernel series"):
            bessel_expansion_residual(1e200, QContext(q=0.5, alpha=0.25))
        # the sum needs more than MAX_TERMS terms: no partial sum comes back
        monkeypatch.setattr(qlab.context, "MAX_TERMS", 8)
        with pytest.raises(NonConvergence, match="kernel series"):
            rogers_ramanujan_residual(QContext(q=0.05, alpha=0.25))

    def test_kernel_sum_runs_to_max_terms(self):
        # about 600 terms at q = 0.97; a sum capped below that reads 4e-7
        ctx = QContext(q=0.97, alpha=0.25)
        assert rogers_ramanujan_residual(ctx) < 1e-10


class TestBesselTransformIntegrand:
    """The Bessel transforms' integrand j_order(c y; q^2) y^power, with one
    _sum_series call a transform (qhermite._lattice_bessel)."""

    @staticmethod
    def _visited(monkeypatch, run) -> list:
        # (c, order, power, y, value) at every point the transforms' walks evaluate
        seen, build = [], qhermite._lattice_bessel

        def spy(c, order, power, q):
            g = build(c, order, power, q)

            def recorded(y):
                value = g(y)
                seen.append((c, order, power, y, value))
                return value
            return recorded

        monkeypatch.setattr(qhermite, "_lattice_bessel", spy)
        run()
        return seen

    @pytest.mark.parametrize("q, alpha, frac", [(0.8, -0.5, 0.9), (0.8, 0.25, 0.9),
                                                 (0.8, 1.3, 0.9), (0.9, -0.9, 0.5),
                                                 (0.5, 0.25, 1.5), (0.3, 1.3, 1.5)])
    def test_equals_the_series_at_every_visited_point(self, monkeypatch, q, alpha, frac):
        # against qbessel(c y, order, "modified") y^power at every lattice point, both
        # directions inside the disc (0.9 of the radius, and q = 0.9 at alpha = -0.9)
        # and the continued sum's small half outside it (frac 1.5).  Outward the terms
        # and the stop are the series' own: equal bit for bit.  Toward 0 the column's
        # Horner sum rounds otherwise: to 16 eps relative to max(1, sum |terms|) y^power,
        # the rounding of a sum of those terms.  Measured: at most 3.5 eps
        ctx = QContext(q=q, alpha=alpha)
        x = frac * q ** (alpha + 0.5)

        def run():
            bessel_weight_transform(x, ctx)
            for n in range(5):
                integral_representation_residual(n, x, ctx)

        seen = self._visited(monkeypatch, run)
        for c, order, power, y, value in seen:
            u = c * y
            want = qbessel(u, order, "modified", ctx) * y ** power
            if y > 1.0:
                assert value == want, y
                continue
            size = max(1.0, _sum_series(map(abs, _bessel_terms(u, order, False, q)), "sizes"))
            assert abs(value - want) <= 16 * 2.2e-16 * size * y ** power, y
        inward = sum(y <= 1.0 for *_, y, _ in seen)
        assert inward > 30
        assert len(seen) - inward > (30 if frac < 1.0 else -1)
        if frac > 1.0:  # the small half: the continued sum forms the rest in mpmath
            assert all(y < 1.0 for *_, y, _ in seen)

    def test_one_series_summed_and_no_per_point_qbessel(self, monkeypatch):
        # each transform sums one series through _sum_series, its column at y = 1, and
        # calls qbessel nowhere
        columns, sums = [], []
        bessel_terms, sum_series = qhermite._bessel_terms, qhermite._sum_series
        monkeypatch.setattr(qhermite, "_bessel_terms",
                            lambda *args: columns.append(args) or bessel_terms(*args))
        monkeypatch.setattr(qhermite, "_sum_series",
                            lambda *args: sums.append(args[1]) or sum_series(*args))

        def refuse(*args):
            raise AssertionError("qbessel at a lattice point")

        monkeypatch.setattr(qhermite, "qbessel", refuse)
        ctx = QContext(q=0.9, alpha=-0.9)
        lim = ctx.q ** (ctx.alpha + 0.5)
        for frac in (0.5, 1.5):  # the plain walk, and the continued sum
            columns.clear()
            sums.clear()
            bessel_weight_transform(frac * lim, ctx)
            assert sums == ["q-Bessel series"]
            assert [args[0] for args in columns] == [frac * lim]

    def test_outward_terms_take_the_series_ceiling(self, monkeypatch):
        # outward the terms are formed to the stop rule, up to MAX_TERMS, as in the series
        g = qhermite._lattice_bessel(0.5, 0.25, 1.5, 0.8)
        monkeypatch.setattr(qlab.context, "MAX_TERMS", 10)
        assert math.isfinite(g(0.8 ** 4))  # toward 0: the column, summed by Horner
        with pytest.raises(NonConvergence, match="q-Bessel series"):
            g(0.8 ** -30)

    def test_outward_terms_leave_double_range_as_the_series_does(self):
        g = qhermite._lattice_bessel(1.0, 0.25, 1.5, 0.5)
        with pytest.raises(DomainError, match="partial sum leaves double range") as walk:
            g(2.0 ** 200)
        with pytest.raises(DomainError) as series:
            qbessel(2.0 ** 200, 0.25, "modified", QContext(q=0.5))
        assert str(walk.value) == str(series.value)
