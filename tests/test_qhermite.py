"""Unit tests for the polynomial family, weight, and identity residuals."""

import math
import os
import subprocess
import sys
import warnings
from itertools import islice

import mpmath
import numpy as np
import pytest

import qlab
from qlab import (DomainError, NonConvergence, OrthoCheckParams, PoleError,
                  QContext, QError, QuadratureFailure, bessel_expansion_residual,
                  bessel_weight_transform, discrete_orthogonality_rhs, hermite_h,
                  hermite_h_scaled,
                  hermite_via_laguerre, integral_representation_residual,
                  moment_check, moment_constant, norm_constants, orthogonality,
                  poisson_kernel_residual, qexp_small, qlaguerre,
                  relation_residual, rogers_ramanujan_residual, weight)
from qlab import qhermite
from qlab.qcore import _gen_qpoch, _qpoch
from qlab.qhermite import _Factorials, _factorials

CTX = QContext(q=0.5, alpha=0.25)
GRID = [QContext(q=q, alpha=a) for q in (0.3, 0.5, 0.8)
        for a in (-0.5, 0.25, 1.3)]


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
        wide = QContext(q=0.93, alpha=0.25, max_terms=2000)
        for x, y in ((0.8, 0.3), (1.2, 0.5)):
            assert poisson_kernel_residual(x, y, "general", wide) < 1e-12

    def test_poisson_coefficient_does_not_underflow(self):
        # at q = 0.97 the coefficient's (1-q)^i underflows to 0 near i = 210,
        # which would drop the remaining terms and leave a residual of 0.054;
        # the running product keeps them.  The residual left is the q-Bessel
        # side's (the kernel sum agrees with a 60-digit sum to 2e-13)
        ctx = QContext(q=0.97, alpha=1.0, max_terms=2000)
        assert poisson_kernel_residual(0.8, 0.3, "general", ctx) < 1e-7
        coeff = list(islice(qhermite._poisson_coefficients(ctx), 1000))
        fac = _Factorials(0.97, 1.0).upto(40)
        for i in range(41):
            assert coeff[i] == pytest.approx(fac.gp[i] / fac.qp[i] ** 2, rel=1e-13)
        assert min(coeff) > 0.0


class TestFactorialTable:
    QS = (0.05, 0.3, 0.5, 0.8, 0.95)
    ALPHAS = (-0.9, -0.5, 0.25, 1.3, 2.3)

    def test_entries_equal_the_direct_products(self):
        # bit-for-bit, not approximately: the table replaces these calls
        for q in self.QS:
            q2 = q * q
            for a in self.ALPHAS:
                f = _Factorials(q, a).upto(120)
                for n in range(121):
                    assert f.qp[n] == _qpoch(q, n, q)
                    assert f.qq[n] == _qpoch(q2, n, q2)
                    assert f.ab[n] == _qpoch(q ** (2.0 * a + 2.0), n, q2)
                    assert f.gp[n] == _gen_qpoch(n, q, a)

    def test_independent_of_request_order(self):
        for q in self.QS:
            for a in self.ALPHAS:
                f = _Factorials(q, a)
                assert len(f.upto(7).gp) == 8  # grown only as far as asked
                f.upto(3)
                f.upto(120)
                g = _Factorials(q, a).upto(120)
                assert (f.qp, f.qq, f.ab, f.gp) == (g.qp, g.qq, g.ab, g.gp)

    def test_negative_index_raises(self):
        with pytest.raises(DomainError):
            _Factorials(0.5, 0.25).upto(-1)

    def test_cache_is_bounded(self):
        assert _factorials.cache_info().maxsize is not None


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

    def test_hermite_h_generalized_factorial_underflow(self):
        # (q;q)_{n,alpha} = (1-q)^n n!_{q,alpha} underflows to 0 with (1-q)^n
        ctx = QContext(q=0.99)
        with pytest.raises(DomainError):
            hermite_h(170, 0.5, ctx)
        with pytest.raises(QError):
            poisson_kernel_residual(0.8, 0.3, "general", ctx.with_alpha(0.25))


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
            norm_constants(2, QContext(q=0.5, alpha=1.0))

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


class TestOrthogonality:
    def test_discrete_offdiagonal(self):
        for n in range(7):
            for m in range(n + 1, 7):
                r = orthogonality(OrthoCheckParams(n, m, "discrete_jackson"), CTX)
                assert r.residual < 1e-12

    def test_discrete_diagonal_closed_form(self):
        for n in range(7):
            r = orthogonality(OrthoCheckParams(n, n, "discrete_jackson"), CTX)
            assert r.residual < 1e-10
            assert discrete_orthogonality_rhs(n, CTX) > 0.0

    def test_continuous_offdiagonal(self):
        for (n, m) in ((0, 2), (1, 3), (2, 4)):
            r = orthogonality(OrthoCheckParams(n, m, "continuous_quadrature"), CTX)
            assert r.residual < 1e-6

    def test_continuous_diagonal_constant_in_n(self):
        values = []
        for n in range(4):
            r = orthogonality(OrthoCheckParams(n, n, "continuous_quadrature"), CTX)
            values.append(r.params["value"])
        for v in values[1:]:
            assert v == pytest.approx(values[0], abs=1e-6)

    def test_continuous_cutoff_past_power_overflow(self):
        # the cutoff scan for n = m = 12 passes x = 0.3^-21, where the float
        # power x^{n+m+2a+1} overflows; the diagonal still equals n = 0's
        ctx = QContext(q=0.3, alpha=0.25)
        high = orthogonality(OrthoCheckParams(12, 12, "continuous_quadrature"), ctx)
        low = orthogonality(OrthoCheckParams(0, 0, "continuous_quadrature"), ctx)
        assert high.params["value"] == pytest.approx(low.params["value"], rel=1e-12)

    @pytest.mark.parametrize("value, err", [(math.nan, math.nan), (1.0, math.nan),
                                            (math.inf, 0.0)])
    def test_continuous_non_finite_quadrature_raises(self, monkeypatch, value, err):
        # a NaN error compares false against the tolerance: it must fail too
        monkeypatch.setattr(qhermite, "_piecewise_quad", lambda f, c, ctx: (value, err))
        with pytest.raises(QuadratureFailure):
            orthogonality(OrthoCheckParams(0, 2, "continuous_quadrature"), CTX)

    @pytest.mark.parametrize("n, q, alpha", [(0, 0.5, -0.5), (3, 0.3, 1.3),
                                             (2, 0.5, 0.25), (2, 0.3, -0.75)])
    def test_continuous_integral_matches_mpmath(self, n, q, alpha):
        # the raw integral against an independent 30-digit evaluation, to 1e-12
        # relative; at alpha = -0.75 the integrand is singular at 0 like |x|^-0.5
        ctx = QContext(q=q, alpha=alpha)
        d = norm_constants(n, ctx)[0]
        value = orthogonality(OrthoCheckParams(n, n, "continuous_quadrature"),
                              ctx).params["value"]
        want = _mp_raw_diagonal(n, q, alpha)
        assert abs(value / (d * d) - want) <= 1e-12 * abs(want)

    def test_continuous_diagonal_unity_at_classical_alpha(self):
        ctx = QContext(q=0.5, alpha=-0.5)
        for n in range(4):
            r = orthogonality(OrthoCheckParams(n, n, "continuous_quadrature"), ctx)
            assert r.params["value"] == pytest.approx(1.0, abs=1e-6)


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

    def test_integral_representation_outside_disc_raises(self):
        # no silently wrong value outside the disc: a lattice window too short
        # for the continued sum to settle raises
        short = QContext(q=0.5, alpha=0.25, lattice_lo=-3)
        with pytest.raises(NonConvergence):
            integral_representation_residual(2, 1.5, short)

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

    def test_kernel_sum_raises_at_max_terms(self):
        # the sum needs more than max_terms terms: no partial sum comes back
        with pytest.raises(NonConvergence):
            rogers_ramanujan_residual(QContext(q=0.5, alpha=0.25, max_terms=5))
        # here the closed form converges within max_terms; the sum does not
        with pytest.raises(NonConvergence, match="kernel series"):
            rogers_ramanujan_residual(QContext(q=0.05, alpha=0.25, max_terms=8))

    def test_kernel_sum_runs_to_max_terms(self):
        # about 600 terms at q = 0.97; a sum capped below that reads 4e-7
        ctx = QContext(q=0.97, alpha=0.25, max_terms=2000)
        assert rogers_ramanujan_residual(ctx) < 1e-10
