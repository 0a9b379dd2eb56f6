"""Unit tests for q-numbers, q-shifted factorials, derivatives, integrals."""

import dataclasses
import math
import re
import warnings
from itertools import count

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import (ConfigError, DomainError, QContext, TruncatedValue, gen_qfact,
                  gen_qint, gen_qpoch, hermite_h, jackson_integral, qbessel, qderiv,
                  qderiv_levels, qderiv_pow, qnumber, qpoch, qpoch_inf, qexp_gen, qtrig,
                  sym_qnumber, theta)
from qlab import context
from qlab.context import MAX_TERMS, SERIES_TOL, NonConvergence
from qlab.qcore import Points, _guarded, _qpoch, _qpoch_inf, _qpoch_inf_cached, _sum_series
from qlab import SuiteConfig, qhermite
from qlab.qhermite import (_gauss_jacobi, discrete_orthogonality_residual,
                           discrete_orthogonality_rhs, weight)
from qlab.suites import suite_orthogonality

CTX = QContext(q=0.5, alpha=0.25)


def _root_h(n: int, x: float, ctx: QContext) -> float:
    # sqrt(w) h_n by the explicit sum, independent of phi's recurrence; 0 where
    # sqrt(w) < 1e-250, far out, where h_n may leave double range
    root = math.sqrt(weight(x, ctx))
    return 0.0 if root < 1e-250 else root * hermite_h(n, x, ctx)


def _ortho_integrand(n: int, m: int, ctx: QContext):
    # (sqrt(w) h_n) (sqrt(w) h_m) |x|^{2a+1} at a point: the discrete entries' integrand
    return lambda x: _root_h(n, x, ctx) * _root_h(m, x, ctx) * abs(x) ** (2.0 * ctx.alpha + 1.0)


class TestContext:
    def test_rejects_bad_q(self):
        with pytest.raises(ConfigError):
            QContext(q=1.2)
        with pytest.raises(ConfigError):
            QContext(q=0.0)

    @pytest.mark.parametrize("alpha", [-1.0, math.inf, math.nan])
    def test_rejects_bad_alpha(self, alpha):
        # at alpha = inf norm_constant's sin(pi alpha) raised a raw ValueError
        with pytest.raises(ConfigError):
            QContext(q=0.5, alpha=alpha)

    def test_with_alpha(self):
        assert CTX.with_alpha(-0.5).alpha == -0.5
        assert CTX.with_alpha(-0.5).q == CTX.q

    def test_fields_are_q_and_alpha(self):
        # truncation caps are derived from the inputs, never set per context
        assert [f.name for f in dataclasses.fields(QContext)] == ["q", "alpha"]


class TestPochhammer:
    def test_small_cases(self):
        q = 0.5
        assert qpoch(0.3, 0, CTX) == 1.0
        assert qpoch(0.3, 1, CTX) == pytest.approx(0.7)
        assert qpoch(0.3, 2, CTX) == pytest.approx(0.7 * (1 - 0.3 * q))

    @pytest.mark.parametrize("a", [1e300, -1e300, math.inf, -math.inf, math.nan])
    def test_a_product_out_of_range_raises(self, a):
        # (1e300; q)_3 read -inf; a nan or infinite a gave nan or inf
        with pytest.raises(DomainError):
            qpoch(a, 3, CTX)

    def test_infinite_product_matches_truncated(self):
        a, q = -0.4, 0.7
        manual = 1.0
        for k in range(500):
            manual *= 1.0 - a * q ** k
        got = qpoch_inf(a, QContext(q=q))
        assert isinstance(got, TruncatedValue)
        assert got.value == pytest.approx(manual, rel=1e-14)
        assert got.tail_bound < 1e-10

    def test_even_odd_factorization(self):
        # (q; q)_{2n} = (q; q^2)_n (q^2; q^2)_n
        q = 0.6
        c, c2 = QContext(q=q), QContext(q=q * q)
        for n in range(8):
            lhs = qpoch(q, 2 * n, c)
            rhs = qpoch(q, n, c2) * qpoch(q * q, n, c2)
            assert lhs == pytest.approx(rhs, rel=1e-13)


def _qpoch_inf_reference(a, q, tol, max_terms):
    """The infinite product as it was computed before it was cached, kept
    verbatim as the oracle of the cached and the array path."""
    array = isinstance(a, np.ndarray)
    top = float(np.max(np.abs(a))) if array else abs(a)
    if top == 0.0:
        return TruncatedValue(np.ones_like(a) if array else 1.0, 0.0, 0)
    out = 1.0
    aq = a.copy() if array else a
    for k in range(1, max_terms + 1):
        out *= 1.0 - aq
        aq *= q
        top *= q
        s = top / (1.0 - q)
        if s < 0.5:
            rel_tail = math.expm1(2.0 * s)
            if rel_tail <= tol:
                if array:
                    tail = np.where(np.isfinite(out), np.abs(out) * rel_tail, np.inf)
                else:
                    tail = abs(out) * rel_tail if math.isfinite(out) else math.inf
                return TruncatedValue(out, tail, k)
    raise NonConvergence("did not converge")


def _outcome(a, q, f):
    """(value bytes, tail bytes, terms_used) of f, or the type it raises."""
    try:
        got = f(a, q)
    except NonConvergence as exc:
        return type(exc)
    return (np.asarray(got.value, dtype=float).tobytes(),
            np.asarray(got.tail_bound, dtype=float).tobytes(), got.terms_used)


def _reference(a, q):
    return _qpoch_inf_reference(a, q, SERIES_TOL, MAX_TERMS)


PRODUCT_ARGS = dict(a=st.floats(-1e6, 0.99), q=st.floats(0.01, 0.99))


class TestProductCache:
    @given(**PRODUCT_ARGS)
    @settings(max_examples=300, deadline=None)
    def test_scalar_bitwise_equal_to_reference(self, a, q):
        want = _outcome(a, q, _reference)
        # a miss and then a hit of the cache
        assert _outcome(a, q, _qpoch_inf) == want
        assert _outcome(a, q, _qpoch_inf) == want

    @given(values=st.lists(PRODUCT_ARGS["a"], min_size=1, max_size=6), q=PRODUCT_ARGS["q"])
    @settings(max_examples=150, deadline=None)
    def test_array_bitwise_equal_to_reference(self, values, q):
        # an array is formed afresh on every call, inf where it overflows, and
        # left as it was given
        a = np.array(values)
        with np.errstate(over="ignore"):
            want = _outcome(a, q, _reference)
        assert _outcome(a, q, _qpoch_inf) == want
        assert a.tolist() == values

    @pytest.mark.parametrize("size, q", [(257, 0.5), (3000, 0.9), (100, 0.998)])
    def test_large_array_bitwise_equal_to_reference(self, size, q):
        # past 256 points, or 2^18 factors in all (21 252 factors a point at
        # q = 0.998), the factors are multiplied a pass each instead of in one table
        a = -np.linspace(0.0, 30.0, size)
        with np.errstate(over="ignore"):
            want = _outcome(a, q, _reference)
        assert _outcome(a, q, _qpoch_inf) == want
        assert a[-1] == -30.0

    def test_int_float_and_numpy_keys_agree(self):
        _qpoch_inf_cached.cache_clear()
        got = [_qpoch_inf(a, 0.5) for a in (-3, -3.0, np.float64(-3.0))]
        assert got[0] == got[1] == got[2]
        assert type(got[2].value) is float
        assert _qpoch_inf_cached.cache_info().misses == 1

    def test_cache_is_bounded(self):
        _qpoch_inf_cached.cache_clear()
        for k in range(300):
            _qpoch_inf(-k / 300.0, 0.5)
        info = _qpoch_inf_cached.cache_info()
        assert info.maxsize == 256
        assert info.currsize == 256

    def test_nonconvergence_is_not_cached(self):
        _qpoch_inf(-1.0, 0.5)
        size = _qpoch_inf_cached.cache_info().currsize
        for _ in range(3):
            with pytest.raises(NonConvergence):
                _qpoch_inf(-1.0, 0.9999999)
            assert _qpoch_inf_cached.cache_info().currsize == size

    @pytest.mark.parametrize("a, q, tol", [(-1.0, 0.99, 1e-14), (0.5, 0.99, 1e-14),
                                           (-1e6, 0.98, 1e-8), (-30.0, 0.995, 1e-12),
                                           (0.9, 0.9, 1e-300)])
    def test_nonconvergence_names_needed_factors(self, a, q, tol, monkeypatch):
        # the count named beyond a (lowered) ceiling is the count the loop
        # reaches under a ceiling that lets it finish
        monkeypatch.setattr(context, "SERIES_TOL", tol)
        _qpoch_inf_cached.cache_clear()  # its entries hold the default tolerance
        try:
            monkeypatch.setattr(context, "MAX_TERMS", 400)
            with pytest.raises(NonConvergence, match="needs about") as exc:
                _qpoch_inf(a, q)
            named = int(re.search(r"needs about (\d+) factors", str(exc.value)).group(1))
            monkeypatch.setattr(context, "MAX_TERMS", 100_000)
            assert abs(named - _qpoch_inf(a, q).terms_used) <= 1
        finally:
            _qpoch_inf_cached.cache_clear()

    def test_beyond_the_ceiling_raises(self):
        # (-1e300; 0.9999999)_inf needs 7 398 229 255 factors
        with pytest.raises(NonConvergence, match="needs about 7398229255 factors"):
            _qpoch_inf(-1e300, 0.9999999)

    @pytest.mark.parametrize("a", [np.full(1000, -1e300), np.array([0.3, math.inf] * 500)])
    def test_array_message_names_size_and_range(self, a):
        # the message named every entry of a: about 23 KB for 1000 points
        with pytest.raises((NonConvergence, DomainError)) as info:
            _qpoch_inf(a, 0.999)
        assert "1000 points in [" in str(info.value)
        assert len(str(info.value)) <= 300

    def test_discrete_orthogonality_reads_one_lattice_gram_per_context(self, monkeypatch):
        # every discrete entry of the suite reads the Gram matrix of one lattice
        # table per context, next to the continuous entries' quadrature table
        lattices = []
        build = qhermite._jackson_nodes
        monkeypatch.setattr(qhermite, "_jackson_nodes",
                            lambda n_max, ctx: lattices.append(ctx) or build(n_max, ctx))
        qhermite._gram.cache_clear()
        suite_orthogonality(SuiteConfig(suite="orthogonality"))
        info = qhermite._gram.cache_info()
        # per context 25 discrete entries with n + m even (the other 20 are 0
        # unread) and 28 continuous ones, all of degree <= 8
        assert (info.misses, info.hits) == (2 * 9, 9 * (25 + 28) - 2 * 9)
        assert lattices == [QContext(q=q, alpha=a) for q in (0.3, 0.5, 0.8)
                            for a in (-0.5, 0.25, 1.3)]

    @pytest.mark.parametrize("alpha, n, m", [(-0.5, 0, 0), (0.25, 5, 5), (5.0, 2, 5)])
    def test_lattice_far_end_carries_no_mass(self, alpha, n, m):
        # at q = 1e-4 the window's far end was x = q^-40 = 1e160, whose square is
        # inf; it is now the quadrature cutoff (1e64 or 1e52 here), where the rows
        # carry no mass, and the entry matches the point-by-point sum
        ctx = QContext(q=1e-4, alpha=alpha)
        assert qhermite._jackson_nodes(8, ctx)[0][0] == qhermite._auto_cutoff(8, ctx) < 1e65
        (gram,), top, ends = qhermite._gram(qhermite._jackson_nodes, 8, ctx)
        assert (abs(ends[:, 0]) < 1e-40).all() and np.isfinite(gram).all()
        g = _ortho_integrand(n, m, ctx)
        ref = jackson_integral(lambda y: g(y) + g(-y), ctx).value
        scale = math.sqrt(discrete_orthogonality_rhs(n, ctx) * discrete_orthogonality_rhs(m, ctx))
        expected = abs(ref - scale) / scale if n == m else abs(ref) / scale
        assert discrete_orthogonality_residual(n, m, ctx) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("k", [20, 40])
    def test_gauss_legendre_rule_is_the_jacobi_rule_at_beta_0(self, k):
        # exact to degree 2k - 1: x^(2k - 2) to a few ulp (leggauss errs by 2.4e-13 at k = 40)
        nodes, weights = _gauss_jacobi(k, 0.0)
        assert weights @ nodes ** (2 * k - 2) == pytest.approx(2.0 / (2 * k - 1), rel=1e-14)
        assert weights.sum() == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("k, beta", [(20, -0.6), (40, 0.5), (40, 3.6), (40, 0.0)])
    def test_gauss_jacobi_rules_are_read_only(self, k, beta):
        nodes, weights = _gauss_jacobi(k, beta)
        fresh = _gauss_jacobi.__wrapped__(k, beta)
        assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
        assert _gauss_jacobi(k, beta)[0] is nodes
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestQNumbers:
    def test_qnumber_integer(self):
        # (1 - q^3)/(1 - q) = 1 + q + q^2
        assert qnumber(3.0, CTX) == pytest.approx(1 + 0.5 + 0.25)

    def test_sym_qnumber_at_one(self):
        assert sym_qnumber(1.0, 0.8) == pytest.approx(1.0)

    def test_sym_qnumber_odd(self):
        assert sym_qnumber(-2.3, 0.6) == pytest.approx(-sym_qnumber(2.3, 0.6))

    @pytest.mark.parametrize("base", [1.0, 0.0, -0.5, -1e300, math.inf, -math.inf, math.nan])
    def test_sym_qnumber_outside_its_bases_raises(self, base):
        # a negative base gave a complex number at x = 0.5, a non-finite one nan
        with pytest.raises(DomainError):
            sym_qnumber(0.5, base)

    @given(x=st.floats(-6, 6), y=st.floats(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_qnumber_addition(self, x, y):
        # [x + y] = [x] + q^x [y]
        q = 0.5
        lhs = qnumber(x + y, CTX)
        rhs = qnumber(x, CTX) + q ** x * qnumber(y, CTX)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_theta_parity_indicator(self):
        assert [theta(n) for n in range(5)] == [1, 0, 1, 0, 1]

    def test_gen_qint_even_is_plain(self):
        for m in range(5):
            assert gen_qint(2 * m, CTX) == pytest.approx(qnumber(2 * m, CTX))

    def test_gen_qint_odd_is_shifted(self):
        a = CTX.alpha
        for m in range(5):
            got = gen_qint(2 * m + 1, CTX)
            assert got == pytest.approx(qnumber(2 * m + 2 * a + 2, CTX))

    def test_gen_qfact_is_product(self):
        prod = 1.0
        for k in range(1, 7):
            prod *= gen_qint(k, CTX)
            assert gen_qfact(k, CTX) == pytest.approx(prod, rel=1e-13)

    def test_gen_qpoch_scaling(self):
        # (q; q)_{n, alpha} = (1 - q)^n n!_{q, alpha}
        for n in range(7):
            assert gen_qpoch(n, CTX) == pytest.approx(
                (1 - CTX.q) ** n * gen_qfact(n, CTX), rel=1e-13)

    def test_gen_objects_collapse_classical(self):
        c = QContext(q=0.5, alpha=-0.5)
        for n in range(8):
            assert gen_qint(n, c) == pytest.approx(qnumber(n, c), rel=1e-14)
            assert gen_qpoch(n, c) == pytest.approx(qpoch(c.q, n, c), rel=1e-13)


class TestDerivatives:
    def test_backward_on_monomial(self):
        # D_q x^n = [n]_q x^{n-1}
        f = lambda t: t ** 4  # noqa: E731
        got = qderiv(f, 1.3, "backward", CTX)
        assert got == pytest.approx(qnumber(4, CTX) * 1.3 ** 3, rel=1e-12)

    def test_forward_is_backward_at_smaller_base_point(self):
        f = lambda t: t ** 3 + 2.0 * t  # noqa: E731
        x = 0.9
        assert qderiv(f, x, "forward", CTX) == pytest.approx(
            qderiv(f, x / CTX.q, "backward", CTX) / CTX.q, rel=1e-12)

    @given(x=st.floats(0.2, 2.0), a=st.floats(-3, 3), b=st.floats(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, x, a, b):
        f = lambda t: t ** 2  # noqa: E731
        g = lambda t: math.sin(t)  # noqa: E731
        for variant in ("backward", "delta_alpha", "delta_alpha_plus"):
            lhs = qderiv(lambda t: a * f(t) + b * g(t), x, variant, CTX)
            rhs = (a * qderiv(f, x, variant, CTX)
                   + b * qderiv(g, x, variant, CTX))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    def test_delta_alpha_monomials(self):
        # Delta_alpha x^n = <<n>>_{q,alpha} x^{n-1} / (1 - q), parity-split rule
        for n in range(1, 8):
            got = qderiv(lambda t: t ** n, 0.7, "delta_alpha", CTX)
            want = gen_qpoch(n, CTX) / ((1 - CTX.q) * gen_qpoch(n - 1, CTX)) \
                * 0.7 ** (n - 1)
            assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("x", [0.7, -1.3])
    def test_alpha_variants_are_the_delta_operators_on_an_odd_function(self, x):
        # an odd f has no even part, and on the odd part Delta_alpha is backward_alpha
        # and Delta_alpha^+ is forward_alpha
        f = lambda t: t ** 3  # noqa: E731
        assert qderiv(f, x, "backward_alpha", CTX) == qderiv(f, x, "delta_alpha", CTX)
        assert qderiv(f, x, "forward_alpha", CTX) == qderiv(f, x, "delta_alpha_plus", CTX)

    def test_alpha_variants_on_monomials(self):
        # their definitions bit for bit, and on t^m the closed forms
        # x^{m-1} (1 - q^{m+2a+1}) / (1-q) and x^{m-1} (q^{-m} - q^{2a+1}) / (1-q)
        q, s = CTX.q, CTX.q ** (2.0 * CTX.alpha + 1.0)
        for m in range(6):
            for x in (0.7, -1.3):
                f = lambda t: t ** m  # noqa: E731
                backward = qderiv(f, x, "backward_alpha", CTX)
                forward = qderiv(f, x, "forward_alpha", CTX)
                assert backward == (f(x) - s * f(q * x)) / ((1.0 - q) * x)
                assert forward == (f(x / q) - s * f(x)) / ((1.0 - q) * x)
                assert backward == pytest.approx(x ** (m - 1) * (1.0 - q ** m * s) / (1.0 - q),
                                                 rel=1e-14)
                assert forward == pytest.approx(x ** (m - 1) * (q ** -m - s) / (1.0 - q),
                                                rel=1e-14)

    def test_qderiv_pow_composes(self):
        one = qderiv_pow(lambda t: t ** 5, 1, "delta_alpha", CTX)
        two = qderiv_pow(lambda t: t ** 5, 2, "delta_alpha", CTX)
        again = qderiv(one, 0.8, "delta_alpha", CTX)
        assert two(0.8) == pytest.approx(again, rel=1e-11)

    def test_qderiv_pow_rejects_plain_variants(self):
        from qlab import ArgumentError
        with pytest.raises(ArgumentError):
            qderiv_pow(lambda t: t, 2, "backward", CTX)


class TestIntegrals:
    def test_halfline_linear_on_unit_interval(self):
        # restrict t to [0, 1]: (1 - q) sum q^{2k} = 1/(1 + q)
        f = lambda t: t if t <= 1.0 else 0.0  # noqa: E731
        got = jackson_integral(f, CTX)
        assert got.value == pytest.approx(1.0 / (1.0 + CTX.q), rel=1e-13)

    def test_slow_decay_sums_the_tail_beyond_the_window(self):
        # the terms (q^0.02)^n at y = q^n are still above series_tol at
        # lattice_hi; the geometric tail beyond it is summed, not dropped
        q = 0.3
        f = lambda t: t ** -0.98 if t <= 1.0 else 0.0  # noqa: E731
        got = jackson_integral(f, QContext(q=q))
        mp = mpmath.MPContext()
        mp.dps = 30
        exact = (1 - mp.mpf(q)) / (1 - mp.mpf(q) ** mp.mpf("0.02"))  # (1-q)/(1-q^0.02)
        assert abs(got.value - exact) <= got.tail_bound < 1e-12 * exact

    def test_integrand_overflow_raises_domain_error(self):
        # a raw ZeroDivisionError or OverflowError of the integrand at a
        # lattice point becomes a DomainError naming the point
        with pytest.raises(DomainError, match=r"at q\^0 = 1\.0"):
            jackson_integral(lambda t: 1.0 / (t - 1.0), CTX)
        with pytest.raises(DomainError, match=r"at q\^3 = 0\.125"):
            jackson_integral(lambda t: t ** -400.0, CTX)

    def test_divergent_integrand_raises(self):
        from qlab import NonConvergence
        with pytest.raises(NonConvergence):
            jackson_integral(lambda t: t, CTX)

    def test_a_walk_with_no_stop_raises_at_the_ceiling(self, monkeypatch):
        # a constant integrand neither falls off nor settles a tail: the walk runs
        # to MAX_TERMS points
        monkeypatch.setattr(context, "MAX_TERMS", 10)
        with pytest.raises(NonConvergence, match="no stop within 10 points"):
            jackson_integral(lambda y: 1.0, CTX)


def _memoized(f):
    cache = {}

    def g(x):
        if x not in cache:
            cache[x] = f(x)
        return cache[x]

    return g


def _memoized_power(f, op, k):
    # the k-fold composition g -> (x -> op(g, x)) applied to f, each level
    # memoized: the reference the lattice engine replaced
    g = _memoized(f)
    for _ in range(k):
        g = _memoized(lambda x, p=g: op(p, x))
    return g


class TestLatticeTower:
    """qderiv_pow evaluates f once per lattice point and runs the k levels
    on lists; it must equal the memoized composition of qderiv bit for bit."""

    @given(q=st.floats(0.05, 0.95), alpha=st.floats(-0.95, 3.0),
           n=st.integers(0, 14), frac=st.floats(0.0, 1.0),
           x=st.floats(0.1, 2.5), sign=st.sampled_from((1.0, -1.0)),
           mixed=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_memoized_composition(self, q, alpha, n, frac, x, sign, mixed):
        ctx = QContext(q=q, alpha=alpha)
        k = round(frac * n)
        if mixed:  # no parity, so both halves are nonzero
            f = lambda t: t ** n + math.sin(t) + 0.5 * math.cos(2.0 * t)  # noqa: E731
        else:
            f = lambda t: t ** n  # noqa: E731
        for variant in ("delta_alpha", "delta_alpha_plus"):
            want = _memoized_power(f, lambda p, t: qderiv(p, t, variant, ctx), k)(sign * x)
            got = qderiv_pow(f, k, variant, ctx)(sign * x)
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_calls_f_once_per_lattice_point(self):
        for variant in ("delta_alpha", "delta_alpha_plus"):
            for k in range(1, 13):
                points = []

                def f(t):
                    points.append(t)
                    return math.exp(-t * t) + t ** 3

                qderiv_pow(f, k, variant, CTX)(0.9)
                assert len(points) == len(set(points)) == 2 * (k + 1)

    def test_zero_raises_domain_error(self):
        for variant in ("delta_alpha", "delta_alpha_plus"):
            for k in (1, 5):
                with pytest.raises(DomainError):
                    qderiv_pow(lambda t: t ** 6, k, variant, CTX)(0.0)

    @given(q=st.floats(0.05, 0.95), alpha=st.floats(-0.95, 3.0), n=st.integers(0, 14),
           x=st.floats(0.1, 2.5), sign=st.sampled_from((1.0, -1.0)))
    @settings(max_examples=200, deadline=None)
    def test_levels_equal_each_power(self, q, alpha, n, x, sign):
        # reach (0, 1) keeps x at the front of the lattice, (-1, 0) at its end
        ctx = QContext(q=q, alpha=alpha)
        f = lambda t: t ** n + math.sin(t) + 0.5 * math.cos(2.0 * t)  # noqa: E731
        for variant in ("delta_alpha", "delta_alpha_plus"):
            levels = qderiv_levels(f, n, variant, ctx)(sign * x)
            want = [qderiv_pow(f, k, variant, ctx)(sign * x) for k in range(n + 1)]
            assert len(levels) == n + 1
            assert all(g == w or (math.isnan(g) and math.isnan(w)) for g, w in zip(levels, want))

    def test_levels_call_f_once_per_lattice_point(self):
        for variant in ("delta_alpha", "delta_alpha_plus"):
            for n in (0, 1, 6, 12):
                points = []

                def f(t):
                    points.append(t)
                    return math.exp(-t * t) + t ** 3

                qderiv_levels(f, n, variant, CTX)(0.9)
                assert len(points) == len(set(points)) == 2 * (n + 1)

    def test_levels_stop_before_a_point_rounded_to_zero(self):
        # at q = 1e-30, x q^11 underflows to 0 for x = 0.3 and -1.1: level 12
        # would divide by it, so the order-12 list holds levels 0..11, each the
        # power's own value, and only the 12th power raises
        ctx = QContext(q=1e-30, alpha=0.25)
        f = lambda t: t ** 12  # noqa: E731
        for x in (0.3, -1.1):
            levels = qderiv_levels(f, 12, "delta_alpha", ctx)(x)
            assert len(levels) == 12
            assert levels == [qderiv_pow(f, k, "delta_alpha", ctx)(x) for k in range(12)]
            with pytest.raises(DomainError):
                qderiv_pow(f, 12, "delta_alpha", ctx)(x)
        # at x = 0 only level 0 is defined, and on an array one zero point decides
        for variant in ("delta_alpha", "delta_alpha_plus"):
            assert qderiv_levels(f, 5, variant, ctx)(0.0) == [0.0]
            assert len(qderiv_levels(f, 5, variant, ctx)(np.array([0.0, 0.5]))) == 1

    def test_mpmath_context_meets_the_odd_bessel_identity(self):
        # Delta^{2n+1} j_a(l x) = (-1)^{n+1} q^{(n+1)(n+2)} l^{2n+2} x
        #   j_{a+1}(q^{n+1} l x) / ((1-q)^{2n+1} (1-q^{2a+2})), with
        # j_a(u; q^2) = 1phi1(0; q^{2a+2}; q^2, q^2 u^2): in 50 digits the
        # engine meets it to 1e-34, so the float check's loss at q = 0.2208,
        # alpha = -0.836, n = 2 is cancellation: in floats the left side
        # reads -2.65e-9, in 50 digits -1.2669e-8
        mp = mpmath.MPContext()
        mp.dps = 50
        lam, x = mp.mpf(0.7), mp.mpf(0.9)
        for qf, af in ((0.2208, -0.836), (0.5, 0.25), (0.8, 1.3)):
            q, a = mp.mpf(qf), mp.mpf(af)
            ctx = QContext(q=q, alpha=a)

            def j(u, order):
                return mp.qhyper([0], [q ** (2 * order + 2)], q * q, q * q * u * u)

            for n in (1, 2):
                lhs = qderiv_pow(lambda t: j(lam * t, a), 2 * n + 1, "delta_alpha", ctx)(x)
                rhs = ((-1) ** (n + 1) * q ** ((n + 1) * (n + 2)) * lam ** (2 * n + 2) * x
                       * j(q ** (n + 1) * lam * x, a + 1)
                       / ((1 - q) ** (2 * n + 1) * (1 - q ** (2 * a + 2))))
                assert isinstance(lhs, mp.mpf)
                assert abs(lhs - rhs) <= 1e-34 * abs(rhs)
                levels = qderiv_levels(lambda t: j(lam * t, a), 2 * n + 1, "delta_alpha", ctx)(x)
                assert levels[-1] == lhs and all(isinstance(v, mp.mpf) for v in levels)
            assert float(j(lam * x, a)) == pytest.approx(
                qbessel(0.63, af, "modified", QContext(q=qf, alpha=af)), rel=1e-14)


def _qexp_gen_per_term(z, ctx):
    # the per-term formula qexp_gen used before it read the factorial table,
    # stopped by the shared rule: three successive terms below SERIES_TOL
    # relative to max(1, |sum|), from the sixth term on
    q = ctx.q
    total = 0.0
    below = 0
    for k in range(MAX_TERMS):
        t = q ** (k * (k - 1) / 2.0) * z ** k / gen_qpoch(k, ctx)
        total += t
        if abs(t) < SERIES_TOL * max(1.0, abs(total)):
            below += 1
            if below >= 3 and k > 4:
                return total
        else:
            below = 0
    raise AssertionError("reference series did not converge")


def _qtrig_per_term(z, which, q):
    # the per-term formula qtrig used before it read the factorial table,
    # stopped by the shared rule
    total = 0.0
    below = 0
    for n in range(300):
        if which == "cos":
            t = (-1.0) ** n * q ** (n * (2 * n - 1)) * z ** (2 * n) / _qpoch(q, 2 * n, q)
        else:
            t = (-1.0) ** n * q ** (n * (2 * n + 1)) * z ** (2 * n + 1) / _qpoch(q, 2 * n + 1, q)
        total += t
        if abs(t) < SERIES_TOL * max(1.0, abs(total)):
            below += 1
            if below >= 3 and n > 4:
                return total
        else:
            below = 0
    raise AssertionError("reference series did not converge")


class TestSumSeries:
    def test_a_lone_zero_term_does_not_stop_the_sum(self):
        # 1, 1/2, 1/4, 0, 1/16, ...: a one-term rule stops at 1.75
        terms = (0.0 if k == 3 else 0.5 ** k for k in count())
        assert _sum_series(terms, "test series") == pytest.approx(1.875, rel=1e-14)

    def test_stops_after_three_small_terms_from_the_sixth_on(self):
        drawn = []

        def terms():
            for k in count():
                drawn.append(k)
                yield 1.0 if k == 0 else 0.0

        assert _sum_series(terms(), "test series") == 1.0
        assert drawn == list(range(6))

    @pytest.mark.parametrize("terms", [
        (math.exp(100.0 * k) for k in count()),  # OverflowError forming a term
        (1.0 / (3 - k) for k in count()),  # ZeroDivisionError forming a term
        (1e308 for _ in count()),  # the partial sum overflows to inf
        iter([1.0, math.nan]),  # the partial sum is NaN
    ], ids=["overflow", "zero-division", "inf-sum", "nan-sum"])
    def test_a_sum_out_of_range_raises_domain_error(self, terms):
        with pytest.raises(DomainError, match="test series"):
            _sum_series(terms, "test series")

    def test_raises_after_max_terms(self, monkeypatch):
        monkeypatch.setattr(context, "MAX_TERMS", 10)
        drawn = []

        def terms():
            for k in count():
                drawn.append(k)
                yield 0.9 ** k

        with pytest.raises(NonConvergence, match="test series"):
            _sum_series(terms(), "test series")
        assert len(drawn) == 10


class TestSumSeriesArray:
    """With the caller's point a numpy array, the sum is an array: each
    element follows the rule of a single sum on its own terms."""

    X = np.array([0.0, -0.3, 0.5, 1.0, -2.0, 5.0])

    @staticmethod
    def _terms(x, drawn=None):
        # the exponential series from the float 1.0, each term formed from the
        # one before: on an array, every element's terms are its float terms
        t = 1.0
        for k in count(1):
            if drawn is not None:
                drawn.append(k)
            yield t
            t = t * x / k

    def test_each_element_is_the_sum_of_its_own_terms(self):
        total = _sum_series(self._terms(self.X), "test series", self.X)
        assert isinstance(total, np.ndarray) and total.shape == self.X.shape
        for x, v in zip(self.X, total):
            ref = _sum_series(self._terms(float(x)), "test series")
            assert abs(v - ref) <= 1e-15 * abs(ref), x

    def test_sums_until_every_element_has_stopped(self):
        drawn = []
        _sum_series(self._terms(self.X, drawn), "test series", self.X)
        alone = []
        for x in self.X:
            alone.append([])
            _sum_series(self._terms(float(x), alone[-1]), "test series")
        counts = [len(d) for d in alone]
        assert min(counts) == 6 < max(counts) == len(drawn)

    def test_a_stopped_element_takes_no_later_term(self):
        # the first element stops at the sixth term; its later terms overflow
        terms = (np.array([1.0 if k == 0 else math.inf if k > 6 else 0.0, 0.5 ** k])
                 for k in count())
        total = _sum_series(terms, "test series", np.zeros(2))
        assert total[0] == 1.0 and total[1] == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("x", [
        np.array([0.5, 1e200]),  # one element's partial sum overflows to inf
        np.array([0.5, math.nan]),  # one element's partial sum is NaN
    ], ids=["inf-sum", "nan-sum"])
    def test_an_element_out_of_range_raises_domain_error(self, x):
        with pytest.raises(DomainError, match="test series"):
            _sum_series(self._terms(x), "test series", x)

    def test_a_term_out_of_range_raises_domain_error(self):
        # forming a term raises as on floats: here a float power overflows
        terms = (np.ones(2) * math.exp(100.0 * k) for k in count())
        with pytest.raises(DomainError, match="test series"):
            _sum_series(terms, "test series", np.ones(2))

    def test_raises_where_one_element_needs_more_than_max_terms(self, monkeypatch):
        monkeypatch.setattr(context, "MAX_TERMS", 10)
        x = np.array([0.0, 5.0])  # 0 stops at the sixth term, 5 needs about 40
        with pytest.raises(NonConvergence, match="test series"):
            _sum_series(self._terms(x), "test series", x)


class TestSeriesReadTheTable:
    def test_qexp_gen_bit_equal(self):
        for q in (0.1, 0.3, 0.5, 0.8, 0.9):
            for alpha in (-0.9, -0.5, 0.25, 1.3, 2.4):
                ctx = QContext(q=q, alpha=alpha)
                for z in (-2.0, -0.7, 0.3, 0.5, 1.2, 3.0):
                    assert qexp_gen(z, ctx) == _qexp_gen_per_term(z, ctx)

    def test_qtrig_bit_equal(self):
        for q in (0.1, 0.3, 0.5, 0.8, 0.9):
            for z in (-2.5, -0.4, 0.4, 0.9, 2.0, 5.0):
                for which in ("cos", "sin"):
                    assert qtrig(z, which, q) == _qtrig_per_term(z, which, q)



@_guarded
def _scaled(n: int, x: Points) -> Points:
    # 10.0 ** n raises OverflowError past n = 308; 1 / x divides by zero at x = 0
    return 10.0 ** n * (1.0 / x)


class TestGuard:
    def test_overflow_message_names_the_call(self):
        with pytest.raises(DomainError) as info:
            hermite_h(3, 1e200, QContext(q=0.5, alpha=0.25))
        assert str(info.value) == ("hermite_h(3, 1e+200, QContext(q=0.5, alpha=0.25)) "
                                   "leaves double range")
        assert isinstance(info.value.__cause__, OverflowError)

    @pytest.mark.parametrize("call, shown", [
        (lambda x: _scaled(400, x), "_scaled(400, 3 points in [1, 3])"),
        (lambda x: _scaled(400, x=x), "_scaled(400, x=3 points in [1, 3])"),
    ], ids=["positional", "keyword"])
    def test_an_array_is_shown_by_its_size_and_range(self, call, shown):
        with pytest.raises(DomainError) as info:
            call(np.array([1.0, 2.0, 3.0]))
        assert str(info.value) == shown + " leaves double range"

    @pytest.mark.parametrize("call", [lambda x: _scaled(0, x), lambda x: _scaled(0, x=x)],
                             ids=["positional", "keyword"])
    def test_a_points_array_runs_without_warnings(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert call(np.array([0.0, 2.0])).tolist() == [math.inf, 0.5]

    def test_a_float_zero_division_raises_domain_error(self):
        with pytest.raises(DomainError, match=r"^_scaled\(0, 0\.0\) leaves double range$"):
            _scaled(0, 0.0)
