"""Unit tests for q-numbers, q-shifted factorials, derivatives, integrals."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import (ConfigError, DomainError, ParityParts, QContext, TruncatedValue,
                  gen_qfact, gen_qint, gen_qpoch, jackson_integral,
                  parity_split, qderiv, qderiv_pow, qnumber, qpoch, qpoch_inf,
                  qexp_gen, qtrig, sym_qnumber, theta)
from qlab.context import NonConvergence
from qlab.qcore import _gen_qpoch, _qpoch, _qpoch_inf, _qpoch_inf_cached
from qlab.qhermite import OrthoCheckParams, _gauss_jacobi, orthogonality
from qlab.qoscillator import _memoized_power

CTX = QContext(q=0.5, alpha=0.25)


class TestContext:
    def test_rejects_bad_q(self):
        with pytest.raises(ConfigError):
            QContext(q=1.2)
        with pytest.raises(ConfigError):
            QContext(q=0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigError):
            QContext(q=0.5, alpha=-1.0)

    def test_with_alpha(self):
        assert CTX.with_alpha(-0.5).alpha == -0.5
        assert CTX.with_alpha(-0.5).q == CTX.q


class TestPochhammer:
    def test_small_cases(self):
        q = 0.5
        assert qpoch(0.3, 0, CTX) == 1.0
        assert qpoch(0.3, 1, CTX) == pytest.approx(0.7)
        assert qpoch(0.3, 2, CTX) == pytest.approx(0.7 * (1 - 0.3 * q))

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


def _outcome(a, q, tol, max_terms, f):
    """(value bytes, tail bytes, terms_used) of f, or the type it raises."""
    try:
        got = f(a, q, tol, max_terms)
    except NonConvergence as exc:
        return type(exc)
    return (np.asarray(got.value, dtype=float).tobytes(),
            np.asarray(got.tail_bound, dtype=float).tobytes(), got.terms_used)


PRODUCT_ARGS = dict(a=st.floats(-1e6, 0.99), q=st.floats(0.01, 0.99),
                    tol=st.sampled_from([1e-14, 1e-8, 0.1, 2.0]),
                    max_terms=st.sampled_from([50, 400]))


class TestProductCache:
    @given(**PRODUCT_ARGS)
    @settings(max_examples=300, deadline=None)
    def test_scalar_bitwise_equal_to_reference(self, a, q, tol, max_terms):
        want = _outcome(a, q, tol, max_terms, _qpoch_inf_reference)
        # a miss and then a hit of the cache
        assert _outcome(a, q, tol, max_terms, _qpoch_inf) == want
        assert _outcome(a, q, tol, max_terms, _qpoch_inf) == want

    @given(values=st.lists(PRODUCT_ARGS["a"], min_size=1, max_size=6),
           **{k: v for k, v in PRODUCT_ARGS.items() if k != "a"})
    @settings(max_examples=150, deadline=None)
    def test_array_bitwise_equal_to_reference(self, values, q, tol, max_terms):
        a = np.array(values)
        with np.errstate(over="ignore"):
            assert (_outcome(a, q, tol, max_terms, _qpoch_inf)
                    == _outcome(a, q, tol, max_terms, _qpoch_inf_reference))

    def test_int_float_and_numpy_keys_agree(self):
        _qpoch_inf_cached.cache_clear()
        got = [_qpoch_inf(a, 0.5, 1e-14, 400) for a in (-3, -3.0, np.float64(-3.0))]
        assert got[0] == got[1] == got[2]
        assert type(got[2].value) is float
        assert _qpoch_inf_cached.cache_info().misses == 1

    def test_cache_is_bounded(self):
        _qpoch_inf_cached.cache_clear()
        for k in range(300):
            _qpoch_inf(-k / 300.0, 0.5, 1e-14, 400)
        info = _qpoch_inf_cached.cache_info()
        assert info.maxsize == 256
        assert info.currsize == 256

    def test_nonconvergence_is_not_cached(self):
        _qpoch_inf(-1.0, 0.5, 1e-14, 400)
        size = _qpoch_inf_cached.cache_info().currsize
        for _ in range(3):
            with pytest.raises(NonConvergence):
                _qpoch_inf(-1.0, 0.99, 1e-14, 400)
            assert _qpoch_inf_cached.cache_info().currsize == size

    @pytest.mark.parametrize("a, q, tol", [(-1.0, 0.99, 1e-14), (0.5, 0.99, 1e-14),
                                           (-1e6, 0.98, 1e-8), (-30.0, 0.995, 1e-12),
                                           (0.9, 0.9, 1e-300)])
    def test_nonconvergence_names_needed_factors(self, a, q, tol):
        with pytest.raises(NonConvergence, match="needs about") as exc:
            _qpoch_inf(a, q, tol, 400)
        named = int(re.search(r"needs about (\d+) factors", str(exc.value)).group(1))
        assert abs(named - _qpoch_inf(a, q, tol, 100_000).terms_used) <= 1

    def test_discrete_orthogonality_reuses_lattice_products(self):
        # the 45 entries n <= m <= 8 evaluate the weight at the same lattice
        # points +-q^k and the same constants; about 2350 products, of which
        # 46 are distinct
        ctx = QContext(q=0.5, alpha=0.25)
        _qpoch_inf_cached.cache_clear()
        for n in range(9):
            for m in range(n, 9):
                orthogonality(OrthoCheckParams(n, m, "discrete_jackson"), ctx)
        info = _qpoch_inf_cached.cache_info()
        assert info.hits + info.misses > 2000
        assert info.misses <= 60

    @pytest.mark.parametrize("k, beta", [(20, -0.6), (40, 0.5), (40, 3.6)])
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
        got = jackson_integral(f, "halfline", CTX)
        assert got.value == pytest.approx(1.0 / (1.0 + CTX.q), rel=1e-13)

    def test_line_even_function_doubles(self):
        f = lambda t: t * t * math.exp(-t * t)  # noqa: E731
        even = jackson_integral(f, "line", CTX)
        half = jackson_integral(f, "halfline", CTX)
        assert even.value == pytest.approx(2.0 * half.value, rel=1e-12)

    def test_line_odd_function_vanishes(self):
        f = lambda t: t ** 3 * math.exp(-t * t)  # noqa: E731
        got = jackson_integral(f, "line", CTX)
        assert abs(got.value) < 1e-12

    def test_slow_decay_sums_the_tail_beyond_the_window(self):
        # the terms (q^0.02)^n at y = q^n are still above series_tol at
        # lattice_hi; the geometric tail beyond it is summed, not dropped
        q = 0.3
        f = lambda t: t ** -0.98 if t <= 1.0 else 0.0  # noqa: E731
        got = jackson_integral(f, "halfline", QContext(q=q))
        mp = mpmath.MPContext()
        mp.dps = 30
        exact = (1 - mp.mpf(q)) / (1 - mp.mpf(q) ** mp.mpf("0.02"))  # (1-q)/(1-q^0.02)
        assert abs(got.value - exact) <= got.tail_bound < 1e-12 * exact

    def test_divergent_integrand_raises(self):
        from qlab import NonConvergence
        with pytest.raises(NonConvergence):
            jackson_integral(lambda t: t, "halfline", CTX)


class TestParitySplit:
    def test_split_recombines(self):
        f = lambda t: t ** 3 + 2.0 * t * t - 1.0  # noqa: E731
        parts = parity_split(f)
        assert isinstance(parts, ParityParts)
        for x in (0.4, -1.1):
            assert parts.even(x) + parts.odd(x) == pytest.approx(f(x))
            assert parts.even(-x) == pytest.approx(parts.even(x))
            assert parts.odd(-x) == pytest.approx(-parts.odd(x))


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


def _qexp_gen_per_term(z, ctx):
    # the per-term formula qexp_gen used before it read the factorial table
    q, alpha = ctx.q, ctx.alpha
    total = 0.0
    for k in range(ctx.max_terms):
        t = q ** (k * (k - 1) / 2.0) * z ** k / _gen_qpoch(k, q, alpha)
        total += t
        if abs(t) < ctx.series_tol * max(1.0, abs(total)) and k > 2:
            return total
    raise AssertionError("reference series did not converge")


def _qtrig_per_term(z, which, q):
    # the per-term formula qtrig used before it read the factorial table
    total = 0.0
    for n in range(300):
        if which == "cos":
            t = (-1.0) ** n * q ** (n * (2 * n - 1)) * z ** (2 * n) / _qpoch(q, 2 * n, q)
        else:
            t = (-1.0) ** n * q ** (n * (2 * n + 1)) * z ** (2 * n + 1) / _qpoch(q, 2 * n + 1, q)
        total += t
        if abs(t) < 1e-16 * max(1.0, abs(total)) and n > 2:
            return total
    raise AssertionError("reference series did not converge")


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
