"""Unit tests for wave functions, ladder operators, and the matrix algebra."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import (ArgumentError, DimensionError, DomainError, NotDiagonal,
                  QContext, QError, QuadratureFailure, algebra_residual, apply_ladder,
                  build_matrix, eigen_residual, gen_qfact, gen_qint, phi,
                  raised_from_ground, selfadjoint_residual, sym_qbracket_diag,
                  sym_qnumber, wave_function)
from qlab import qhermite, qoscillator
from qlab.qcore import _gen_qint
from qlab.suites import SuiteConfig, suite_oscillator_algebra

CTX = QContext(q=0.5, alpha=0.25)
GRID = [QContext(q=q, alpha=a) for q in (0.3, 0.5, 0.8)
        for a in (-0.5, 0.25, 1.3)]


def _sqrt(v):
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _inner(f, g, ctx):
    # int f g |x|^{2 alpha + 1} over the line: the 40-node sum over _piecewise_quad(8)'s
    # table, at its nodes and their negatives (as in tests/test_realization.py)
    x, _, (_, fine) = qhermite._piecewise_quad(8, ctx)
    return float(fine @ (f(x) * g(x) + f(-x) * g(-x)))


def _ladder_by_parity_split(f, which, x, ctx):
    # apply_ladder as it was before the lattice engine, verbatim: f's even
    # and odd parts as closures, each calling f twice
    fe = lambda x: 0.5 * (f(x) + f(-x))  # noqa: E731
    fo = lambda x: 0.5 * (f(x) - f(-x))  # noqa: E731
    q, alpha = ctx.q, ctx.alpha
    root_up = _sqrt(1.0 + q ** (-2.0 * alpha - 3.0) * x * x)    # with f(x/q)
    root_dn = _sqrt(1.0 + q ** (-2.0 * alpha - 1.0) * x * x)    # with f(qx)

    if which == "a":
        pref = math.sqrt(q) / (math.sqrt(1.0 - q) * x)
        return pref * (root_up * fe(x / q) - fe(x)
                       + root_up * fo(x / q) - q ** (2.0 * alpha + 1.0) * fo(x))
    if which == "a_plus":
        pref = q ** (2.0 * alpha + 1.5) / (math.sqrt(1.0 - q) * x)
        return pref * (root_dn * fe(q * x) - fe(x)
                       + root_dn * fo(q * x) - q ** (-2.0 * alpha - 1.0) * fo(x))
    pref = -(q ** (2.0 * alpha + 1.0)) / ((1.0 - q) * x * x)
    even = (q ** (-2.0 * alpha) * root_up * fe(x / q)
            + root_dn * fe(q * x)
            - (1.0 + q ** (-2.0 * alpha)
               + q ** (-2.0 * alpha - 1.0) * x * x) * fe(x))
    odd = (q * root_up * fo(x / q)
           + q ** (2.0 * alpha + 1.0) * root_dn * fo(q * x)
           - (1.0 + q ** (2.0 * alpha + 2.0)
              + q ** (-2.0 * alpha - 1.0) * x * x) * fo(x))
    return pref * (even + odd)


def _eigen_residual_by_hand(n, x, ctx):
    # eigen_residual as it was before it read H's terms from the ladder table
    q, alpha = ctx.q, ctx.alpha
    f = wave_function(n, ctx)
    root_up = math.sqrt(1.0 + q ** (-2.0 * alpha - 3.0) * x * x)
    root_dn = math.sqrt(1.0 + q ** (-2.0 * alpha - 1.0) * x * x)
    pref = -(q ** (2.0 * alpha + 1.0)) / ((1.0 - q) * x * x)
    if n % 2 == 0:
        t1 = q ** (-2.0 * alpha) * root_up * f(x / q)
        t2 = root_dn * f(q * x)
        t3 = (1.0 + q ** (-2.0 * alpha) + q ** (-2.0 * alpha - 1.0) * x * x) * f(x)
    else:
        t1 = q * root_up * f(x / q)
        t2 = q ** (2.0 * alpha + 1.0) * root_dn * f(q * x)
        t3 = (1.0 + q ** (2.0 * alpha + 2.0) + q ** (-2.0 * alpha - 1.0) * x * x) * f(x)
    lhs = pref * (t1 + t2 - t3)
    rhs = _gen_qint(n, q, alpha) * f(x)
    scale = abs(pref) * (abs(t1) + abs(t2) + abs(t3))
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs) + scale)


def _raised_reference(n, x, q, alpha, digits=60):
    """(n!_{q,a})^{-1/2} (a+)^k phi_0 at x for k = 0..n, in mpmath: phi_0 from
    mp.qp, and a+ written out from its definition, memoized per level."""
    mp = mpmath.MPContext()
    mp.dps = digits
    q, alpha, x = mp.mpf(q), mp.mpf(alpha), mp.mpf(x)
    q2, s = q * q, q ** (-2 * alpha - 1)
    c = mp.sqrt(q ** (-(alpha + 1) * (alpha + mp.mpf(0.5))) * mp.qp(q2, q2)
                * mp.sin(mp.pi * alpha) / (-mp.pi * mp.qp(q ** (-2 * alpha), q2)))
    levels = {}

    def level(k, t):
        memo = levels.setdefault(k, {})
        if t not in memo:
            if k == 0:
                memo[t] = c / mp.sqrt(mp.qp(-s * t * t, q2))
            else:
                fe = lambda u: (level(k - 1, u) + level(k - 1, -u)) / 2  # noqa: E731
                fo = lambda u: (level(k - 1, u) - level(k - 1, -u)) / 2  # noqa: E731
                root = mp.sqrt(1 + s * t * t)
                memo[t] = (q ** (2 * alpha + mp.mpf(1.5)) / (mp.sqrt(1 - q) * t)
                           * (root * fe(q * t) - fe(t) + root * fo(q * t) - s * fo(t)))
        return memo[t]

    level(n, x)
    out, fact = [], mp.mpf(1)
    for k in range(n + 1):
        if k:
            fact *= (1 - q ** (k if k % 2 == 0 else k + 2 * alpha + 1)) / (1 - q)
        out.append(levels[k][x] / mp.sqrt(fact))
    return out


class TestWaveFunctions:
    def test_phi_parity(self):
        for n in range(6):
            for x in (0.4, 1.1):
                assert phi(n, -x, CTX) == pytest.approx(
                    (-1.0) ** n * phi(n, x, CTX), rel=1e-12, abs=1e-14)

    def test_wave_function_handle_matches_phi(self):
        f = wave_function(3, CTX)
        assert f(0.7) == pytest.approx(phi(3, 0.7, CTX))

    def test_norm_constant_cache_is_bounded(self):
        assert qhermite.norm_constant.cache_info().maxsize is not None

    def test_phi_honours_max_terms(self):
        # d_0 at q = 0.97 needs about 586 product factors; each product
        # takes the count its own stopping rule needs, in a default context
        ctx = QContext(q=0.97, alpha=0.25)
        mp = mpmath.MPContext()
        mp.dps = 40
        q, a = mp.mpf(ctx.q), mp.mpf(ctx.alpha)
        want = mp.sqrt(q ** (-(a + 1) * (a + 0.5)) * mp.qp(q * q, q * q)
                       / (mp.gamma(-a) * mp.gamma(a + 1) * mp.qp(q ** (-2 * a), q * q)))
        d = qhermite.norm_constant(0, ctx)
        assert abs(d - want) <= 1e-13 * want
        assert phi(0, 0.5, ctx) == d * math.sqrt(qhermite.weight(0.5, ctx))
        assert wave_function(0, ctx)(0.5) == phi(0, 0.5, ctx) == 0.7631235682174511

    def test_normalization_constant_in_n(self):
        # the continuous norm carries a constant, n-independent factor for
        # alpha != -1/2 (same constant as the continuous orthogonality
        # diagonal); it equals 1 exactly at the classical point
        norms = [_inner(wave_function(n, CTX), wave_function(n, CTX), CTX) for n in range(4)]
        for v in norms[1:]:
            assert v == pytest.approx(norms[0], abs=1e-5)
        c = QContext(q=0.5, alpha=-0.5)
        assert _inner(wave_function(1, c), wave_function(1, c), c) == pytest.approx(1.0, abs=1e-5)

    def test_orthogonality(self):
        # same parity, different degree (opposite parity vanishes trivially)
        f, g = wave_function(1, CTX), wave_function(3, CTX)
        assert abs(_inner(f, g, CTX)) < 1e-6

    def test_array_matches_float(self):
        xs = np.array([-1.7, -0.4, 0.0, 0.9, 6.0])
        for n in range(5):
            for x, v in zip(xs, phi(n, xs, CTX)):
                assert v == pytest.approx(phi(n, float(x), CTX), rel=1e-13, abs=1e-15)


class TestLadder:
    def test_ground_state_annihilated(self):
        for ctx in GRID:
            assert abs(apply_ladder(wave_function(0, ctx), "a", 0.7, ctx)) < 1e-11

    def test_lowering(self):
        for n in (1, 2, 5):
            got = apply_ladder(wave_function(n, CTX), "a", 0.7, CTX)
            want = math.sqrt(gen_qint(n, CTX)) * phi(n - 1, 0.7, CTX)
            assert got == pytest.approx(want, abs=1e-9)

    def test_raising(self):
        for n in (0, 1, 4):
            got = apply_ladder(wave_function(n, CTX), "a_plus", 0.7, CTX)
            want = math.sqrt(gen_qint(n + 1, CTX)) * phi(n + 1, 0.7, CTX)
            assert got == pytest.approx(want, abs=1e-9)

    def test_hamiltonian_eigenrelation(self):
        for n in range(7):
            for k in (-2, 0, 3):
                assert eigen_residual(n, CTX.q ** k, CTX) < 1e-9

    def test_repeated_raising_builds_states(self):
        for n in range(5):
            got = raised_from_ground(n, 0.7, CTX)
            assert got == pytest.approx(phi(n, 0.7, CTX), abs=1e-9)

    def test_repeated_raising_equals_plain_composition(self):
        # memoizing the levels changes no value: compare with the unmemoized
        # composition, bit for bit
        for n in range(5):
            f = wave_function(0, CTX)
            for _ in range(n):
                f = lambda t, p=f: apply_ladder(p, "a_plus", t, CTX)  # noqa: E731
            want = f(0.7) / math.sqrt(gen_qfact(n, CTX))
            assert raised_from_ground(n, 0.7, CTX) == want

    def test_repeated_raising_cost_is_polynomial(self, monkeypatch):
        # phi_0 is evaluated once at each lattice point +-0.7 q^i, i <= n,
        # not 8^n times
        for n in (0, 1, 6, 12):
            points = []
            ground = qoscillator.phi
            monkeypatch.setattr(qoscillator, "phi",
                                lambda k, t, ctx: points.append(t) or ground(k, t, ctx))
            raised_from_ground(n, 0.7, CTX)
            monkeypatch.undo()
            assert len(points) == len(set(points)) == 2 * (n + 1)

    def test_repeated_raising_raises_past_an_underflowed_point(self):
        # at q = 1e-30, 0.3 q^11 rounds to 0: a+ applied 11 times divides by no
        # zero point, and applied 12 times it raises rather than reading level 11
        ctx = QContext(q=1e-30, alpha=0.25)
        assert math.isfinite(raised_from_ground(11, 0.3, ctx))
        with pytest.raises(DomainError):
            raised_from_ground(12, 0.3, ctx)

    def test_repeated_raising_against_60_digits(self):
        # the 60-digit recursion stays within phi_n's own rounding (about
        # 2e-15 relative) up to n = 12, so the float drift is cancellation in
        # the levels: 8.6e-15 at n = 6, 1.4e-10 at n = 8, 0.056 at n = 12
        ref = _raised_reference(12, 0.7, 0.5, 0.25)
        for n, want in enumerate(ref):
            assert abs(want - phi(n, 0.7, CTX)) <= 2e-15
            if n <= 6:
                assert abs(want - raised_from_ground(n, 0.7, CTX)) <= 1e-13
        assert abs(ref[12] - raised_from_ground(12, 0.7, CTX)) > 1e-2

    @given(q=st.floats(0.05, 0.95), alpha=st.floats(-0.95, 3.0), n=st.integers(0, 9),
           x=st.floats(0.05, 3.0), sign=st.sampled_from((1.0, -1.0)),
           which=st.sampled_from(("a", "a_plus", "H")), mixed=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equals_parity_split_version(self, q, alpha, n, x, sign, which, mixed):
        # bit for bit, on a float and on an array, at +x and -x; mixed has
        # no parity, so both halves are nonzero
        ctx = QContext(q=q, alpha=alpha)
        if mixed:
            f = lambda t: np.exp(-t * t) * t ** n + 0.5 * np.sin(t)  # noqa: E731
        else:
            f = lambda t: np.exp(-t * t) * t ** n  # noqa: E731
        got = apply_ladder(f, which, sign * x, ctx)
        want = _ladder_by_parity_split(f, which, sign * x, ctx)
        assert got == want or (math.isnan(got) and math.isnan(want))
        xs = sign * np.array([x, 0.5 * x, 2.0 * x])
        got = apply_ladder(f, which, xs, ctx)
        want = _ladder_by_parity_split(f, which, xs, ctx)
        assert np.array_equal(got, want, equal_nan=True)

    @given(q=st.floats(0.05, 0.9), alpha=st.floats(-0.95, 3.0), n=st.integers(0, 9),
           k=st.integers(-3, 3), sign=st.sampled_from((1.0, -1.0)))
    @settings(max_examples=100, deadline=None)
    def test_eigen_residual_equals_hand_written_h(self, q, alpha, n, k, sign):
        # the same value bit for bit, or the same error
        ctx = QContext(q=q, alpha=alpha)
        x = sign * 0.9 * q ** k
        outcomes = []
        for residual in (eigen_residual, _eigen_residual_by_hand):
            try:
                outcomes.append(repr(residual(n, x, ctx)))
            except QError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]

    def test_calls_f_once_per_lattice_point(self):
        # H reads +-x/q, +-x and +-qx; a reads +-x/q and +-x; a_plus +-x and +-qx
        for which, count in (("H", 6), ("a", 4), ("a_plus", 4)):
            for x in (0.7, np.array([0.7, -1.2])):
                points = []

                def f(t):
                    points.append(float(np.ravel(t)[0]))
                    return phi(2, t, CTX)

                apply_ladder(f, which, x, CTX)
                assert len(points) == len(set(points)) == count

    def test_array_matches_float(self):
        xs = np.array([-1.3, 0.4, 0.7, 2.2])
        f = wave_function(3, CTX)
        for which in ("a", "a_plus", "H"):
            for x, v in zip(xs, apply_ladder(f, which, xs, CTX)):
                assert v == pytest.approx(apply_ladder(f, which, float(x), CTX),
                                          rel=1e-13, abs=1e-15)

    def test_zero_in_array_raises(self):
        with pytest.raises(DomainError):
            apply_ladder(wave_function(1, CTX), "H", np.array([0.5, 0.0]), CTX)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ArgumentError):
            apply_ladder(wave_function(0, CTX), "b_minus", 0.7, CTX)


def _selfadjoint_by_handles(n, m, ctx):
    # <H phi_n, phi_m> - <phi_n, H phi_m> from the public handles: H by the lattice
    # engine on phi, each inner product calling its handles at the nodes and their negatives
    f, g = wave_function(n, ctx), wave_function(m, ctx)
    return abs(_inner(lambda x: apply_ladder(f, "H", x, ctx), g, ctx)
               - _inner(f, lambda x: apply_ladder(g, "H", x, ctx), ctx))


#: the default grid and alpha = -0.9, where |x|^{2 alpha + 1} is singular at 0
SELFADJOINT_GRID = [QContext(q=q, alpha=a) for q in (0.3, 0.5, 0.8)
                    for a in (-0.5, 0.25, 1.3, -0.9)]


class TestSelfAdjoint:
    @pytest.mark.parametrize("ctx", GRID, ids=str)
    def test_matches_the_handle_form(self, ctx):
        # both are the roundoff of an exact 0: they agree to far below the 1e-7 tolerance
        assert abs(selfadjoint_residual(1, 3, ctx) - _selfadjoint_by_handles(1, 3, ctx)) <= 1e-13

    @pytest.mark.parametrize("ctx", SELFADJOINT_GRID, ids=str)
    def test_odd_pairs_at_roundoff(self, ctx):
        for n, m in ((1, 3), (3, 5), (1, 7), (9, 11)):
            assert selfadjoint_residual(n, m, ctx) <= 1e-13, (n, m)

    @pytest.mark.parametrize("ctx", SELFADJOINT_GRID, ids=str)
    def test_opposite_parity_is_zero(self, ctx):
        for n, m in ((0, 1), (1, 2), (3, 8)):
            assert selfadjoint_residual(n, m, ctx) == 0.0

    @pytest.mark.parametrize("ctx", SELFADJOINT_GRID, ids=str)
    def test_even_pairs_raise_or_stay_small(self, ctx):
        # H's 1/x^2 prefactor amplifies the roundoff of its cancelling even bracket,
        # which |x|^{2 alpha + 1} does not integrate at 0 for alpha <= -1/2: there an
        # even pair raises or stays at 1e-8, and nowhere does a value past 1e-7 return
        bound = 1e-8 if ctx.alpha <= -0.5 else 1e-13
        for n, m in ((0, 2), (2, 4), (0, 8), (4, 6), (10, 12)):
            try:
                assert selfadjoint_residual(n, m, ctx) <= bound, (n, m)
            except QuadratureFailure:
                assert ctx.alpha <= -0.5, (n, m)

    def test_log_weight_is_formed_on_the_table_only(self, monkeypatch):
        # one log-weight pass over the quadrature table's nodes t, none at t / q or q t
        # (those are shifted by the functional equation), and none once the table is cached;
        # the cutoff scan's lattice reads log w at one point per scan
        ctx, real, passes = QContext(q=0.5, alpha=0.25), qhermite._log_weight, []

        def spy(x, ctx):
            if len(x) > 1:
                passes.append(x.copy())
            return real(x, ctx)

        for module in (qhermite, qoscillator):
            monkeypatch.setattr(module, "_log_weight", spy)
        qhermite._piecewise_quad.cache_clear()
        qhermite._auto_cutoff.cache_clear()
        selfadjoint_residual(2, 4, ctx)
        assert len(passes) == 1
        assert np.array_equal(passes[0], qhermite._piecewise_quad(8, ctx)[0])
        passes.clear()
        selfadjoint_residual(1, 7, ctx)
        assert not passes


class TestMatrices:
    def test_shapes_and_structure(self):
        a = build_matrix("a", 8, CTX)
        ap = build_matrix("a_plus", 8, CTX)
        assert a.shape == (8, 8)
        assert np.allclose(a, ap.T)
        # lowering operator is strictly upper triangular (one superdiagonal)
        assert np.allclose(np.tril(a), 0.0)

    def test_number_and_h_diagonals(self):
        n_mat = build_matrix("N", 6, CTX)
        h_mat = build_matrix("H", 6, CTX)
        assert np.allclose(np.diag(n_mat), np.arange(6))
        want = [gen_qint(k, CTX) for k in range(6)]
        assert np.allclose(np.diag(h_mat), want)

    def test_a_plus_a_diagonal_spectrum(self):
        a = build_matrix("a", 10, CTX)
        ap = build_matrix("a_plus", 10, CTX)
        prod = ap @ a
        want = [gen_qint(k, CTX) for k in range(10)]
        assert np.allclose(np.diag(prod), want)
        assert np.allclose(prod - np.diag(np.diag(prod)), 0.0)

    def test_parity_matrix_squares_to_identity(self):
        k_mat = build_matrix("parity_K", 7, CTX)
        assert np.allclose(k_mat @ k_mat, np.eye(7))

    def test_dimension_validation(self):
        with pytest.raises(DimensionError):
            build_matrix("a", 1, CTX)

    def test_build_matrix_returns_a_copy_of_the_read_only_build(self):
        # the cached build is shared by every reader; build_matrix's caller owns its copy
        mine = build_matrix("a", 6, CTX)
        mine[0, 1] = 7.0
        shared = qoscillator._operator_matrices(6, CTX)["a"]
        assert shared[0, 1] == build_matrix("a", 6, CTX)[0, 1] == math.sqrt(gen_qint(1, CTX))
        with pytest.raises(ValueError):
            shared[0, 1] = 7.0

    def test_sym_qbracket_diag(self):
        h_mat = build_matrix("N", 5, CTX)
        br = sym_qbracket_diag(h_mat, math.sqrt(CTX.q))
        want = [sym_qnumber(float(k), math.sqrt(CTX.q)) for k in range(5)]
        assert np.allclose(np.diag(br), want)

    def test_sym_qbracket_diag_refuses_a_matrix_off_its_diagonal(self):
        with pytest.raises(NotDiagonal, match="up to 0.001"):
            sym_qbracket_diag(np.array([[1.0, 1e-3], [0.0, 2.0]]), math.sqrt(CTX.q))


class TestAlgebraRelations:
    def test_the_suite_builds_the_matrices_once_per_context(self):
        # the 11 relations of a (dim, ctx) read one cached build
        qoscillator._operator_matrices.cache_clear()
        suite_oscillator_algebra(SuiteConfig(suite="oscillator_algebra"))
        info = qoscillator._operator_matrices.cache_info()
        assert (info.misses, info.hits) == (9, 9 * 10)

    @pytest.mark.parametrize("name", [
        "N_a", "N_a_plus", "K0_K_plus", "K0_K_minus", "Kminus_Kplus",
        "casimir_even", "casimir_odd", "deformed_commut_plus",
        "deformed_commut_minus", "number_recovery", "H_factorization"])
    def test_all_relations_small(self, name):
        # absolute residuals scale with the largest matrix entry, which
        # grows like q^{-dim} as q decreases; roundoff at q=0.3 sits a
        # couple of decades higher than at q=0.5
        for ctx in GRID:
            r = algebra_residual(name, 12, ctx)
            tol = 1e-8 if ctx.q < 0.4 else 1e-11
            assert r < tol, (name, ctx.q, ctx.alpha, r)

    def test_unknown_relation_rejected(self):
        with pytest.raises(ArgumentError):
            algebra_residual("bogus", 12, CTX)

    def test_non_finite_residual_raises(self):
        # at q = 0.05, dim 300 the Casimir's entries overflow; the lowering
        # matrix built with it stays finite
        ctx = QContext(q=0.05, alpha=0.25)
        assert np.all(np.isfinite(build_matrix("a", 300, ctx)))
        with pytest.raises(ArgumentError):
            build_matrix("casimir", 300, ctx)
        with pytest.raises(DomainError):
            algebra_residual("casimir_even", 300, ctx)
        # 1 - (1 - q) [[n]] rounds to <= 0 under the number recovery's log
        with pytest.raises(DomainError):
            algebra_residual("number_recovery", 64, QContext(q=0.5, alpha=0.25))
