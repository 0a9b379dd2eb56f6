"""Unit tests for q-exponential, q-trigonometric, and q-Bessel functions."""

import math
import random

import pytest

from qlab import (ArgumentError, DomainError, PoleError, QContext, QError, qbessel, qexp_big,
                  qexp_gen, qexp_small, qtrig)
from qlab.qfunctions import bessel_delta_residual


class TestQExponentials:
    def test_big_small_are_reciprocal(self):
        # e_q(z) E_q(-z) = 1
        q, z = 0.6, 0.45
        prod = qexp_small(z, q).value * qexp_big(-z, q).value
        assert prod == pytest.approx(1.0, rel=1e-13)

    def test_big_matches_series(self):
        q, z = 0.5, 0.8
        total, term = 0.0, 1.0
        for k in range(200):
            total += term
            term *= q ** k * z / (1.0 - q ** (k + 1))
        assert qexp_big(z, q).value == pytest.approx(total, rel=1e-13)

    def test_small_pole(self):
        # e_q(z) = 1/(z; q)_inf blows up where a factor vanishes
        with pytest.raises(PoleError):
            qexp_small(1.0, 0.5)

    def test_small_pole_test_agrees_with_the_scan(self):
        # one test at the nearest power decides as the walk over every power did
        def pole_by_scan(z, base):
            zq = z
            while zq >= 1e-12:
                if abs(1.0 - zq) < 1e-12:
                    return True
                zq *= base
            return False

        rng = random.Random(0)
        cases = [(base ** -k * (1.0 + rel), base) for base in (0.2, 0.5, 0.9, 0.99)
                 for k in (0, 1, 7, 40, 299) for rel in (0.0, 1e-13, -2e-13, 5e-12)]
        cases += [(rng.uniform(0.0, 50.0), rng.choice((0.3, 0.7, 0.95))) for _ in range(200)]
        poles = 0
        for z, base in cases:
            if pole_by_scan(z, base):
                poles += 1
                with pytest.raises(PoleError):
                    qexp_small(z, base)
            else:
                try:
                    qexp_small(z, base)
                except PoleError:
                    pytest.fail(f"no pole at z={z}, base {base}")
                except QError:  # a product beyond the factor ceiling
                    pass
        assert poles == 60  # every constructed pole but those 5e-12 away

    def test_gen_collapses_at_classical_alpha(self):
        c = QContext(q=0.5, alpha=-0.5)
        for z in (0.3, -0.9, 1.4):
            assert qexp_gen(z, c) == pytest.approx(
                qexp_big(z, 0.5).value, rel=1e-13)

    def test_gen_parity_structure(self):
        # even part is alpha-independent only at alpha = -1/2; for general
        # alpha the function still has value 1 at the origin
        c = QContext(q=0.5, alpha=0.7)
        assert qexp_gen(0.0, c) == pytest.approx(1.0)


class TestQTrig:
    def test_values_at_zero(self):
        assert qtrig(0.0, "cos", 0.5) == pytest.approx(1.0)
        assert qtrig(0.0, "sin", 0.5) == pytest.approx(0.0)

    def test_sin_is_odd_cos_is_even(self):
        q, z = 0.7, 0.8
        assert qtrig(-z, "sin", q) == pytest.approx(-qtrig(z, "sin", q))
        assert qtrig(-z, "cos", q) == pytest.approx(qtrig(z, "cos", q))

    def test_unknown_branch(self):
        with pytest.raises(ArgumentError):
            qtrig(0.3, "tan", 0.5)


class TestQBessel:
    def test_kinds_rejects_unknown(self):
        with pytest.raises(ArgumentError):
            qbessel(0.5, 1.0, "fourth", QContext(q=0.5))

    def test_second_kind_series_leading_term(self):
        # J^{(2)}_nu(x) ~ (x/2)^nu / (q; q)_nu-ish prefactor as x -> 0;
        # check the ratio of two tiny arguments scales like x^nu
        ctx = QContext(q=0.5, alpha=0.25)
        nu = 1.25
        a = qbessel(1e-4, nu, "second_jackson", ctx)
        b = qbessel(2e-4, nu, "second_jackson", ctx)
        assert b / a == pytest.approx(2.0 ** nu, rel=1e-4)

    def test_half_integer_reduces_to_trig(self):
        # J^{(2)}_{-1/2}(2x; q^2) is proportional to Cos_q(x)
        q = 0.5
        ctx = QContext(q=q, alpha=-0.5)
        from qlab import qpoch_inf
        pref = (qpoch_inf(q, QContext(q=q * q)).value
                / qpoch_inf(q * q, QContext(q=q * q)).value)
        for x in (0.3, 0.7):
            lhs = qbessel(2.0 * x, -0.5, "second_jackson", ctx)
            rhs = pref / math.sqrt(x) * qtrig(x, "cos", q)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_modified_positive_near_origin(self):
        # the alternating series is dominated by its positive leading term
        # for small arguments (unlike the classical modified Bessel, the
        # q-analogue does change sign further out)
        ctx = QContext(q=0.5, alpha=0.25)
        for x in (0.2, 0.5, 1.0):
            assert qbessel(x, 1.25, "modified", ctx) > 0.0

    def test_hahn_exton_finite(self):
        ctx = QContext(q=0.5, alpha=0.25)
        v = qbessel(0.8, 0.75, "hahn_exton", ctx)
        assert math.isfinite(v)

    @pytest.mark.parametrize("args", [(1, 0.7, 2e-323, "even_order"),
                                      (0, 0.8, 2e-323, "odd_order")], ids=lambda a: a[3])
    def test_difference_residual_maps_a_division_by_zero(self, args):
        # at a subnormal x, (1 - q) x rounds to 0 in the difference quotient: the
        # residual's own guard names it, where a raw ZeroDivisionError escaped
        with pytest.raises(DomainError, match="bessel_delta_residual"):
            bessel_delta_residual(*args, QContext(q=0.9, alpha=0.25))
