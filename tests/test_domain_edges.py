"""The documented domain near its edges: a finite value or a QError.

Across 0 < q < 1 and alpha > -1 every public function of the polynomial
family and every series it rests on returns a finite value or raises a
QError: never NaN, +-inf or a raw Python exception.  The sweep reaches
q = 0.995, alpha = -0.99, 20 and 20.3, degree 170, x = 50 and, for the series,
arguments up to 1e200; the operator-algebra residuals reach dim 64 and the
orthogonality entries degree 20.
"""

import inspect
import itertools
import math

import numpy as np
import pytest

import qlab
from qlab import (DomainError, QContext, QError, algebra_residual, bessel_expansion_residual,
                  continuous_orthogonality, discrete_orthogonality_residual,
                  discrete_orthogonality_rhs, eigen_residual, gen_qfact, gen_qpoch, hermite_h,
                  hermite_h_scaled, hermite_via_laguerre, moment_constant, norm_constant, phi,
                  poisson_kernel_residual, qbessel, qexp_big, qexp_gen, qexp_small, qlaguerre,
                  qnumber, qpoch_inf, qtrig, relation_residual, sym_qnumber, weight)
from qlab.qcore import Points
from qlab.qhermite import RELATION_KINDS
from qlab.qoscillator import RELATION_NAMES

QS = (0.05, 0.5, 0.9, 0.97, 0.99, 0.995)
# 20.3 as well as 20: a nonnegative integer alpha is a pole of d_n, which raises
# PoleError before q^{-(alpha + 1)(alpha + 1/2)} in it can overflow
ALPHAS = (-0.99, -0.5, 0.25, 5.0, 20.0, 20.3)
NS = (0, 5, 20, 60, 170)
XS = (0.0, 0.3, 2.0, 50.0)
ZS = (0.0, 0.3, 2.0, 50.0, 1e6, 1e200)
DIMS = (5, 12, 64)
PAIRS = ((0, 0), (2, 5), (5, 5), (20, 20))
#: the exponents j of the lattice points q^j the array sweeps evaluate at
LATTICE = np.arange(-40.0, 121.0)

#: name -> (function of the swept arguments and the context, the swept
#: arguments in order: degree n, point x, series argument z, matrix dim d,
#: degree pair p)
SWEEP = {
    "hermite_h": (hermite_h, "nx"),
    "hermite_h_scaled": (hermite_h_scaled, "nx"),
    "hermite_via_laguerre": (hermite_via_laguerre, "nx"),
    "weight": (weight, "x"),
    "phi": (phi, "nx"),
    "eigen_residual": (eigen_residual, "nx"),
    "norm_constant": (norm_constant, "n"),
    "moment_constant": (moment_constant, ""),
    "gen_qpoch": (gen_qpoch, "n"),
    "gen_qfact": (gen_qfact, "n"),
    "discrete_orthogonality_rhs": (discrete_orthogonality_rhs, "n"),
    "discrete_orthogonality_residual": (
        lambda p, ctx: discrete_orthogonality_residual(*p, ctx), "p"),
    "continuous_orthogonality": (lambda p, ctx: continuous_orthogonality(*p, ctx), "p"),
    "qexp_gen": (qexp_gen, "z"),
    # q^x and base^-x overflow at large negative exponents
    "qnumber": (lambda z, ctx: qnumber(-z, ctx), "z"),
    "sym_qnumber": (lambda z, ctx: sym_qnumber(z, ctx.q), "z"),
    "qtrig_cos": (lambda z, ctx: qtrig(z, "cos", ctx.q), "z"),
    "qtrig_sin": (lambda z, ctx: qtrig(z, "sin", ctx.q), "z"),
    "qlaguerre": (lambda n, z, ctx: qlaguerre(n, ctx.alpha, z, ctx), "nz"),
    **{f"qbessel_{kind}": (lambda z, ctx, kind=kind: qbessel(z, ctx.alpha, kind, ctx), "z")
       for kind in ("second_jackson", "hahn_exton", "modified")},
    "qexp_big": (lambda z, ctx: qexp_big(z, ctx.q).value, "z"),
    "qpoch_inf": (lambda z, ctx: qpoch_inf(z, ctx).value, "z"),
    **{f"algebra_{rel}": (lambda d, ctx, rel=rel: algebra_residual(rel, d, ctx), "d")
       for rel in RELATION_NAMES},
    # a float x; the array case is test_relation_residual_lattice_array_finite_or_qerror
    **{f"relation_{kind}": (lambda n, x, ctx, kind=kind: relation_residual(kind, n, x, ctx), "nx")
       for kind in RELATION_KINDS},
}


@pytest.mark.parametrize("name", SWEEP)
def test_finite_value_or_qerror(name):
    fn, arg_names = SWEEP[name]
    axes = [{"n": NS, "x": XS, "z": ZS, "d": DIMS, "p": PAIRS}[a] for a in arg_names]
    broken = []
    for q, alpha in itertools.product(QS, ALPHAS):
        ctx = QContext(q=q, alpha=alpha)
        for args in itertools.product(*axes):
            try:
                value = fn(*args, ctx)
            except QError:
                continue
            except Exception as exc:  # a raw exception breaks the contract
                value = type(exc).__name__
            if not (isinstance(value, float) and math.isfinite(value)):
                broken.append((q, alpha, *args, value))
    assert not broken


def _public(fn):
    # an entry's function, or the qlab function its lambda calls
    return getattr(qlab, fn.__code__.co_names[0]) if fn.__name__ == "<lambda>" else fn


def _takes_points(fn) -> bool:
    return any(p.annotation == Points
               for p in inspect.signature(fn, eval_str=True).parameters.values())


#: the entries whose function takes a numpy array, by its Points annotation;
#: relation_residual's have their own test, at the degrees its Rodrigues side affords
ARRAY_SWEEP = [name for name, (fn, _) in SWEEP.items()
               if _takes_points(_public(fn)) and _public(fn) is not relation_residual]


@pytest.mark.parametrize("name", ARRAY_SWEEP)
def test_lattice_array_finite_or_qerror(name):
    # the Jackson lattice points +-q^j of each context as one array: a numpy
    # warning (an error under the suite's warning filter) or a raw exception
    # on the array path breaks the contract as it does on floats
    fn, arg_names = SWEEP[name]
    broken = []
    for q, alpha in itertools.product(QS, ALPHAS):
        ctx = QContext(q=q, alpha=alpha)
        x = q ** LATTICE
        for n in NS if "n" in arg_names else [None]:
            try:
                value = fn(*([] if n is None else [n]), np.concatenate((-x, x)), ctx)
            except QError:
                continue
            except Exception as exc:
                value = type(exc).__name__
            if not (isinstance(value, np.ndarray) and np.isfinite(value).all()):
                broken.append((q, alpha, n, value if isinstance(value, str) else "non-finite"))
    assert not broken


@pytest.mark.parametrize("kind", RELATION_KINDS)
def test_relation_residual_lattice_array_finite_or_qerror(kind):
    # as above, for the residuals of the structural relations at degrees 0 and 5
    broken = []
    for q, alpha in itertools.product(QS, ALPHAS):
        ctx = QContext(q=q, alpha=alpha)
        x = q ** LATTICE
        for n in NS[:2]:
            try:
                value = relation_residual(kind, n, np.concatenate((-x, x)), ctx)
            except QError:
                continue
            except Exception as exc:
                value = type(exc).__name__
            if not (isinstance(value, np.ndarray) and np.isfinite(value).all()):
                broken.append((q, alpha, n, value if isinstance(value, str) else "non-finite"))
    assert not broken


@pytest.mark.parametrize("fn", [weight, lambda x, ctx: phi(2, x, ctx)], ids=["weight", "phi_2"])
def test_array_square_overflow_raises_domain_error(fn):
    # at q = 1e-4 the lattice points q^j reach x = 1e160, whose x^2 overflows:
    # numpy's overflow warning (an error under the suite's warning filter)
    # leaked from the weight where its product rejects the argument
    ctx = QContext(q=1e-4, alpha=0.25)
    with pytest.raises(DomainError):
        fn(ctx.q ** LATTICE, ctx)


@pytest.mark.parametrize("fn, q, alpha, args", [
    # the true value is about 5.4e573 (40-digit mpmath)
    (moment_constant, 0.05, 20.0, ()),
    # (q;q)_{2k,alpha} underflows to 0 with (1-q)^{2k}: it raised ZeroDivisionError
    (hermite_via_laguerre, 0.99, -0.99, (170, 0.0)),
    # (1-q)^170 underflows where 170!_{q,alpha} overflows: it returned NaN
    (gen_qpoch, 0.995, 20.0, (170,)),
    # 170!_{q,alpha} overflows: it returned inf
    (gen_qfact, 0.995, 20.0, (170,)),
    # the explicit sum's terms overflow with both signs: it returned NaN
    (hermite_h, 0.97, -0.99, (170, 50.0)),
    # the diagonal is about 3.3e-574 (a 40-digit Jackson sum): it returned 0.0,
    # and the orthogonality residual divided by it
    (discrete_orthogonality_rhs, 0.05, 20.0, (0,)),
    (discrete_orthogonality_residual, 0.05, 20.0, (2, 5)),
    # the closed-form diagonal's q^{-n^2} overflows; the per-point sum read
    # lattice points where h_27 overflows, though most of the window is in range
    (discrete_orthogonality_residual, 0.05, -0.5, (27, 27)),
    # the closed-form diagonal underflows; the per-point sum raised OverflowError
    # where |x|^{2 alpha + 1} left double range far out on the lattice
    (discrete_orthogonality_residual, 3e-3, 20.0, (0, 0)),
    # (1-q)^170 underflows the product of the factors, about 3e-62 and 1e-60
    # (q = 0.99, alpha = -0.5 and 0.25): it returned 0.0
    (gen_qpoch, 0.99, -0.5, (170,)),
    (gen_qpoch, 0.99, 0.25, (170,)),
    # sqrt((q;q)_{170,alpha}) read as 0 where d_170 is about 3e-31: it returned 0.0
    (norm_constant, 0.99, 0.25, (170,)),
    # the Rodrigues side's prefactor times the iterated difference of the weight
    # overflows, about 1.6e227 times -1.4e119, where the other side is 1.6e246:
    # a float returned NaN, where an array raised
    (lambda n, x, ctx: relation_residual("rodrigues", n, x, ctx), 0.05, 0.25, (20, 0.3)),
    # a subnormal x: (x y)^(-alpha) divided by zero and x^(-alpha - 1) overflowed,
    # both raw Python exceptions
    (lambda x, y, ctx: poisson_kernel_residual(x, y, "general", ctx), 0.9, 0.25, (5e-324, 0.3)),
    (bessel_expansion_residual, 0.9, 0.25, (2e-323,)),
])
def test_edge_breaks_raise_domain_error(fn, q, alpha, args):
    with pytest.raises(DomainError):
        fn(*args, QContext(q=q, alpha=alpha))


def test_lattice_entry_where_the_window_end_rounds_to_zero():
    # at q = 1e-4 the window's end q^120 = 1e-480 rounds to 0, where the
    # per-point sum divided by zero in |x|^{2 alpha + 1} at alpha = -0.99 and
    # raised DomainError; the rows take the lattice measure in logs, and the
    # diagonal matches the Jackson sum in 50 digits (mpmath, 2520 lattice
    # points), 11.886816568382197034, 1.1e-15 from the closed form
    ctx = QContext(q=1e-4, alpha=-0.99)
    assert abs(discrete_orthogonality_rhs(0, ctx) / 11.886816568382197034 - 1.0) <= 1e-14
    assert discrete_orthogonality_residual(0, 0, ctx) <= 1e-14


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name, fn", [
    ("qpoch_inf", qpoch_inf),
    ("qexp_small", lambda z, ctx: qexp_small(z, ctx.q)),
    ("qexp_big", lambda z, ctx: qexp_big(z, ctx.q)),
    ("weight", weight),
    ("weight_array", lambda z, ctx: weight(np.array([0.3, z]), ctx)),
    ("qnumber", qnumber),
    ("sym_qnumber", lambda z, ctx: sym_qnumber(z, ctx.q)),
])
def test_nonfinite_product_argument_raises_domain_error(name, fn, z):
    # the product (a; q)_inf behind the first five functions takes only finite
    # a: an inf or NaN argument is outside the domain, not a product too long;
    # q^x in the q-numbers would turn it into +-inf or NaN without an error
    with pytest.raises(DomainError):
        fn(z, QContext(q=0.5, alpha=0.25))
