"""Deformed oscillator realization built on the generalized Hermite family.

Wave functions phi_n = d_n sqrt(w) h_n, the block-diagonal Schrodinger-type
difference operator H and ladder operators a / a+ in functional form, their
dense matrix realizations together with the number operator, the rescaled
ladder pair b / b+ and the su_{q^{1/2}}(1,1) generators with Casimir, and the
residuals of every commutation/factorization relation they satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .context import (ArgumentError, DimensionError, DomainError, NotDiagonal, QContext,
                      QuadratureFailure)
from .qcore import FunctionHandle, _gen_qint, _lattice_power, gen_qfact, sym_qnumber
from .qhermite import (_auto_cutoff, _damped, _piecewise_quad, _sqrt, hermite_h,
                       norm_constant, weight)

OPERATOR_NAMES = ("a", "a_plus", "N", "parity_K", "H", "b", "b_plus",
                  "K0", "K_plus", "K_minus", "casimir")

#: default excluded top indices per relation: raising operators escape a
#: truncated basis, so finite sections are exact only on a leading block
_SAFE_BLOCKS = {
    "N_a": 1,
    "N_a_plus": 1,
    "K0_K_plus": 2,
    "K0_K_minus": 2,
    "Kminus_Kplus": 2,
    "casimir_even": 2,
    "casimir_odd": 2,
    "deformed_commut_plus": 1,
    "deformed_commut_minus": 1,
    "number_recovery": 1,
    "H_factorization": 1,
}

RELATION_NAMES = tuple(_SAFE_BLOCKS)


@dataclass(frozen=True)
class AlgebraRelation:
    """One operator relation plus the truncation-edge block it excludes."""

    relation: str
    safe_block: int = -1

    def __post_init__(self):
        if self.relation not in _SAFE_BLOCKS:
            raise ArgumentError(f"unknown algebra relation: {self.relation!r}")
        if self.safe_block < 0:
            object.__setattr__(self, "safe_block", _SAFE_BLOCKS[self.relation])


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real matrix realization of one operator on the phi basis."""

    dim: int
    entries: np.ndarray
    label: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise ArgumentError(f"non-finite entries in operator {self.label!r}")


def phi(n: int, x, ctx: QContext):
    """Normalized wave function phi_n(x) = d_n sqrt(w(x)) h_n(x); x may be a
    numpy array."""
    d = norm_constant(n, ctx)
    return _damped(_sqrt(weight(x, ctx)), x, lambda t: d * hermite_h(n, t, ctx))


def wave_function(n: int, ctx: QContext) -> FunctionHandle:
    """phi_n as a function handle, of a point or a numpy array of points."""
    return lambda x: phi(n, x, ctx)


#: the powers j of q at whose points t q^j each ladder operator reads f
_LADDER_REACH = {"a": (-1, 0), "a_plus": (0, 1), "H": (-1, 1)}


def _ladder_terms(which: str, x, q: float, alpha: float):
    """(pref, groups) of the lowering (a), raising (a_plus) or H operator at x:
    it maps f to pref times the sum over groups of the sum of c f_h(x q^j)
    over a group's terms (c, j, h), each summed left to right, where f_0 is
    the even part of f and f_1 the odd part.

    All three act block-diagonally on the even/odd parts.  The dilation and
    multiplication factors compose so that the square-root factor is always
    evaluated at the shifted point for the q^{-1}-dilation and at the base
    point for the q-dilation.
    """
    root_up = _sqrt(1.0 + q ** (-2.0 * alpha - 3.0) * x * x)    # with f(x/q)
    root_dn = _sqrt(1.0 + q ** (-2.0 * alpha - 1.0) * x * x)    # with f(qx)
    if which == "a":
        return (math.sqrt(q) / (math.sqrt(1.0 - q) * x),
                (((root_up, -1, 0), (-1.0, 0, 0),
                  (root_up, -1, 1), (-(q ** (2.0 * alpha + 1.0)), 0, 1)),))
    if which == "a_plus":
        return (q ** (2.0 * alpha + 1.5) / (math.sqrt(1.0 - q) * x),
                (((root_dn, 1, 0), (-1.0, 0, 0),
                  (root_dn, 1, 1), (-(q ** (-2.0 * alpha - 1.0)), 0, 1)),))
    xx = q ** (-2.0 * alpha - 1.0) * x * x
    return (-(q ** (2.0 * alpha + 1.0)) / ((1.0 - q) * x * x),
            (((q ** (-2.0 * alpha) * root_up, -1, 0), (root_dn, 1, 0),
              (-(1.0 + q ** (-2.0 * alpha) + xx), 0, 0)),
             ((q * root_up, -1, 1), (q ** (2.0 * alpha + 1.0) * root_dn, 1, 1),
              (-(1.0 + q ** (2.0 * alpha + 2.0) + xx), 0, 1))))


def _ladder_stencil(which: str, ctx: QContext):
    # the lattice engine's stencil: the operator's formula at +t, and at -t
    # with the odd halves negated
    q, alpha = ctx.q, ctx.alpha
    lo = _LADDER_REACH[which][0]

    def stencil(ts, even, odd):
        out = ([], [])
        for sign, halves, vals in ((1.0, (even, odd), out[0]),
                                   (-1.0, (even, [-v for v in odd]), out[1])):
            for i, t in enumerate(ts):
                pref, groups = _ladder_terms(which, sign * t, q, alpha)
                vals.append(pref * reduce(add, (
                    reduce(add, (c * halves[h][i - lo + j] for c, j, h in group))
                    for group in groups)))
        return out

    return stencil


def apply_ladder(f: FunctionHandle, which: str, x, ctx: QContext):
    """Apply the lowering (a), raising (a_plus) or H operator to f at x != 0.

    The lattice engine evaluates f once at each point the operator reads:
    6 times for H, 4 for a or a_plus.  x may be a numpy array if f accepts
    one.
    """
    if which not in _LADDER_REACH:
        raise ArgumentError(f"unknown ladder operator: {which!r}")
    return _lattice_power(f, x, 1, _ladder_stencil(which, ctx), _LADDER_REACH[which], ctx.q)


def _sym(n: float, q: float) -> float:
    """Symmetric q-number at base sqrt(q)."""
    return sym_qnumber(n, math.sqrt(q))


def build_matrix(which: str, dim: int, ctx: QContext) -> OperatorMatrix:
    """Dense matrix of one operator on the first dim basis vectors."""
    if which not in OPERATOR_NAMES:
        raise ArgumentError(f"unknown operator: {which!r}")
    if dim < 3:
        raise DimensionError(f"matrix realization needs dim >= 3, got {dim}")
    q, alpha = ctx.q, ctx.alpha
    m = np.zeros((dim, dim))

    if which == "a":
        for n in range(1, dim):
            m[n - 1, n] = math.sqrt(_gen_qint(n, q, alpha))
    elif which == "a_plus":
        m = build_matrix("a", dim, ctx).entries.T.copy()
    elif which == "N":
        m = np.diag(np.arange(dim, dtype=float))
    elif which == "parity_K":
        m = np.diag(np.array([(-1.0) ** n for n in range(dim)]))
    elif which == "H":
        m = np.diag(np.array([_gen_qint(n, q, alpha) for n in range(dim)]))
    elif which == "b":
        for n in range(1, dim):
            if n % 2 == 0:
                m[n - 1, n] = math.sqrt(_sym(float(n), q))
            else:
                m[n - 1, n] = math.sqrt(_sym(n + 2.0 * alpha + 1.0, q))
    elif which == "b_plus":
        m = build_matrix("b", dim, ctx).entries.T.copy()
    elif which == "K0":
        m = np.diag(np.array([(n + alpha + 1.0) / 2.0 for n in range(dim)]))
    elif which in ("K_plus", "K_minus"):
        gamma = 1.0 / _sym(2.0, q)
        b = build_matrix("b", dim, ctx).entries
        m = gamma * (b.T @ b.T if which == "K_plus" else b @ b)
    elif which == "casimir":
        k0 = build_matrix("K0", dim, ctx)
        half = OperatorMatrix(dim, k0.entries - 0.5 * np.eye(dim), "K0 - 1/2")
        bracket = sym_qbracket_diag(half, q).entries
        kp = build_matrix("K_plus", dim, ctx).entries
        km = build_matrix("K_minus", dim, ctx).entries
        m = bracket @ bracket - kp @ km
    return OperatorMatrix(dim, m, which)


def sym_qbracket_diag(M: OperatorMatrix, base: float) -> OperatorMatrix:
    """Apply the symmetric q-number entrywise to a diagonal matrix."""
    off = M.entries - np.diag(np.diag(M.entries))
    if np.max(np.abs(off)) > 1e-14:
        raise NotDiagonal(
            f"operator {M.label!r} has off-diagonal entries up to {np.max(np.abs(off))}")
    diag = np.array([sym_qnumber(v, base) for v in np.diag(M.entries)])
    return OperatorMatrix(M.dim, np.diag(diag), f"[{M.label}]")


def _block_norm(m: np.ndarray, keep: int) -> float:
    return float(np.max(np.abs(m[:keep, :keep]))) if keep > 0 else 0.0


def algebra_residual(rel: AlgebraRelation, dim: int, ctx: QContext) -> float:
    """Max-norm residual of one operator relation on the safe leading block."""
    if dim < rel.safe_block + 3:
        raise DimensionError(
            f"relation {rel.relation} needs dim >= {rel.safe_block + 3}, got {dim}")
    q, alpha = ctx.q, ctx.alpha
    keep = dim - rel.safe_block
    get = lambda name: build_matrix(name, dim, ctx).entries  # noqa: E731

    name = rel.relation
    if name == "N_a":
        n, a = get("N"), get("a")
        return _block_norm(n @ a - a @ n + a, keep)
    if name == "N_a_plus":
        n, ap = get("N"), get("a_plus")
        return _block_norm(n @ ap - ap @ n - ap, keep)
    if name == "K0_K_plus":
        k0, kp = get("K0"), get("K_plus")
        return _block_norm(k0 @ kp - kp @ k0 - kp, keep)
    if name == "K0_K_minus":
        k0, km = get("K0"), get("K_minus")
        return _block_norm(k0 @ km - km @ k0 + km, keep)
    if name == "Kminus_Kplus":
        km, kp = get("K_minus"), get("K_plus")
        two_k0 = OperatorMatrix(dim, 2.0 * get("K0"), "2 K0")
        rhs = sym_qbracket_diag(two_k0, q).entries
        return _block_norm(km @ kp - kp @ km - rhs, keep)
    if name in ("casimir_even", "casimir_odd"):
        c = np.diag(get("casimir"))
        parity = 0 if name == "casimir_even" else 1
        target = sym_qnumber((alpha + parity) / 2.0, q) ** 2
        idx = [n for n in range(keep) if n % 2 == parity]
        return float(np.max(np.abs(c[idx] - target)))
    if name == "number_recovery":
        a, ap = get("a"), get("a_plus")
        aap = OperatorMatrix(dim, a @ ap, "a a+")
        apa = OperatorMatrix(dim, ap @ a, "a+ a")
        for mat in (aap, apa):
            off = mat.entries - np.diag(np.diag(mat.entries))
            if np.max(np.abs(off)) > 1e-14:
                raise NotDiagonal(f"{mat.label} is not diagonal")
        log_q = math.log(q)
        rec = (np.log(1.0 - (1.0 - q) * np.diag(aap.entries))
               + np.log(1.0 - (1.0 - q) * np.diag(apa.entries))) / (2.0 * log_q) \
            - (alpha + 1.0)
        return float(np.max(np.abs(rec[:keep] - np.arange(keep))))
    if name in ("deformed_commut_plus", "deformed_commut_minus"):
        s = 1.0 if name == "deformed_commut_plus" else -1.0
        nu = alpha + 0.5
        b, bp = get("b"), get("b_plus")
        n_diag = np.arange(dim, dtype=float)
        k_diag = (-1.0) ** n_diag
        mid = np.diag(q ** (s * (1.0 + 2.0 * nu * k_diag) / 2.0))
        bracket = np.diag(np.array(
            [sym_qnumber(1.0 + 2.0 * nu * k, math.sqrt(q)) for k in k_diag]))
        rhs = bracket @ np.diag(q ** (-s * (n_diag + nu - nu * k_diag) / 2.0))
        return _block_norm(b @ bp - mid @ (bp @ b) - rhs, keep)
    if name == "H_factorization":
        h, a, ap = get("H"), get("a"), get("a_plus")
        return _block_norm(h - ap @ a, keep)
    raise ArgumentError(f"unknown algebra relation: {name!r}")


def eigen_residual(n: int, x: float, ctx: QContext) -> float:
    """Scale-normalized residual of H phi_n = [[n]] phi_n at one point.

    The 1/x^2 prefactor of H amplifies roundoff from the cancelling bracket
    (the three terms are O(phi) but combine to O(x^2 phi)), so the honest
    measure divides by the summed magnitude the evaluation actually handled.
    """
    if x == 0.0:
        raise DomainError("eigenrelation is evaluated away from x = 0")
    q, alpha = ctx.q, ctx.alpha
    f = wave_function(n, ctx)
    # phi_n has the parity of n: its part of that parity is phi_n and the
    # other is 0, so H needs only that group's terms, at x / q, x and q x
    pref, groups = _ladder_terms("H", x, q, alpha)
    values = {-1: f(x / q), 0: f(x), 1: f(q * x)}
    terms = [c * values[j] for c, j, _ in groups[n % 2]]
    lhs = pref * reduce(add, terms)
    rhs = _gen_qint(n, q, alpha) * values[0]
    scale = abs(pref) * reduce(add, map(abs, terms))
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs) + scale)


def inner_product(f: FunctionHandle, g: FunctionHandle, ctx: QContext) -> float:
    """Quadrature inner product int f g |x|^{2a+1} dx over the line.

    f and g are called on numpy arrays of quadrature nodes, all nonzero.
    Raises QuadratureFailure when the quadrature value is not finite, its
    error exceeds 1e-7, or the integrand at the cutoff c, times c, exceeds
    1e-7 (the dropped tail is then not negligible: wave functions of degree
    16 and up at q = 0.5 reach past the fixed cutoff).
    """
    alpha = ctx.alpha

    def integrand(x):
        return (f(x) * g(x) + f(-x) * g(-x)) * x ** (2.0 * alpha + 1.0)

    cutoff = _auto_cutoff(8, 8, ctx)
    value, err = _piecewise_quad(integrand, cutoff, ctx)
    if not (math.isfinite(value) and err <= 1e-7):
        raise QuadratureFailure(f"inner-product quadrature value {value} with error "
                                f"{err} misses 1e-7")
    edge = abs(float(integrand(np.array([cutoff]))[0])) * cutoff
    if not edge <= 1e-7:
        raise QuadratureFailure(f"inner-product integrand at the cutoff {cutoff}, times "
                                f"the cutoff, is {edge}: the dropped tail misses 1e-7")
    return value


def selfadjoint_residual(f: FunctionHandle, g: FunctionHandle, ctx: QContext) -> float:
    """|<Hf, g> - <f, Hg>| by quadrature, for f, g in the wave-function span."""
    hf = lambda x: apply_ladder(f, "H", x, ctx)  # noqa: E731
    hg = lambda x: apply_ladder(g, "H", x, ctx)  # noqa: E731
    return abs(inner_product(hf, g, ctx) - inner_product(f, hg, ctx))


def raised_from_ground(n: int, x: float, ctx: QContext) -> float:
    """(n!_{q,a})^{-1/2} (a+)^n phi_0 evaluated at x.

    phi_0 is evaluated once at each of the 2(n + 1) points +-x q^i.  The
    levels cancel in floating point: at q = 0.5, alpha = 0.25, x = 0.7 the
    value is 1.4e-10 off phi_n at n = 8 and 0.056 at n = 12, where the same
    recursion in 60 digits stays within phi_n's own rounding.
    """
    return (_lattice_power(wave_function(0, ctx), x, n, _ladder_stencil("a_plus", ctx),
                           _LADDER_REACH["a_plus"], ctx.q)
            / math.sqrt(gen_qfact(n, ctx)))
