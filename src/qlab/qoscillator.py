"""Deformed oscillator realization built on the generalized Hermite family.

Wave functions phi_n = d_n sqrt(w) h_n, the block-diagonal Schrodinger-type
difference operator H and ladder operators a / a+ in functional form, their
dense matrix realizations together with the number operator, the rescaled
ladder pair b / b+ and the su_{q^{1/2}}(1,1) generators with Casimir, and the
residuals of every commutation/factorization relation they satisfy.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import islice
from operator import add

import numpy as np

from .context import (ArgumentError, DimensionError, DomainError, NotDiagonal, QContext,
                      QuadratureFailure)
from .qcore import (FunctionHandle, Points, _gen_qint, _guarded, _in_range, _lattice_power,
                    _level, gen_qfact, sym_qnumber)
from .qhermite import (_log_rows, _log_weight, _piecewise_quad, _scaled_walk,
                       _shifted_log_weight, norm_constant, weight)

OPERATOR_NAMES = ("a", "a_plus", "N", "parity_K", "H", "b", "b_plus",
                  "K0", "K_plus", "K_minus", "casimir")


@_guarded
def phi(n: int, x: Points, ctx: QContext) -> Points:
    """Normalized wave function phi_n(x) = d_n sqrt(w(x)) h_n(x); x may be a numpy array.
    h_n = q^{-n^2/2} s_n from the three-term walk (_scaled_walk), in floats; where
    sqrt(w) < 1e-250 (w underflows long before phi is small), from _log_rows, in logs."""
    d, root = norm_constant(n, ctx), _sqrt(weight(x, ctx))
    value = d * ctx.q ** (-n * n / 2.0) * root * next(islice(_scaled_walk(x, ctx), n, None))
    if not isinstance(x, np.ndarray):
        return value if root >= 1e-250 else float(phi(n, np.array([x]), ctx)[0])
    low = root < 1e-250
    if low.any():
        far = x[low]
        sign, log = _log_rows(n, far, _log_weight(far, ctx), ctx)
        value[low] = sign[n] * np.exp(log[n] + math.log(d))
    return value


def _sqrt(v):
    # np.sqrt on an array; math.sqrt keeps a float a float (the same value)
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


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
    return _level(_lattice_power(f, x, 1, _ladder_stencil(which, ctx), _LADDER_REACH[which],
                                 ctx.q), 1)


def _sym(n: float, q: float) -> float:
    """Symmetric q-number at base sqrt(q)."""
    return sym_qnumber(n, math.sqrt(q))


@lru_cache(maxsize=16)
@_guarded
def _operator_matrices(dim: int, ctx: QContext) -> dict[str, np.ndarray]:
    """Every operator of OPERATOR_NAMES on the first dim basis vectors, each built from
    the ones before it: a, b, K0, K+- and then the Casimir; cached, so read-only."""
    q, alpha = ctx.q, ctx.alpha
    a, b = np.zeros((dim, dim)), np.zeros((dim, dim))
    k0 = np.diag(np.array([(n + alpha + 1.0) / 2.0 for n in range(dim)]))
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(_gen_qint(n, q, alpha))
        b[n - 1, n] = math.sqrt(_sym(float(n) if n % 2 == 0 else n + 2.0 * alpha + 1.0, q))
    bracket = sym_qbracket_diag(k0 - 0.5 * np.eye(dim), q)
    gamma = 1.0 / _sym(2.0, q)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers test finiteness
        k_plus, k_minus = gamma * (b.T @ b.T), gamma * (b @ b)
        casimir = bracket @ bracket - k_plus @ k_minus
    out = {"a": a, "a_plus": a.T.copy(), "N": np.diag(np.arange(dim, dtype=float)),
           "parity_K": np.diag(np.array([(-1.0) ** n for n in range(dim)])),
           "H": np.diag(np.array([_gen_qint(n, q, alpha) for n in range(dim)])),
           "b": b, "b_plus": b.T.copy(), "K0": k0, "K_plus": k_plus, "K_minus": k_minus,
           "casimir": casimir}
    for m in out.values():
        m.flags.writeable = False
    return out


def build_matrix(which: str, dim: int, ctx: QContext) -> np.ndarray:
    """Dense matrix of one operator on the first dim basis vectors, a copy the caller owns."""
    if which not in OPERATOR_NAMES:
        raise ArgumentError(f"unknown operator: {which!r}")
    if dim < 3:
        raise DimensionError(f"matrix realization needs dim >= 3, got {dim}")
    m = _operator_matrices(dim, ctx)[which]
    if not np.all(np.isfinite(m)):
        raise ArgumentError(f"non-finite entries in operator {which!r}")
    return m.copy()


def _diagonal(m: np.ndarray, what: str) -> np.ndarray:
    """The diagonal of m; NotDiagonal if an entry off it exceeds 1e-14."""
    off = np.max(np.abs(m - np.diag(np.diag(m))))
    if off > 1e-14:
        raise NotDiagonal(f"{what} has off-diagonal entries up to {off}")
    return np.diag(m)


def sym_qbracket_diag(m: np.ndarray, base: float) -> np.ndarray:
    """Apply the symmetric q-number entrywise to a diagonal matrix."""
    return np.diag(np.array([sym_qnumber(v, base) for v in _diagonal(m, "the matrix")]))


def _casimir_row(parity: int):
    # the Casimir's diagonal minus [(alpha + parity) / 2]^2 at one parity, 0 at the other
    def residual(m, ctx):
        c = np.diag(m["casimir"]) - sym_qnumber((ctx.alpha + parity) / 2.0, ctx.q) ** 2
        return np.diag(np.where(np.arange(len(c)) % 2 == parity, c, 0.0))
    return residual


def _number_recovery(m, ctx):
    # N = (log_q(1 - (1 - q) a a+) + log_q(1 - (1 - q) a+ a)) / 2 - (alpha + 1)
    q = ctx.q
    aap, apa = _diagonal(m["a"] @ m["a_plus"], "a a+"), _diagonal(m["a_plus"] @ m["a"], "a+ a")
    rec = (np.log(1.0 - (1.0 - q) * aap)
           + np.log(1.0 - (1.0 - q) * apa)) / (2.0 * math.log(q)) - (ctx.alpha + 1.0)
    return np.diag(rec - np.diag(m["N"]))


def _deformed_commutator(s: float):
    # b b+ - q^{s(1 + 2 nu K)/2} b+ b = [1 + 2 nu K] q^{-s(N + nu - nu K)/2}
    def residual(m, ctx):
        q, nu = ctx.q, ctx.alpha + 0.5
        n, k = np.diag(m["N"]), np.diag(m["parity_K"])
        mid = np.diag(q ** (s * (1.0 + 2.0 * nu * k) / 2.0))
        bracket = np.diag([sym_qnumber(1.0 + 2.0 * nu * kn, math.sqrt(q)) for kn in k])
        rhs = bracket @ np.diag(q ** (-s * (n + nu - nu * k) / 2.0))
        return m["b"] @ m["b_plus"] - mid @ (m["b_plus"] @ m["b"]) - rhs
    return residual


#: relation -> (excluded top indices, its residual matrix from the operator matrices and
#: the context).  A raising operator maps the top basis vectors out of the truncated
#: basis, so a finite section of a relation holds only on the block that excludes them.
_RELATIONS = {
    "N_a": (1, lambda m, ctx: m["N"] @ m["a"] - m["a"] @ m["N"] + m["a"]),
    "N_a_plus": (1, lambda m, ctx: m["N"] @ m["a_plus"] - m["a_plus"] @ m["N"] - m["a_plus"]),
    "K0_K_plus": (2, lambda m, ctx: m["K0"] @ m["K_plus"] - m["K_plus"] @ m["K0"] - m["K_plus"]),
    "K0_K_minus": (2, lambda m, ctx: m["K0"] @ m["K_minus"] - m["K_minus"] @ m["K0"]
                   + m["K_minus"]),
    "Kminus_Kplus": (2, lambda m, ctx: m["K_minus"] @ m["K_plus"] - m["K_plus"] @ m["K_minus"]
                     - sym_qbracket_diag(2.0 * m["K0"], ctx.q)),
    "casimir_even": (2, _casimir_row(0)),
    "casimir_odd": (2, _casimir_row(1)),
    "deformed_commut_plus": (1, _deformed_commutator(1.0)),
    "deformed_commut_minus": (1, _deformed_commutator(-1.0)),
    "number_recovery": (1, _number_recovery),
    "H_factorization": (1, lambda m, ctx: m["H"] - m["a_plus"] @ m["a"]),
}

RELATION_NAMES = tuple(_RELATIONS)


def algebra_residual(relation: str, dim: int, ctx: QContext) -> float:
    """Max-norm residual of one relation on the block without its top indices, over
    the cached operator matrices of (dim, ctx), which all its relations share."""
    if relation not in _RELATIONS:
        raise ArgumentError(f"unknown algebra relation: {relation!r}")
    excluded, residual = _RELATIONS[relation]
    if dim < excluded + 3:
        raise DimensionError(f"relation {relation} needs dim >= {excluded + 3}, got {dim}")
    keep, matrices = dim - excluded, _operator_matrices(dim, ctx)
    with np.errstate(all="ignore"):
        r = float(np.max(np.abs(residual(matrices, ctx)[:keep, :keep])))
    if not math.isfinite(r):
        # entries past double range, or a log of 1 - (1 - q) [[n]] rounded to
        # <= 0 in the number recovery (from dim 55 at q = 0.5)
        raise DomainError(f"relation {relation} has no finite residual at dim={dim}, q={ctx.q}")
    return r


@_guarded
def eigen_residual(n: int, x: Points, ctx: QContext) -> Points:
    """Scale-normalized residual of H phi_n = [[n]] phi_n at a point, or at
    each point of a numpy array.

    The 1/x^2 prefactor of H amplifies roundoff from the cancelling bracket
    (the three terms are O(phi) but combine to O(x^2 phi)), so the honest
    measure divides by the summed magnitude the evaluation actually handled;
    where that prefactor overflows, near x = 0, it raises DomainError.
    """
    if (x == 0.0).any() if isinstance(x, np.ndarray) else x == 0.0:
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
    return _in_range(abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs) + scale),
                     "eigenrelation residual", ctx, x)


def selfadjoint_residual(n: int, m: int, ctx: QContext) -> float:
    """|<H phi_n, phi_m> - <phi_n, H phi_m>| over _piecewise_quad's table for degrees up
    to max(8, n, m), from one _log_rows call at t / q, t and q t, each row scaled by its
    largest value over the three.  log w at t is the table's, and at t / q and q t it is
    shifted from it by the weight's functional equation (_shifted_log_weight).
    QuadratureFailure where a side is not finite or its error exceeds 1e-7: its two rules'
    difference plus eps times the summed magnitude of H's terms, whose 1/x^2 amplifies a
    cancelling bracket (even pairs at alpha <= -1/2)."""
    q, top_degree, sides = ctx.q, max(n, m), []
    t, log_w, weights = _piecewise_quad(max(8, top_degree), ctx)
    log_d = math.log(norm_constant(n, ctx)) + math.log(norm_constant(m, ctx))
    pref, groups = _ladder_terms("H", t, q, ctx.alpha)
    with np.errstate(all="ignore"):  # the gate rejects a non-finite value or error
        sign, log = _log_rows(top_degree, np.concatenate((t / q, t, q * t)),
                              np.concatenate(_shifted_log_weight(t, log_w, ctx)), ctx)
        top = log.max(axis=1)
        rows = (sign * np.exp(log - top[:, None])).reshape(top_degree + 1, 3, len(t))
        scale = (1.0 + (-1.0) ** (n + m)) * np.exp(top[n] + top[m] + log_d)
        for k, other in ((n, m), (m, n)):  # H phi_k has k's parity: one group of terms
            terms = [c * rows[k, j + 1] for c, j, _ in groups[k % 2]]
            coarse, fine = weights @ (pref * reduce(add, terms) * rows[other, 1]) * scale
            err = abs(fine - coarse) + 2.0 ** -52 * weights[1] @ np.abs(
                pref * reduce(add, map(abs, terms)) * rows[other, 1]) * scale
            if not (math.isfinite(fine) and err <= 1e-7):
                raise QuadratureFailure(f"<H phi_{k}, phi_{other}> = {fine}: error {err} > 1e-7")
            sides.append(float(fine))
    return abs(sides[0] - sides[1])


def raised_from_ground(n: int, x: float, ctx: QContext) -> float:
    """(n!_{q,a})^{-1/2} (a+)^n phi_0 evaluated at x.

    phi_0 is evaluated once at each of the 2(n + 1) points +-x q^i.  The
    levels cancel in floating point: at q = 0.5, alpha = 0.25, x = 0.7 the
    value is 1.4e-10 off phi_n at n = 8 and 0.056 at n = 12, where the same
    recursion in 60 digits stays within phi_n's own rounding.
    """
    return (_level(_lattice_power(wave_function(0, ctx), x, n, _ladder_stencil("a_plus", ctx),
                                  _LADDER_REACH["a_plus"], ctx.q), n)
            / math.sqrt(gen_qfact(n, ctx)))
