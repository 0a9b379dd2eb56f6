"""The functional operators equal the matrix realization.

Gram(A) is <phi_m, A phi_n> / <phi_0, phi_0> for m, n < 9: the lowering (a),
raising (a_plus) and H operators of the lattice engine (apply_ladder) acting
on the wave functions, integrated over the continuous relation's node table.
It must equal the closed-form matrices of build_matrix, an independent route.
The <phi_0, phi_0> scale is the n-independent offset of the continuous
diagonal, q^{(alpha+1)(alpha+1/2)}, which the wave functions still carry.

Each operator is applied once per degree, on the nodes with their negatives
appended (the line integral), and read with the 40-node rule.
"""

import numpy as np
import pytest

from qlab import QContext, apply_ladder, build_matrix, wave_function
from qlab.qhermite import _piecewise_quad

DIM = 9

#: the default grid and (0.3, -0.9), where |x|^{2 alpha + 1} is singular at 0
GRID = [QContext(q=q, alpha=a) for q in (0.3, 0.5, 0.8) for a in (-0.5, 0.25, 1.3)]
GRID.append(QContext(q=0.3, alpha=-0.9))


def _grams(ctx: QContext, operators: tuple[str, ...]) -> dict[str, np.ndarray]:
    x, _, (_, fine) = _piecewise_quad(DIM - 1, ctx)
    line, weights = np.concatenate((x, -x)), np.concatenate((fine, fine))
    phis = np.array([wave_function(n, ctx)(line) for n in range(DIM)])
    scaled = phis * weights / ((phis[0] * weights) @ phis[0])
    return {op: scaled @ np.array([apply_ladder(wave_function(n, ctx), op, line, ctx)
                                   for n in range(DIM)]).T
            for op in operators}


@pytest.mark.parametrize("ctx", GRID, ids=str)
def test_gram_matrices_equal_the_matrix_realization(ctx):
    # H's 1/x^2 prefactor leaves roundoff of about eps phi / x^2 from its cancelling
    # bracket, which |x|^{2 alpha + 1} does not integrate at 0 for alpha <= -1/2
    operators = ("a", "a_plus", "H") if ctx.alpha > -0.5 else ("a", "a_plus")
    for op, gram in _grams(ctx, operators).items():
        assert np.max(np.abs(gram - build_matrix(op, DIM, ctx))) <= 1e-13, op
