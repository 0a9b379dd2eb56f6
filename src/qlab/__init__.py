"""Generalized discrete q-Hermite II polynomials and their q-calculus.

A numerical library and command-line tool for the q-deformed special
functions surrounding the generalized discrete q-Hermite II family:
Jackson q-derivatives and q-integrals, q-exponential/trigonometric/Bessel
functions, the polynomial identities (orthogonality, integral
representations, kernel summations), and the ladder-operator realization
of a q-deformed oscillator with its quantum-algebra relations.  Every
identity is exposed as a residual check that feeds machine-readable
verification reports.
"""

from .context import (ArgumentError, ConfigError, DimensionError, DomainError,
                      NegativeRadicand, NonConvergence, NotDiagonal, PoleError,
                      QContext, QError, QuadratureFailure, TruncatedValue,
                      UnknownFunction)
from .qcore import (FunctionHandle, gen_qfact, gen_qint, gen_qpoch,
                    jackson_integral, qderiv, qderiv_levels, qderiv_pow, qnumber, qpoch,
                    qpoch_inf, sym_qnumber, theta)
from .qfunctions import (BESSEL_KINDS, bessel_delta_residual, qbessel, qexp_big,
                         qexp_gen, qexp_small, qtrig)
from .qhermite import (bessel_expansion_residual, bessel_weight_transform,
                       continuous_orthogonality, discrete_orthogonality_residual,
                       discrete_orthogonality_rhs, hermite_h, hermite_h_scaled,
                       hermite_via_laguerre, integral_representation_residual,
                       moment_check, moment_constant, norm_constant,
                       poisson_kernel_residual, qlaguerre, relation_residual,
                       rogers_ramanujan_residual, weight)
from .qoscillator import (algebra_residual, apply_ladder, build_matrix, eigen_residual,
                          phi, raised_from_ground, selfadjoint_residual, sym_qbracket_diag,
                          wave_function)
from .report import CheckResult, VerificationReport
from .suites import (DEFAULT_ALPHA_GRID, DEFAULT_Q_GRID, SUITE_NAMES,
                     SuiteConfig, run_suite)

__version__ = "1.0.0"
