"""Evaluation context and error types shared by every module.

All numerical routines are pure functions of their inputs and a QContext,
which carries the deformation parameter q and the order parameter alpha.
The series tolerance, the ceiling on series terms and product factors, and
the Jackson-integral window are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class QError(Exception):
    """Base class for all library errors."""


class NonConvergence(QError):
    """A series, product or Jackson integral failed to meet its tolerance."""


class DomainError(QError):
    """An operator or function was evaluated outside its domain."""


class PoleError(QError):
    """Evaluation hit a pole (e_q pole, or the Gamma reflection pole)."""


class NegativeRadicand(QError):
    """A normalization radicand came out non-positive (parameter misuse)."""


class NotDiagonal(QError):
    """A matrix expected to be diagonal has significant off-diagonal entries."""


class DimensionError(QError):
    """A matrix dimension is too small for the requested construction."""


class QuadratureFailure(QError):
    """Classical quadrature could not reach the requested tolerance."""


class ConfigError(QError):
    """A suite or CLI configuration violates an invariant."""


class UnknownFunction(QError):
    """The CLI was asked to evaluate a function that is not registered."""


class ArgumentError(QError):
    """A CLI argument is missing or cannot be parsed."""


#: truncation target of the infinite sums and products
SERIES_TOL = 1e-14

#: hard ceiling on the terms of a series and the factors of a product; it only
#: bounds the cost of one call.  qcore._sum_series raises NonConvergence after
#: this many terms, and a product whose stopping rule needs more factors
#: raises NonConvergence before it multiplies any.
MAX_TERMS = 40_000

#: Jackson-integral exponent window: the lattice points are q**n for
#: LATTICE_LO <= n <= LATTICE_HI, so LATTICE_LO < 0 covers the large-x end of
#: the geometric lattice.  Callers read the window at call time.
LATTICE_LO = -40
LATTICE_HI = 120


@dataclass(frozen=True)
class QContext:
    """Global evaluation parameters threaded through every operation.

    q     : deformation parameter, strictly inside (0, 1)
    alpha : order parameter, > -1
    """

    q: float
    alpha: float = -0.5

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"q must lie in (0, 1), got {self.q}")
        if not self.alpha > -1.0:
            raise ConfigError(f"alpha must be > -1, got {self.alpha}")

    def with_alpha(self, alpha: float) -> "QContext":
        """Same context with a different order parameter."""
        return replace(self, alpha=alpha)


@dataclass(frozen=True)
class TruncatedValue:
    """A truncated series/product value with an explicit remainder bound."""

    value: float
    tail_bound: float
    terms_used: int

    def __float__(self) -> float:
        return self.value
