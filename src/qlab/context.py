"""Evaluation context and error types shared by every module.

All numerical routines are pure functions of their inputs and a QContext,
which carries the deformation parameter q and the order parameter alpha.
The series tolerance and the ceiling on series terms, product factors and
Jackson lattice points are module constants; a Jackson sum takes its extent
from its own terms.
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

#: hard ceiling on the terms of a series, the points of a Jackson sum's
#: direction and the factors of a product; it only bounds the cost of one call.
#: A series or Jackson sum raises NonConvergence past it, and a product whose
#: stopping rule needs more factors raises it before it multiplies any.
MAX_TERMS = 40_000


@dataclass(frozen=True)
class QContext:
    """Global evaluation parameters threaded through every operation.

    q     : deformation parameter, strictly inside (0, 1)
    alpha : order parameter, finite and > -1
    """

    q: float
    alpha: float = -0.5

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ConfigError(f"q must lie in (0, 1), got {self.q}")
        if not -1.0 < self.alpha < float("inf"):
            raise ConfigError(f"alpha must be finite and > -1, got {self.alpha}")

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
