"""Exception taxonomy shared across the package."""

from __future__ import annotations


class SmplabError(Exception):
    """Base class for all package errors."""


class EmptyProbeSet(SmplabError):
    """Coefficient validation was called without probe points."""


class NonFiniteEvaluation(SmplabError):
    """A coefficient map returned NaN or infinity at a probe point."""


class NonFiniteState(SmplabError):
    """Forward simulation produced a non-finite state value."""

    def __init__(self, step: int, path: int):
        self.step = step
        self.path = path
        super().__init__(f"non-finite state at step {step}, path {path}")


class SingularJumpCoefficient(SmplabError):
    """1 + dgamma/dx fell below the admissible margin somewhere."""


class UnsupportedNode(SmplabError):
    """A functional-tree node kind with no differentiation rule."""


class InsufficientPaths(SmplabError):
    """Too few Monte Carlo paths for the requested regression."""


class NonAdaptedIntegrand(SmplabError):
    """A duality integrand depends on future noise increments."""


class JumpDependentFunctional(SmplabError):
    """Martingale reconstruction requested for a functional with jump terms."""


class DegenerateStudy(SmplabError):
    """A convergence study found no discretization error to take a ratio of."""


class ContractionFailure(SmplabError):
    """The implicit regression step has no stable solution: 1 - b_x dt <= 0 on some path."""


class ConfigError(SmplabError):
    """An experiment configuration failed to parse or validate."""


class ReplayMismatch(SmplabError):
    """Replayed numeric payload differs from the recorded report."""
