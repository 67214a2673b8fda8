"""Exception hierarchy for omfisher.

Domain errors signal invalid inputs; numerical errors signal a solver or
quadrature that could not deliver the requested accuracy.
"""


class OmfisherError(Exception):
    """Base class for all omfisher errors."""


class DomainError(OmfisherError, ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericalError(OmfisherError, RuntimeError):
    """A numerical routine failed; ``details`` carries diagnostic payload."""

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details


class QuadratureError(NumericalError):
    """A quadrature or series missed its tolerance; carries the estimate."""

    def __init__(self, message, estimate=None, details=None):
        super().__init__(message, details)
        self.estimate = estimate


class AmbiguousBranchError(OmfisherError, ValueError):
    """Drive power lies in the bistable window and no branch was selected."""

    def __init__(self, message, lower_branch=None, upper_branch=None):
        super().__init__(message)
        self.lower_branch = lower_branch
        self.upper_branch = upper_branch


class UnstableDriftError(OmfisherError, ValueError):
    """An operation that requires a Hurwitz drift matrix got an unstable one."""


class DegenerateLyapunovError(NumericalError):
    """The Lyapunov operator is singular (eigenvalue pair summing to zero)."""


class UnphysicalStateError(DomainError):
    """Covariance matrix violates the uncertainty bound det(sigma) >= 1/4."""


class ConvergenceError(NumericalError):
    """Iterative refinement (e.g. Fock truncation) did not converge."""


class DerivativeUndefinedError(OmfisherError, ValueError):
    """Parameter derivative requested at a bistability branch boundary."""


class ConfigError(OmfisherError, ValueError):
    """Run configuration file is invalid."""
