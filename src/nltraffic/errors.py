"""Exception types shared across the package."""

__all__ = ["ConfigurationError", "ConvergenceError", "SolverError"]


class ConfigurationError(ValueError):
    """A run configuration is internally inconsistent (grid, epsilon, times...)."""


class SolverError(RuntimeError):
    """The time marcher produced a non-finite value and aborted."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the full residual history so the failure can be reported instead
    of silently returning a half-converged field.
    """

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = list(residuals)
