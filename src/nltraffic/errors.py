"""Exception types shared across the package."""

__all__ = ["ConfigurationError", "ConvergenceError", "SolverError"]


class ConfigurationError(ValueError):
    """A run configuration is internally inconsistent (grid, epsilon, times...)."""


class SolverError(RuntimeError):
    """The time marcher produced a non-finite value and aborted."""


class ConvergenceError(RuntimeError):
    """Raised by no solver; the name stays because ``perfbench/workloads.py`` catches it."""
