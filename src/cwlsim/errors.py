"""Exception hierarchy shared across the package.

ConfigError maps to CLI exit code 1, NumericalError to exit code 2.
"""


class CwlError(Exception):
    pass


class ConfigError(CwlError):
    """Invalid configuration, parameters, or input files."""


class GridTooCoarseError(ConfigError):
    """Phase-space grid spacing not positive, or too coarse for reliable quadrature."""


class NumericalError(CwlError):
    """A numerical procedure failed to reach its accuracy target."""


class StepSizeError(NumericalError):
    """Adaptive step-size control underflowed."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"step size underflow at t={t!r}")


class CutoffConvergenceError(NumericalError):
    """Result not converged with respect to the Fock-space cutoff."""


class SeriesConvergenceError(NumericalError):
    """A truncated series did not meet its tail bound."""
