"""Exception types shared across the package."""


class FractalHullError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(FractalHullError, ValueError):
    """Invalid input: malformed matrices, bad grid sizes, broken invariants."""


class NotContractingError(ValidationError):
    """An affine map (or map family) fails the contraction requirement c < 1."""


class ConvergenceError(FractalHullError):
    """Internal iteration guard tripped; unreachable for a validated IFS."""
