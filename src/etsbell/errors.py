"""Exception types shared across the package."""


class EtsError(Exception):
    """Base class for all errors raised by this package."""


class RotationError(EtsError, ValueError):
    """An effective rotation cannot be applied to the given mode."""


class NonconvergenceError(EtsError, RuntimeError):
    """A quadrature estimate failed to reach the requested tolerance."""

    def __init__(self, message: str, value: float | None = None,
                 err_estimate: float | None = None):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class UnsupportedAngleSetError(EtsError, KeyError):
    """No canonical angle set is stored for the requested inequality/family pair."""


class NoCrossingError(EtsError, RuntimeError):
    """A functional never reaches its local-realistic bound on the search interval."""
