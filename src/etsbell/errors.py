"""Exception types shared across the package, and the type check that
every constructor applies to its numeric fields."""

import numbers


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

    __str__ = Exception.__str__  # KeyError's would quote the message


class NoCrossingError(EtsError, RuntimeError):
    """A functional never reaches its local-realistic bound on the search interval."""


def require_number(name: str, value, kind=numbers.Real) -> None:
    """Raise :class:`TypeError`, naming the field, unless ``value`` is a
    number of ``kind``; a bool is not, though Python counts it as one."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a real number"
        raise TypeError(f"{name} must be {what}, got {value!r}")
