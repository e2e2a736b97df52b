"""Exact coherent-state kernels on the quadrature line, for the pure-state oracle.

The pure-state branch model of ``pure_state_oracle`` reduces to three
ingredients computed here: overlaps of coherent states, their
position-quadrature wavefunctions, and interference integrals of
wavefunction products restricted to a half-line.  None of it is shared with
the engine, whose thermal model needs only real erf and Dawson's integral.
The quadrature convention is x = eigenvalue of (a + a†)/√2, so a coherent
state with real amplitude d is a Gaussian of mean √2·d and variance 1/2.

The half-line integrals need the complementary error function of complex
argument, which is evaluated through scipy's Faddeeva function w(z); that
path is exposed as :func:`faddeeva` so its accuracy can be audited directly.
"""

from __future__ import annotations

import cmath
import enum
import math

from scipy.special import wofz

from etsbell.errors import EtsError

# A coherent-state label: a plain complex number in phase-space units.
ComplexAmplitude = complex

# Guard against exp(-2|alpha|^2)-style overflow/underflow pathologies.
AMP_MAX = 1.0e3

# Largest |z| for which the Faddeeva evaluation is attempted.
FADDEEVA_MAX_ARG = 1.0e6

_SQRT2 = math.sqrt(2.0)
_PI_QUARTER = math.pi ** (-0.25)


class AmplitudeRangeError(EtsError, ValueError):
    """A coherent amplitude is non-finite or exceeds the overflow guard."""


class FaddeevaOverflowError(EtsError, ValueError):
    """The scaled complementary error function cannot be evaluated safely."""


class HalfLineSign(enum.IntEnum):
    """Which half of the quadrature axis an integral runs over."""

    PLUS = 1    # [0, inf)
    MINUS = -1  # (-inf, 0]


def _check_amplitude(value: complex, name: str) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise AmplitudeRangeError(f"{name} must be finite, got {value!r}")
    if abs(value) > AMP_MAX:
        raise AmplitudeRangeError(
            f"|{name}| = {abs(value):.3g} exceeds AMP_MAX = {AMP_MAX:g}")
    return value


def coherent_overlap(alpha: ComplexAmplitude, beta: ComplexAmplitude) -> complex:
    """Return ⟨β|α⟩ = exp(β̄α − |α|²/2 − |β|²/2).

    The magnitude never exceeds 1 and equals 1 exactly when α = β.
    """
    alpha = _check_amplitude(alpha, "alpha")
    beta = _check_amplitude(beta, "beta")
    exponent = (beta.conjugate() * alpha
                - 0.5 * (alpha.real**2 + alpha.imag**2)
                - 0.5 * (beta.real**2 + beta.imag**2))
    return cmath.exp(exponent)


def quadrature_amplitude(x: float, alpha: ComplexAmplitude) -> complex:
    """Position-space wavefunction ⟨x|α⟩ of a coherent state.

    Uses ⟨x|α⟩ = π^(−1/4)·exp(−x²/2 + √2xα − α²/2 − |α|²/2); the real part
    of the exponent is −(x − √2·Re α)²/2, so the magnitude is bounded by
    π^(−1/4) for every argument.
    """
    alpha = _check_amplitude(alpha, "alpha")
    exponent = (-0.5 * x * x + _SQRT2 * x * alpha - 0.5 * alpha * alpha
                - 0.5 * (alpha.real**2 + alpha.imag**2))
    return _PI_QUARTER * cmath.exp(exponent)


def _wofz(z: complex) -> complex:
    return complex(wofz(z))


def faddeeva(z: complex) -> complex:
    """Scaled complementary error function w(z) = exp(−z²)·erfc(−iz).

    Relative accuracy is better than 1e-10 on |z| ≤ 10 (audited against a
    50-digit reference in the test suite).  Arguments outside |z| ≤ 1e6, or
    arguments deep in the lower half-plane where exp(−z²)erfc(−iz) grows
    beyond double range, raise :class:`FaddeevaOverflowError`.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise FaddeevaOverflowError(f"faddeeva argument must be finite, got {z!r}")
    if abs(z) > FADDEEVA_MAX_ARG:
        raise FaddeevaOverflowError(
            f"|z| = {abs(z):.3g} exceeds the supported range {FADDEEVA_MAX_ARG:g}")
    result = _wofz(z)
    if not (math.isfinite(result.real) and math.isfinite(result.imag)):
        raise FaddeevaOverflowError(f"faddeeva overflow at z = {z!r}")
    return result


def _halfline_kernel(alpha: complex, beta: complex, sign: int, eta: float) -> complex:
    """Shared evaluation of ∫_{R±} ⟨x|α⟩·conj(⟨x|β⟩) dx with loss parameter η.

    The detector-loss model (amplitude transmission η plus Gaussian noise of
    variance (1−η²)/2 convolved into the position kernel) only rescales the
    boundary argument of the complementary error function; the prefactor stays
    the full overlap ⟨β|α⟩.  Written via the Faddeeva function on the branch
    where it is bounded, so no intermediate quantity can overflow.
    """
    m = eta * (alpha + beta.conjugate()) / _SQRT2
    log_ov = (beta.conjugate() * alpha
              - 0.5 * (alpha.real**2 + alpha.imag**2)
              - 0.5 * (beta.real**2 + beta.imag**2))
    sm = sign * m
    if sm.real < 0.0:
        return 0.5 * cmath.exp(log_ov - m * m) * _wofz(-1j * sm)
    return cmath.exp(log_ov) - 0.5 * cmath.exp(log_ov - m * m) * _wofz(1j * sm)


def halfline_interference_integral(alpha: ComplexAmplitude,
                                   beta: ComplexAmplitude,
                                   domain: HalfLineSign) -> complex:
    """Interference integral I_±(α, β) = ∫_{R±} ⟨x|α⟩·conj(⟨x|β⟩) dx.

    These are the per-mode factors of joint sign probabilities for
    dichotomized homodyne detection.  They satisfy completeness,
    I₊ + I₋ = ⟨β|α⟩, Hermiticity I(α,β) = conj(I(β,α)), and I₊(α,α) is a
    probability in [0, 1].
    """
    alpha = _check_amplitude(alpha, "alpha")
    beta = _check_amplitude(beta, "beta")
    sign = int(domain)
    if sign not in (1, -1):
        raise ValueError(f"domain must be ±1, got {domain!r}")
    return _halfline_kernel(alpha, beta, sign, 1.0)
