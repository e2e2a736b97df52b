"""Closed-form reference values for the families that admit them.

These formulas provide independent cross-checks of the quadrature engine and
fast evaluation paths for figure-scale parameter surfaces.  Thermal smearing
enters through two scalars: the sign contrast of a single displaced thermal
mode and the Gram decay controlling the normalization of GHZ-type branches.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Largest Svetlichny value reachable with zx-plane settings on the W state.
W_SVETLICHNY_MAX = 16.0 * math.sqrt(6.0) / 9.0

GHZ3_SVETLICHNY_MAX = 4.0 * math.sqrt(2.0)
GHZ4_SVETLICHNY_MAX = 8.0 * math.sqrt(2.0)


def sign_contrast(V: float, d: float, eta: float = 1.0) -> float:
    """Mean outcome sign of one displaced thermal mode, erf(√2dη/√(1+η²(V−1)))."""
    return math.erf(math.sqrt(2.0) * d * eta / math.sqrt(1.0 + eta * eta * (V - 1.0)))


def gram_decay(V: float, d: float) -> float:
    """Thermal average of the ⟨−α|α⟩ overlap per mode, e^(−2d²/V)/V.

    Detector losses do not enter: the state trace is a property of the state
    alone.
    """
    return math.exp(-2.0 * d * d / V) / V


def spin_ghz_correlation(*phases: float) -> float:
    """Equatorial qubit-GHZ correlation cos(Σ phases)."""
    return math.cos(math.fsum(phases))


def ghz_correlation_closed(V: float, d: float, phases: Sequence[float],
                           eta: float = 1.0) -> float:
    """Three-party correlation of the GHZ-type thermal state.

    All parties measure equatorial settings (θ = π/2) with the given phases:
    cos(Σγ)·E³/(1+K³) with E the sign contrast and K the Gram decay.
    """
    if len(phases) != 3:
        raise ValueError(f"expected 3 phases, got {len(phases)}")
    e = sign_contrast(V, d, eta)
    k = gram_decay(V, d)
    return math.cos(math.fsum(phases)) * e ** 3 / (1.0 + k ** 3)


def svetlichny_ghz_closed(V: float, d: float, eta: float = 1.0) -> float:
    """Largest three-party Svetlichny value of the GHZ-type thermal state.

    Equatorial optimization leaves the phase combination at its qubit
    maximum 4√2, scaled by the thermal contrast and normalization.
    """
    e = sign_contrast(V, d, eta)
    k = gram_decay(V, d)
    return GHZ3_SVETLICHNY_MAX * e ** 3 / (1.0 + k ** 3)


def svetlichny_ghz4_closed(V: float, d: float, eta: float = 1.0) -> float:
    """Largest four-party Svetlichny value of the GHZ-type thermal state."""
    e = sign_contrast(V, d, eta)
    k = gram_decay(V, d)
    return GHZ4_SVETLICHNY_MAX * e ** 4 / (1.0 + k ** 4)


def sasa_closed(V: float, d: float, eta: float = 1.0) -> float:
    """Stabilizer-inequality value of the cluster-type thermal state.

    2E³(1+E): two three-party terms plus two four-party terms, each
    contributing one contrast factor per measured mode.
    """
    e = sign_contrast(V, d, eta)
    return 2.0 * e ** 3 * (1.0 + e)


# Prefactor of the W correlation at large displacement.  At z-axis readouts
# every branch contributes the parity of exactly one flipped mode, so the
# correlation tends to −1 while the bracket below tends to 3.
_W_PREFACTOR = -1.0 / 3.0


def w_correlation_closed(V: float, d: float, angles: Sequence[float],
                         eta: float = 1.0) -> float:
    """Large-displacement correlation of the W-type thermal state.

    ``angles`` are zx-plane measurement angles per party (0 reads out z).
    The value is c·[cosϑ₁cosϑ₂cosϑ₃ + 2cos(ϑ₁+ϑ₂+ϑ₃)]·E³ with c = −1/3;
    branch cross terms decay with displacement, so this form is asymptotic
    rather than exact.
    """
    if len(angles) != 3:
        raise ValueError(f"expected 3 angles, got {len(angles)}")
    t1, t2, t3 = angles
    bracket = math.cos(t1) * math.cos(t2) * math.cos(t3) + 2.0 * math.cos(t1 + t2 + t3)
    e = sign_contrast(V, d, eta)
    return _W_PREFACTOR * bracket * e ** 3


def compensated_displacement(d: float, V: float, eta: float) -> float:
    """Displacement restoring the ideal contrast under losses, d√(1+(Vη²)⁻¹).

    Valid in the high-temperature regime V ≫ 1.
    """
    return d * math.sqrt(1.0 + 1.0 / (V * eta * eta))
