"""Closed forms that only the tests read: the qubit-GHZ correlation, and the
W state's large-displacement correlation and zx-plane Svetlichny maximum."""

from __future__ import annotations

import math
from typing import Sequence

from etsbell.oracles import sign_contrast

#: Largest Svetlichny value reachable with zx-plane settings on the W state.
W_SVETLICHNY_MAX = 16.0 * math.sqrt(6.0) / 9.0

# Prefactor of the W correlation at large displacement.  At z-axis readouts
# every branch contributes the parity of exactly one flipped mode, so the
# correlation tends to −1 while the bracket below tends to 3.
_W_PREFACTOR = -1.0 / 3.0


def spin_ghz_correlation(*phases: float) -> float:
    """Equatorial qubit-GHZ correlation cos(Σ phases)."""
    return math.cos(math.fsum(phases))


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
