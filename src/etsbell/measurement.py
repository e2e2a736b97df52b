"""Local rotations and the detector model.

A measurement setting per mode is an effective two-branch rotation acting on
the ± amplitude pair of that mode, or None when a correlation term leaves
the party unmeasured.  Outcomes are the signs of x-quadrature readings,
smeared by the detector's inefficiency.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import RotationError, require_number

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EffectiveRotation:
    """Rotation R(θ,γ) on the two-branch space spanned by |α⟩, |−α⟩.

    In the (+,−) basis the matrix is
    [[sin(θ/2), e^{iγ}cos(θ/2)], [e^{−iγ}cos(θ/2), −sin(θ/2)]],
    a Hermitian involution: applying it twice restores the state.
    """

    theta: float
    phase: float = 0.0

    def __post_init__(self):
        require_number("theta", self.theta)
        require_number("phase", self.phase)
        if not (math.isfinite(self.theta) and math.isfinite(self.phase)):
            raise RotationError("rotation angles must be finite")
        object.__setattr__(self, "phase", self.phase % _TWO_PI)

    @property
    def matrix(self) -> np.ndarray:
        c = math.cos(self.theta / 2.0)
        s = math.sin(self.theta / 2.0)
        ph = cmath.exp(1j * self.phase)
        return np.array([[s, ph * c], [ph.conjugate() * c, -s]], dtype=complex)


#: Rotations reproducing the Pauli x, y and z sign readouts.
PAULI_ROTATIONS: dict[str, EffectiveRotation] = {
    "x": EffectiveRotation(math.pi / 2.0, 0.0),
    "y": EffectiveRotation(math.pi / 2.0, math.pi / 2.0),
    "z": EffectiveRotation(math.pi, 0.0),
}


def zx_rotation(angle: float) -> EffectiveRotation:
    """Rotation measuring along cos(angle)·z + sin(angle)·x in the zx plane.

    angle = 0 recovers the z readout, angle = π/2 the x readout.
    """
    return EffectiveRotation((math.pi - angle) % _TWO_PI, 0.0)


@dataclass(frozen=True)
class DetectorModel:
    """Homodyne detection efficiency, uniform or per mode, each in (0, 1]."""

    eta: float | tuple[float, ...] = 1.0

    def __post_init__(self):
        if isinstance(self.eta, tuple) and not self.eta:
            raise ValueError("per-mode detector efficiencies need at least one mode")
        values = self.eta if isinstance(self.eta, tuple) else (self.eta,)
        for e in values:
            require_number("eta", e)
            if not (0.0 < e <= 1.0):
                raise ValueError(f"detector efficiency must lie in (0, 1], got {e}")

    def eta_for(self, mode: int) -> float:
        if isinstance(self.eta, tuple):
            return self.eta[mode]
        return self.eta
