"""The thermal state families and the per-variable structure the engine reads.

Every family is a thermal mixture of ± coherent branches: a fixed set of
branch coefficients and mode-sign patterns, with the branch amplitudes drawn
from Gaussian mixture variables.  Each variable feeds one or more modes with
a fixed scale.  Conditional schemes give every mode its own variable;
splitter-based schemes split one variable coherently across several modes,
with its center scaled up so that every output mode carries displacement d,
so schemes are compared at equal per-mode displacement.

A mode's sign in a branch labels its pair for the measurement: the branch
amplitude s·α with s = +1 is the "+" state of the pair and −α the "−"
state, whatever the sign of Re α, which a variable's Gaussian weight makes
negative at V > 1.  The engine rotates each pair as so labelled.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import require_number

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


class FamilyKind(enum.Enum):
    """The supported thermal-state construction schemes."""

    GHZ3_BEAM_SPLITTER = "ghz3-bs"
    GHZ3_CONDITIONAL = "ghz3-cond"
    GHZ3_KERR = "ghz3-kerr"
    W3 = "w3"
    GHZ4_CONDITIONAL = "ghz4-cond"
    CLUSTER4_CONDITIONAL = "cluster4-cond"
    CLUSTER4_CROSS_KERR = "cluster4-xkerr"


_GHZ3_SIGNS = ((1, 1, 1), (-1, -1, -1))
_CLUSTER_COEFFS = (0.5, 0.5, 0.5, -0.5)
_CLUSTER_SIGNS = ((1, 1, 1, 1), (1, 1, -1, -1), (-1, -1, 1, 1), (-1, -1, -1, -1))


def _per_mode(modes: int):
    """One variable per mode, centered at d with unit scale."""
    return tuple((1.0, {m: 1.0}) for m in range(modes))


# kind -> (branch coefficients, branch sign patterns, variables).  A variable
# is (center per unit displacement, {mode: amplitude scale}); its weight is
# an isotropic complex Gaussian around center·d with variance (V−1)/4 per
# real axis, a delta weight at V = 1.
_FAMILIES = {
    FamilyKind.GHZ3_CONDITIONAL: ((1.0, 1.0), _GHZ3_SIGNS, _per_mode(3)),
    FamilyKind.GHZ3_BEAM_SPLITTER: (
        (1.0, 1.0), _GHZ3_SIGNS, ((_SQRT3, dict.fromkeys(range(3), 1.0 / _SQRT3)),)),
    FamilyKind.GHZ3_KERR: (
        (1.0, 1.0j), _GHZ3_SIGNS, ((_SQRT3, dict.fromkeys(range(3), 1.0 / _SQRT3)),)),
    FamilyKind.W3: (
        (1.0, 1.0, 1.0), ((-1, 1, 1), (1, -1, 1), (1, 1, -1)),
        ((1.0, dict.fromkeys(range(3), 1.0)),)),
    FamilyKind.GHZ4_CONDITIONAL: (
        (1.0, 1.0), ((1, 1, 1, 1), (-1, -1, -1, -1)), _per_mode(4)),
    FamilyKind.CLUSTER4_CONDITIONAL: (_CLUSTER_COEFFS, _CLUSTER_SIGNS, _per_mode(4)),
    FamilyKind.CLUSTER4_CROSS_KERR: (
        _CLUSTER_COEFFS, _CLUSTER_SIGNS,
        ((_SQRT2, {0: 1.0 / _SQRT2, 1: 1.0 / _SQRT2}),
         (_SQRT2, {2: 1.0 / _SQRT2, 3: 1.0 / _SQRT2}))),
}


@dataclass(frozen=True)
class StateFamily:
    """A construction scheme together with its thermal parameters (V, d)."""

    kind: FamilyKind
    V: float
    d: float

    def __post_init__(self):
        if not isinstance(self.kind, FamilyKind):
            raise TypeError(f"kind must be a FamilyKind, got {self.kind!r}")
        require_number("V", self.V)
        require_number("d", self.d)
        if not 1.0 <= self.V < math.inf:
            raise ValueError(f"V must be finite and >= 1, got {self.V}")
        if not 0.0 <= self.d < math.inf:
            raise ValueError(f"d must be finite and >= 0, got {self.d}")

    @property
    def num_modes(self) -> int:
        return len(_FAMILIES[self.kind][1][0])


def family_structure(family: StateFamily):
    """Structural view used by the quadrature engine.

    Returns ``(coeffs, sign_patterns, variables)`` where ``variables`` is a
    tuple of ``(V, center, scales)`` and ``scales`` maps mode index to the
    scale of the variable's amplitude on that mode.
    """
    coeffs, signs, variables = _FAMILIES[family.kind]
    return (tuple(complex(c) for c in coeffs), signs,
            tuple((family.V, unit * family.d, dict(scales)) for unit, scales in variables))

