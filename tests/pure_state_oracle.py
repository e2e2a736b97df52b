"""Pure-state branch model: an independent oracle for the correlation engine.

A multimode entangled coherent state is stored as a short list of branches,
each a complex coefficient and one amplitude per mode.  Rotations act on the
± amplitude lattice branch by branch, and sign-pattern probabilities come
from the Faddeeva half-line kernels of ``phase_space``, one branch pair at a
time.  Nothing here goes through the engine's quadrature or its
family table, so at V = 1, where every mixture variable sits at its center,
agreement with the engine is a cross-check of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from etsbell.errors import EtsError, RotationError
from etsbell.measurement import DetectorModel, EffectiveRotation
from phase_space import (AMP_MAX, ComplexAmplitude, HalfLineSign, _halfline_kernel,
                         coherent_overlap)

SignPattern = tuple[HalfLineSign, ...]


class BranchStructureError(EtsError, ValueError):
    """A branch superposition violates its structural invariants."""


class GramNormError(EtsError, ValueError):
    """The Gram-matrix norm of a branch superposition is not strictly positive."""


@dataclass(frozen=True)
class BranchSuperposition:
    """A pure multimode state written as Σ_i c_i |amps_i⟩.

    Branch amplitude vectors all have length ``num_modes``.  The list is kept
    unnormalized; physical probabilities divide by the Gram norm at evaluation
    time.
    """

    num_modes: int
    branches: tuple[tuple[complex, tuple[ComplexAmplitude, ...]], ...]

    def __post_init__(self):
        if not self.branches:
            raise BranchStructureError("a branch superposition needs at least one branch")
        for coeff, amps in self.branches:
            if len(amps) != self.num_modes:
                raise BranchStructureError(
                    f"branch has {len(amps)} amplitudes, expected {self.num_modes}")
            for a in amps:
                a = complex(a)
                if not (math.isfinite(a.real) and math.isfinite(a.imag)) or abs(a) > AMP_MAX:
                    raise BranchStructureError(f"branch amplitude {a!r} out of range")

    def gram_norm(self) -> float:
        """Physical squared norm Σ_ij c_i·conj(c_j)·Π_m ⟨amps_j^m|amps_i^m⟩.

        Raises :class:`GramNormError` unless the result is strictly positive.
        """
        total = 0.0 + 0.0j
        for c_i, amps_i in self.branches:
            for c_j, amps_j in self.branches:
                prod = 1.0 + 0.0j
                for a_i, a_j in zip(amps_i, amps_j):
                    prod *= coherent_overlap(a_i, a_j)
                total += c_i * complex(c_j).conjugate() * prod
        norm = total.real
        if norm <= 0.0:
            raise GramNormError(f"Gram norm {norm:.3g} is not strictly positive")
        return norm


def ghz_branches(amps: Sequence[ComplexAmplitude]) -> BranchSuperposition:
    """GHZ-type superposition |amps⟩ + |−amps⟩ for three or four modes."""
    amps = tuple(complex(a) for a in amps)
    if len(amps) not in (3, 4):
        raise BranchStructureError(f"GHZ construction takes 3 or 4 amplitudes, got {len(amps)}")
    return BranchSuperposition(
        num_modes=len(amps),
        branches=(
            (1.0 + 0.0j, amps),
            (1.0 + 0.0j, tuple(-a for a in amps)),
        ),
    )


def w_branches(amp: ComplexAmplitude) -> BranchSuperposition:
    """W-type superposition with one sign-flipped mode per branch.

    All three modes share the magnitude of a single amplitude:
    |−α,α,α⟩ + |α,−α,α⟩ + |α,α,−α⟩ with equal unit coefficients.
    """
    a = complex(amp)
    return BranchSuperposition(
        num_modes=3,
        branches=(
            (1.0 + 0.0j, (-a, a, a)),
            (1.0 + 0.0j, (a, -a, a)),
            (1.0 + 0.0j, (a, a, -a)),
        ),
    )


def cluster_branches(amps: Sequence[ComplexAmplitude]) -> BranchSuperposition:
    """Linear-cluster superposition of four modes.

    ½(|α,β,γ,δ⟩ + |α,β,−γ,−δ⟩ + |−α,−β,γ,δ⟩ − |−α,−β,−γ,−δ⟩).
    """
    amps = tuple(complex(a) for a in amps)
    if len(amps) != 4:
        raise BranchStructureError(f"cluster construction takes 4 amplitudes, got {len(amps)}")
    a, b, g, d = amps
    return BranchSuperposition(
        num_modes=4,
        branches=(
            (0.5 + 0.0j, (a, b, g, d)),
            (0.5 + 0.0j, (a, b, -g, -d)),
            (0.5 + 0.0j, (-a, -b, g, d)),
            (-0.5 + 0.0j, (-a, -b, -g, -d)),
        ),
    )


def _infer_sign_lattice(state: BranchSuperposition):
    """Express branch amplitudes as signs on a per-mode ± base amplitude.

    Returns (bases, sign_rows).  Raises RotationError when some mode's
    amplitudes do not form a ±pair around a common value.
    """
    n = state.num_modes
    bases: list[complex] = []
    sign_rows = [[0] * n for _ in state.branches]
    for m in range(n):
        column = [complex(amps[m]) for _c, amps in state.branches]
        base = 0.0 + 0.0j
        for v in column:
            if abs(v) > 1e-12:
                base = v
                break
        # The ± convention must not depend on branch ordering, or composing
        # rotations would silently swap the pair; pick the representative
        # with positive real part (positive imaginary on the boundary).
        if base.real < -1e-12 * abs(base) or (
                abs(base.real) <= 1e-12 * abs(base) and base.imag < 0.0):
            base = -base
        tol = 1e-9 * max(1.0, abs(base))
        for row, v in zip(sign_rows, column):
            if abs(v - base) <= tol:
                row[m] = 1
            elif abs(v + base) <= tol:
                row[m] = -1
            else:
                raise RotationError(
                    f"mode {m} amplitudes are not a ± pair: {v!r} vs base {base!r}")
        bases.append(base)
    return bases, [tuple(r) for r in sign_rows]


def apply_rotation(
    state: BranchSuperposition,
    rotations: Sequence[EffectiveRotation | None],
) -> BranchSuperposition:
    """Apply per-mode effective rotations to a ±lattice superposition.

    Entries set to None leave the corresponding mode untouched.  Branches
    produced with coinciding amplitude patterns are merged.
    """
    if len(rotations) != state.num_modes:
        raise RotationError(
            f"got {len(rotations)} rotations for {state.num_modes} modes")
    bases, sign_rows = _infer_sign_lattice(state)
    matrices = [r.matrix if r is not None else None for r in rotations]

    merged: dict[tuple[int, ...], complex] = {}
    for (coeff, _amps), signs in zip(state.branches, sign_rows):
        partial: dict[tuple[int, ...], complex] = {(): complex(coeff)}
        for m, s in enumerate(signs):
            mat = matrices[m]
            nxt: dict[tuple[int, ...], complex] = {}
            if mat is None:
                for key, c in partial.items():
                    nxt[key + (s,)] = nxt.get(key + (s,), 0.0) + c
            else:
                col = (1 - s) // 2
                for out_sign, row_idx in ((1, 0), (-1, 1)):
                    w = mat[row_idx, col]
                    if w == 0.0:
                        continue
                    for key, c in partial.items():
                        k = key + (out_sign,)
                        nxt[k] = nxt.get(k, 0.0) + c * w
            partial = nxt
        for key, c in partial.items():
            merged[key] = merged.get(key, 0.0) + c

    peak = max(abs(c) for c in merged.values()) if merged else 0.0
    branches = tuple(
        (c, tuple(s * b for s, b in zip(key, bases)))
        for key, c in sorted(merged.items())
        if abs(c) > 1e-14 * max(peak, 1.0)
    )
    if not branches:
        raise RotationError("rotation annihilated every branch")
    return BranchSuperposition(num_modes=state.num_modes, branches=branches)


def joint_sign_probabilities(
    state: BranchSuperposition,
    detector: DetectorModel | None = None,
) -> dict[SignPattern, float]:
    """Joint probabilities of all sign-of-x outcome patterns.

    Probabilities are normalized by the state's trace under the same detector
    model, so the returned values sum to one.
    """
    detector = detector or DetectorModel()
    n = state.num_modes

    # Per mode and branch pair, both half-line kernels plus their sum.
    kernels: list[dict[tuple[int, int], tuple[complex, complex]]] = []
    for m in range(n):
        eta = detector.eta_for(m)
        per_mode: dict[tuple[int, int], tuple[complex, complex]] = {}
        for i, (_ci, amps_i) in enumerate(state.branches):
            for j, (_cj, amps_j) in enumerate(state.branches):
                plus = _halfline_kernel(amps_i[m], amps_j[m], 1, eta)
                minus = _halfline_kernel(amps_i[m], amps_j[m], -1, eta)
                per_mode[(i, j)] = (plus, minus)
        kernels.append(per_mode)

    raw: dict[SignPattern, float] = {}
    total = 0.0
    for pattern_bits in range(2 ** n):
        pattern = tuple(
            HalfLineSign.PLUS if (pattern_bits >> m) & 1 == 0 else HalfLineSign.MINUS
            for m in range(n)
        )
        acc = 0.0 + 0.0j
        for i, (c_i, _amps_i) in enumerate(state.branches):
            for j, (c_j, _amps_j) in enumerate(state.branches):
                prod = c_i * complex(c_j).conjugate()
                for m, s in enumerate(pattern):
                    plus, minus = kernels[m][(i, j)]
                    prod *= plus if s is HalfLineSign.PLUS else minus
                acc += prod
        raw[pattern] = acc.real
        total += acc.real

    if total <= 0.0:
        raise GramNormError(f"outcome trace {total:.3g} is not strictly positive")
    return {pattern: p / total for pattern, p in raw.items()}


def correlation(
    state: BranchSuperposition,
    detector: DetectorModel | None = None,
) -> float:
    """Expectation of the product of outcome signs over all modes."""
    probs = joint_sign_probabilities(state, detector)
    value = 0.0
    for pattern, p in probs.items():
        parity = 1
        for s in pattern:
            parity *= int(s)
        value += parity * p
    return value
