"""Rotations, detector models, and the pure-state oracle's sign statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from etsbell.errors import RotationError
from etsbell.measurement import PAULI_ROTATIONS, DetectorModel, EffectiveRotation, zx_rotation
from etsbell.states import FamilyKind
from phase_space import _halfline_kernel, coherent_overlap
from pure_state_oracle import (
    BranchSuperposition,
    apply_rotation,
    cluster_branches,
    correlation,
    ghz_branches,
    joint_sign_probabilities,
    w_branches,
)

angles = hst.floats(0.0, 2.0 * math.pi, allow_nan=False)
small_amps = hst.floats(-2.5, 2.5)

_BUILDERS = {
    FamilyKind.GHZ3_CONDITIONAL: lambda d: ghz_branches((d,) * 3),
    FamilyKind.W3: w_branches,
    FamilyKind.CLUSTER4_CONDITIONAL: lambda d: cluster_branches((d,) * 4),
}


def build(kind, d):
    """The family's state at V = 1, where every mixture variable sits at d."""
    return _BUILDERS[kind](d)


@settings(max_examples=40, deadline=None)
@given(angles, angles)
def test_rotation_matrix_is_hermitian_involution(theta, gamma):
    m = np.asarray(EffectiveRotation(theta, gamma).matrix)
    assert np.allclose(m, m.conj().T, atol=1e-14)
    assert np.allclose(m @ m, np.eye(2), atol=1e-14)


def test_pauli_rotation_table():
    assert PAULI_ROTATIONS["z"].theta == pytest.approx(math.pi)
    assert PAULI_ROTATIONS["z"].phase == pytest.approx(0.0)
    assert PAULI_ROTATIONS["x"].theta == pytest.approx(math.pi / 2)
    assert PAULI_ROTATIONS["x"].phase == pytest.approx(0.0)
    assert PAULI_ROTATIONS["y"].theta == pytest.approx(math.pi / 2)
    assert PAULI_ROTATIONS["y"].phase == pytest.approx(math.pi / 2)
    # the z readout leaves branches unmixed, x mixes them evenly
    z = np.asarray(PAULI_ROTATIONS["z"].matrix)
    assert np.allclose(z, np.diag([1.0, -1.0]), atol=1e-15)
    x = np.asarray(PAULI_ROTATIONS["x"].matrix)
    assert np.allclose(np.abs(x), np.full((2, 2), math.sqrt(0.5)), atol=1e-15)


def test_zx_rotation_limits():
    assert zx_rotation(0.0).theta == pytest.approx(math.pi)
    assert zx_rotation(0.0).phase == pytest.approx(0.0)
    assert zx_rotation(math.pi / 2).theta == pytest.approx(math.pi / 2)


def test_detector_model_validation():
    with pytest.raises(ValueError):
        DetectorModel(0.0)
    with pytest.raises(ValueError):
        DetectorModel(1.2)
    with pytest.raises(ValueError):
        DetectorModel((0.5, -0.1, 0.9))
    # a bool or a string is no efficiency, alone or per mode
    for eta in (True, "0.5", (0.5, True, 1, 1)):
        with pytest.raises(TypeError, match="eta must be a real number"):
            DetectorModel(eta)
    det = DetectorModel((0.4, 0.7, 1.0))
    assert det.eta_for(1) == 0.7


def test_rotation_angles_must_be_real_numbers():
    # a bool is no angle, and a string is named by its field
    for args, field in (((True, 0.0), "theta"), (("1", 0.0), "theta"),
                        ((0.0, False), "phase"), ((0.0, "1"), "phase")):
        with pytest.raises(TypeError, match=f"^{field} must be a real number, got "):
            EffectiveRotation(*args)


def test_detector_model_rejects_an_empty_tuple():
    # it used to be accepted and fail only inside an estimate
    with pytest.raises(ValueError, match="at least one mode"):
        DetectorModel(())


@settings(max_examples=40, deadline=None)
@given(small_amps, small_amps, small_amps, small_amps,
       hst.floats(0.05, 1.0))
def test_kernel_completeness_with_inefficiency(ar, ai, br, bi, eta):
    alpha, beta = complex(ar, ai), complex(br, bi)
    total = _halfline_kernel(alpha, beta, 1, eta) + _halfline_kernel(alpha, beta, -1, eta)
    assert abs(total - coherent_overlap(alpha, beta)) <= 1e-12


def test_apply_rotation_is_involution():
    state = build(FamilyKind.GHZ3_CONDITIONAL, 1.3)
    rotations = [EffectiveRotation(0.7, 1.1)] * 3
    twice = apply_rotation(apply_rotation(state, rotations), rotations)
    p0 = joint_sign_probabilities(state)
    p1 = joint_sign_probabilities(twice)
    worst = max(abs(p0[k] - p1[k]) for k in p0)
    assert worst <= 1e-12


def test_apply_rotation_preserves_branch_count_for_readout():
    state = build(FamilyKind.GHZ3_CONDITIONAL, 2.0)
    rotated = apply_rotation(state, [PAULI_ROTATIONS["z"]] * 3)
    assert len(rotated.branches) == len(state.branches)


def test_apply_rotation_accepts_none_for_ignored_modes():
    state = build(FamilyKind.GHZ3_CONDITIONAL, 2.0)
    rotated = apply_rotation(state, [None, EffectiveRotation(0.4, 0.2), None])
    assert rotated.num_modes == 3


def test_apply_rotation_rejects_asymmetric_amplitudes():
    state = BranchSuperposition(
        num_modes=1, branches=((1.0, (1.0,)), (0.5, (2.0,))))
    with pytest.raises(RotationError):
        apply_rotation(state, [EffectiveRotation(0.3, 0.0)])


def test_probabilities_sum_to_one():
    for family, d in ((FamilyKind.GHZ3_CONDITIONAL, 0.8),
                      (FamilyKind.W3, 1.7),
                      (FamilyKind.CLUSTER4_CONDITIONAL, 1.1)):
        state = build(family, d)
        probs = joint_sign_probabilities(state, DetectorModel(0.6))
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= -1e-12 for p in probs.values())


def test_ghz_readout_splits_between_aligned_patterns():
    state = build(FamilyKind.GHZ3_CONDITIONAL, 3.0)
    rotated = apply_rotation(state, [PAULI_ROTATIONS["z"]] * 3)
    probs = joint_sign_probabilities(rotated)
    assert probs[(1, 1, 1)] == pytest.approx(0.5, abs=1e-7)
    assert probs[(-1, -1, -1)] == pytest.approx(0.5, abs=1e-7)


def test_w_and_cluster_readout_parities():
    w = apply_rotation(build(FamilyKind.W3, 4.0),
                       [PAULI_ROTATIONS["z"]] * 3)
    assert correlation(w) == pytest.approx(-1.0, abs=1e-9)
    cl = apply_rotation(build(FamilyKind.CLUSTER4_CONDITIONAL, 4.0),
                        [PAULI_ROTATIONS["z"]] * 4)
    assert correlation(cl) == pytest.approx(1.0, abs=1e-9)


def test_single_branch_correlation_factorizes():
    # a displaced product state has no interference terms, so the parity
    # average is a product of per-mode sign contrasts erf(sqrt(2) eta d)
    amps = (0.9, 1.4, 0.5)
    eta = 0.7
    state = BranchSuperposition(num_modes=3, branches=((1.0, amps),))
    want = 1.0
    for a in amps:
        want *= math.erf(math.sqrt(2.0) * eta * a)
    assert correlation(state, DetectorModel(eta)) == pytest.approx(
        want, abs=1e-12)


def test_sign_flip_covariance():
    state = BranchSuperposition(num_modes=2, branches=((1.0, (0.8, -0.3)),))
    mirrored = BranchSuperposition(num_modes=2, branches=((1.0, (-0.8, 0.3)),))
    p = joint_sign_probabilities(state)
    q = joint_sign_probabilities(mirrored)
    for pattern, value in p.items():
        flipped = tuple(-s for s in pattern)
        assert q[flipped] == pytest.approx(value, abs=1e-14)


def test_correlation_is_bounded():
    state = build(FamilyKind.W3, 0.9)
    rotated = apply_rotation(state, [EffectiveRotation(1.1, 0.4),
                                     EffectiveRotation(2.0, 5.1),
                                     EffectiveRotation(0.3, 2.2)])
    value = correlation(rotated, DetectorModel(0.8))
    assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12
