"""Analytic angle gradients and the gradient optimizer built on them."""

import math

import numpy as np
import pytest

from etsbell import integration, validation
from etsbell.errors import RotationError
from etsbell.inequalities import (
    INEQUALITIES,
    SVETLICHNY3,
    evaluate,
    evaluate_with_error,
    evaluate_with_gradient,
    optimize_angles,
)
from etsbell.integration import QuadratureConfig
from etsbell.measurement import DetectorModel, EffectiveRotation
from etsbell.states import FamilyKind, StateFamily

# Optima of the Nelder-Mead optimizer this one replaced (xatol 1e-3, fatol
# 1e-7, up to 150 iterations per parameter), printed with repr by running
# optimize_angles at git commit aa02371, the last that used it: the single
# canonical-seeded restart at the Kerr point below took 320 evaluations, and
# the two restarts of the kerr-violation-exists check (rel_tol 1e-4) took
# 1,528.  Both optima came from start 0.
NELDER_MEAD_KERR_OPTIMUM = 5.656854249492381
NELDER_MEAD_KERR_CHECK_OPTIMUM = 5.656854249492381
KERR_POINT = StateFamily(FamilyKind.GHZ3_KERR, V=5.0, d=5.0 * math.sqrt(5.0))

PAIRS = [(kind, name) for kind in FamilyKind for name, spec in INEQUALITIES.items()
         if spec.parties == StateFamily(kind, 1.0, 0.0).num_modes]


def _angle_set(spec, x):
    """The angle vector as the AngleSet that :func:`evaluate` takes."""
    rotations = iter(EffectiveRotation(float(t), float(g)) for t, g in x.reshape(-1, 2))
    return tuple(tuple(next(rotations) for _ in range(count))
                 for count in spec.settings_per_party)


def _central_differences(spec, family, x, detector, h=1e-6):
    steps = np.eye(x.size) * h
    return np.array([
        (evaluate(spec, family, _angle_set(spec, x + e), detector)
         - evaluate(spec, family, _angle_set(spec, x - e), detector)) / (2.0 * h)
        for e in steps])


def _detectors(modes):
    return (DetectorModel(1.0), DetectorModel(0.3),
            DetectorModel(tuple(np.linspace(0.5, 0.9, modes).tolist())))


@pytest.mark.parametrize("kind,name", PAIRS, ids=[f"{k.value}-{n}" for k, n in PAIRS])
def test_gradient_matches_central_differences(kind, name):
    # every (family, functional) pair, SASA's unmeasured second party
    # included, at narrow, middling and wide thermal weights
    spec = INEQUALITIES[name]
    rng = np.random.default_rng(53)
    for V in (1.0, 5.0, 100.0):
        for detector in _detectors(spec.parties):
            family = StateFamily(kind, V, 1.2)
            x = rng.uniform(0.0, 2.0 * math.pi, 2 * sum(spec.settings_per_party))
            value, gradient = evaluate_with_gradient(spec, family, x, detector)
            assert value == evaluate(spec, family, _angle_set(spec, x), detector)
            assert value == evaluate_with_error(spec, family, _angle_set(spec, x), detector)[0]
            want = _central_differences(spec, family, x, detector)
            assert np.max(np.abs(gradient - want)) <= 1e-7, (V, detector)


def test_gradient_check_catches_a_dropped_half(monkeypatch):
    # ∂A = M'·P·M + M·P·M': a table that keeps only the second half for A
    # must fail the central-difference comparison
    original = integration._pair_derivative

    def mutant(a, da):
        pair = original(a, da)
        pair[0] = a @ integration._NUMERATOR_PAIR[0] @ da
        return pair

    spec = SVETLICHNY3
    family = StateFamily(FamilyKind.GHZ3_KERR, 5.0, 1.2)
    detector = DetectorModel(0.7)
    x = np.random.default_rng(59).uniform(0.0, 2.0 * math.pi, 12)
    want = _central_differences(spec, family, x, detector)
    monkeypatch.setattr(integration, "_pair_derivative", mutant)
    _value, gradient = evaluate_with_gradient(spec, family, x, detector)
    assert np.max(np.abs(gradient - want)) > 1e-3


def test_angle_vector_is_checked_and_reduced_like_rotations():
    # phases outside [0, 2π) and signed zeros reduce to the bits that
    # EffectiveRotation stores, so the value matches evaluate exactly
    spec = SVETLICHNY3
    family = StateFamily(FamilyKind.W3, 5.0, 1.2)
    x = np.array([0.3, -0.0, -1.0, -1e-20, 7.0, 13.0, math.pi, -7.5,
                  -2.0, 2.0 * math.pi, 1e3, -1e3])
    value, _gradient = evaluate_with_gradient(spec, family, x)
    assert value == evaluate(spec, family, _angle_set(spec, x))
    for bad in (math.nan, math.inf):
        x[3] = bad
        with pytest.raises(RotationError, match="rotation angles must be finite"):
            evaluate_with_gradient(spec, family, x)
    with pytest.raises(ValueError, match="svetlichny3 takes 12 angles"):
        evaluate_with_gradient(spec, family, np.zeros(10))


def test_optimizer_stops_at_a_stationary_canonical_start():
    # the perfbench optimize point: the canonical start is already the
    # optimum, with a zero gradient; a call budget, not a timing, guards
    # against drifting back toward Nelder-Mead's hundreds of evaluations
    result = optimize_angles(SVETLICHNY3, KERR_POINT, restarts=1)
    assert result.value >= NELDER_MEAD_KERR_OPTIMUM - 1e-9
    assert result.evaluations <= 3
    assert (result.start_index, result.restarts) == (0, 1)
    assert evaluate(SVETLICHNY3, KERR_POINT, result.angles, None,
                    QuadratureConfig(rel_tol=1e-5)) == result.value


def test_kerr_check_meets_nelder_mead_within_a_call_budget(monkeypatch):
    found = []

    def recording(*args, **kwargs):
        found.append(optimize_angles(*args, **kwargs))
        return found[-1]

    monkeypatch.setattr(validation, "optimize_angles", recording)
    check = validation.check_kerr_violation()
    result, = found
    assert check.passed
    assert result.value >= NELDER_MEAD_KERR_CHECK_OPTIMUM - 1e-9
    assert result.restarts == 2
    assert result.evaluations <= 60
    assert f"{result.evaluations} evaluations over 2 restarts" in check.detail
