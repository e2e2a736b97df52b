"""Curves in d: every point batched along a curve keeps the bits it has alone."""

import functools
import math

import numpy as np
import pytest

from etsbell import integration, sweeps
from etsbell.errors import NonconvergenceError
from etsbell.inequalities import (INEQUALITIES, canonical_angles, evaluate_curve_with_error,
                                  evaluate_with_error)
from etsbell.integration import QuadratureConfig
from etsbell.measurement import DetectorModel, EffectiveRotation
from etsbell.states import FamilyKind, StateFamily
from etsbell.sweeps import SweepPlan, crossing_displacement, run_sweep

# One functional with stored angles per family.
FUNCTIONALS = {
    FamilyKind.GHZ3_BEAM_SPLITTER: "svetlichny3",
    FamilyKind.GHZ3_CONDITIONAL: "svetlichny3",
    FamilyKind.GHZ3_KERR: "svetlichny3",
    FamilyKind.W3: "svetlichny3",
    FamilyKind.GHZ4_CONDITIONAL: "svetlichny4",
    FamilyKind.CLUSTER4_CONDITIONAL: "wwzb4",
    FamilyKind.CLUSTER4_CROSS_KERR: "wwzb4",
}
V_GRID = (1.0, 5.0, 10.0, 100.0)
ETA_GRID = (0.3, 1.0)


def _d_grid(V):
    # d = 0, where the value vanishes, and three points on the rise
    return tuple(f * math.sqrt(V) for f in (0.0, 0.4, 1.1, 2.5))


def _random_angles(rng, spec):
    return tuple(
        tuple(EffectiveRotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
              for _ in range(count))
        for count in spec.settings_per_party)


def _alone(plan, row, config=None):
    """``row``'s point evaluated by itself at ``config`` (default: the
    engine's): its (value, err), or the reason it fails."""
    try:
        return evaluate_with_error(plan.spec, StateFamily(plan.family, row.V, row.d),
                                   row.angles_used, DetectorModel(row.eta), config)
    except NonconvergenceError as exc:
        return str(exc)


def _assert_rows_match_points(**plan):
    # each V has its own d grid, so each V is its own plan
    for V in V_GRID:
        sweep = SweepPlan(V_grid=(V,), d_grid=_d_grid(V), eta_grid=ETA_GRID, **plan)
        for row in run_sweep(sweep).rows:
            got = row.reason if row.failed else (row.value, row.err)
            assert got == _alone(sweep, row), (row.V, row.d, row.eta)


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_sweep_rows_equal_lone_points(kind):
    rng = np.random.default_rng(53)
    spec = INEQUALITIES[FUNCTIONALS[kind]]
    for angles in ("canonical", _random_angles(rng, spec)):
        _assert_rows_match_points(family=kind, spec=spec, angles=angles)


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_optimized_sweep_rows_equal_lone_points(kind):
    # the optimizer picks each (V, η) cell's angles, and the cell's curve is
    # then evaluated with them like any explicit set
    _assert_rows_match_points(family=kind, spec=INEQUALITIES[FUNCTIONALS[kind]],
                              angles="optimize")


def test_points_that_stop_at_different_levels(monkeypatch):
    # at rel_tol 1e-13 some points of a V = 5 curve stop on the ladder's
    # first pass (Hermite rules of 40 and 80 nodes) and the rest climb to
    # the second (160 nodes) as a shorter curve; at V = 8 some climb on to
    # the composite tail, the third pass, where each point is alone
    calls = []
    memo = integration._deterministic_moments

    def spy(curve, detector, rules, *layout):
        calls.append((rules, len(curve)))
        return memo(curve, detector, rules, *layout)

    monkeypatch.setattr(integration, "_deterministic_moments", spy)
    config = QuadratureConfig(rel_tol=1e-13)
    monkeypatch.setattr(sweeps, "evaluate_curve_with_error",
                        functools.partial(evaluate_curve_with_error, config=config))
    spec = INEQUALITIES["svetlichny3"]
    d_grid = tuple(np.linspace(0.2, 4.0, 12))
    for V, climbs_to in ((5.0, 1), (8.0, 2)):
        ladder = integration._ladder(integration._variable_sigma(V))
        memo.cache_clear()
        calls.clear()
        plan = SweepPlan(family=FamilyKind.GHZ3_KERR, spec=spec, V_grid=(V,), d_grid=d_grid,
                         eta_grid=(0.7,))
        result = run_sweep(plan)
        assert ((True, (40, 80)), len(d_grid)) in calls
        assert 0 < sum(size for rules, size in calls if rules == ladder[climbs_to]) < len(d_grid)
        assert all(size == 1 for (shift, _sizes), size in calls if not shift)
        for row in result.rows:
            assert not row.failed
            assert (row.value, row.err) == _alone(plan, row, config), (V, row.d)


def test_a_nonconverging_point_leaves_its_curve_unchanged(monkeypatch):
    # rel_tol 1e-16 asks for agreement to the last bits between levels:
    # some points of this curve reach it and others exhaust the ladder
    config = QuadratureConfig(rel_tol=1e-16)
    monkeypatch.setattr(sweeps, "evaluate_curve_with_error",
                        functools.partial(evaluate_curve_with_error, config=config))
    spec = INEQUALITIES["svetlichny3"]
    plan = SweepPlan(family=FamilyKind.GHZ3_KERR, spec=spec, V_grid=(2.0,),
                     d_grid=(0.0, 0.3, 0.8, 1.5, 2.5, 4.0), eta_grid=(0.6,))
    result = run_sweep(plan)
    failed = [row for row in result.rows if row.failed]
    assert failed and len(failed) < len(result.rows)
    for row in result.rows:
        if row.failed:
            assert math.isnan(row.value) and math.isnan(row.err) and not row.violated
            assert row.reason.startswith("correlation refinement stalled at ")
            assert row.reason == _alone(plan, row, config), row.d
        else:
            assert (row.value, row.err) == _alone(plan, row, config), row.d


def test_curve_points_must_share_kind_and_V():
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.GHZ3_CONDITIONAL).angles
    for curve in ([], [StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.0),
                       StateFamily(FamilyKind.GHZ3_CONDITIONAL, 10.0, 1.0)],
                  [StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.0),
                   StateFamily(FamilyKind.GHZ3_BEAM_SPLITTER, 5.0, 1.0)]):
        with pytest.raises(ValueError, match="curve"):
            evaluate_curve_with_error(spec, curve, angles)


def _point_by_point(spec, curve, angles, detector=None, config=None):
    """``evaluate_curve_with_error`` as one ``evaluate_with_error`` call per
    point: every value from its own evaluation."""
    outcomes = []
    for family in curve:
        try:
            outcomes.append(evaluate_with_error(spec, family, angles, detector, config))
        except NonconvergenceError as exc:
            outcomes.append(exc)
    return outcomes


@pytest.mark.parametrize("kind, name, eta", [
    (FamilyKind.GHZ3_BEAM_SPLITTER, "svetlichny3", 0.3),
    (FamilyKind.GHZ3_CONDITIONAL, "svetlichny3", 0.3),
    (FamilyKind.CLUSTER4_CONDITIONAL, "wwzb4", 1.0),
], ids=lambda v: getattr(v, "value", v))
def test_crossing_equals_point_by_point_search(kind, name, eta, monkeypatch):
    # the same search with its probe curve taken point by point
    spec = INEQUALITIES[name]
    integration._deterministic_moments.cache_clear()
    got = crossing_displacement(kind, spec, 5.0, eta)
    monkeypatch.setattr(sweeps, "evaluate_curve_with_error", _point_by_point)
    integration._deterministic_moments.cache_clear()
    assert crossing_displacement(kind, spec, 5.0, eta) == got


@pytest.mark.parametrize("kind", [FamilyKind.GHZ3_BEAM_SPLITTER, FamilyKind.GHZ3_CONDITIONAL],
                         ids=lambda v: v.value)
def test_a_crossing_search_builds_its_rotation_table_once(kind, monkeypatch):
    # the probe curve and every bracket step measure with the same angles,
    # so one table and one gather over the family's branch pairs serve them
    builds = []
    rotation_table = integration._rotation_table

    def spy(theta, phase, derivatives=False):
        builds.append(derivatives)
        return rotation_table(theta, phase, derivatives)

    integration._angle_pairs.cache_clear()
    monkeypatch.setattr(integration, "_rotation_table", spy)
    crossing_displacement(kind, INEQUALITIES["svetlichny3"], 5.0, 0.3)
    assert builds == [False]
    assert integration._angle_pairs.cache_info().misses == 1
