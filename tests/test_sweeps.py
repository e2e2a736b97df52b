"""Grid sweeps, violation flags, and crossing searches."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from etsbell import sweeps
from etsbell.errors import NoCrossingError
from etsbell.inequalities import (OptimizationResult, canonical_angles, evaluate_curve_with_error,
                                  evaluate_with_error, get_inequality)
from etsbell.integration import QuadratureConfig
from etsbell.oracles import svetlichny_ghz_closed
from etsbell.states import FamilyKind, StateFamily
from etsbell.sweeps import SweepPlan, crossing_displacement, run_sweep, sign_change_bracket

SV3 = get_inequality("svetlichny3")


def small_plan(**overrides):
    kwargs = dict(family=FamilyKind.GHZ3_CONDITIONAL, spec=SV3,
                  V_grid=(1.0, 5.0), d_grid=(0.0, 1.0, 3.0),
                  eta_grid=(0.5, 1.0))
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


def test_plan_validation():
    with pytest.raises(ValueError):
        small_plan(V_grid=())
    with pytest.raises(ValueError):
        small_plan(d_grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        small_plan(V_grid=(0.5,))
    with pytest.raises(ValueError):
        small_plan(eta_grid=(1.5,))
    with pytest.raises(ValueError):
        small_plan(angles="foo")
    for grid, value in (("V", math.nan), ("V", math.inf), ("d", math.nan),
                        ("d", math.inf), ("eta", math.nan)):
        with pytest.raises(ValueError, match=f"^{grid} value {value} out of range$"):
            small_plan(**{f"{grid}_grid": (value,)})
    for restarts in (0, -2):
        message = f"optimizer_restarts must be at least 1, got {restarts}"
        with pytest.raises(ValueError, match=message):
            small_plan(optimizer_restarts=restarts)


def test_sweep_rows_follow_grid_order():
    result = run_sweep(small_plan())
    assert len(result.rows) == 12
    keys = [(r.V, r.d, r.eta) for r in result.rows]
    assert keys == sorted(keys)
    assert result.plan.spec is SV3


def test_sweep_matches_closed_form():
    result = run_sweep(small_plan())
    for row in result.rows:
        want = svetlichny_ghz_closed(row.V, row.d, row.eta)
        assert row.value == pytest.approx(want, abs=1e-9), (row.V, row.d)
        assert row.violated == (row.value > SV3.lr_bound + row.err)
        assert not row.failed
        assert row.reason == ""


def test_sweep_zero_displacement_rows_are_null():
    result = run_sweep(small_plan())
    for row in result.rows:
        if row.d == 0.0:
            assert row.value == pytest.approx(0.0, abs=1e-12)
            assert not row.violated


def test_sweep_is_deterministic():
    a = run_sweep(small_plan())
    b = run_sweep(small_plan())
    assert [(r.value, r.err) for r in a.rows] == \
        [(r.value, r.err) for r in b.rows]


def test_sweep_value_grows_with_displacement():
    result = run_sweep(small_plan(V_grid=(5.0,), eta_grid=(1.0,),
                                  d_grid=(0.0, 0.5, 1.0, 2.0, 4.0)))
    values = [r.value for r in result.rows]
    assert values == sorted(values)


def test_sweep_isolates_nonconverged_rows():
    cfg = QuadratureConfig(rel_tol=1e-17)
    result = run_sweep(small_plan(V_grid=(5.0,), d_grid=(1.0,),
                                  eta_grid=(1.0,), cfg=cfg))
    row = result.rows[0]
    assert row.failed
    assert math.isnan(row.value)
    assert not row.violated
    assert row.reason.startswith("correlation refinement stalled")


def test_optimized_cells_name_their_stalled_restarts(monkeypatch):
    # a cell whose restarts all met the gradient tolerance keeps the bare
    # provenance; one with stalled restarts says how many of how many
    stalled = {1.0: 0, 5.0: 1}

    def fake_optimize_angles(spec, family, detector=None, config=None, restarts=4, seed=0):
        angles = canonical_angles(spec, family.kind).angles
        return OptimizationResult(value=0.0, angles=angles, start_index=0,
                                  restarts=restarts, stalled=stalled[family.V])

    monkeypatch.setattr(sweeps, "optimize_angles", fake_optimize_angles)
    result = run_sweep(small_plan(V_grid=(1.0, 5.0), d_grid=(1.0,), eta_grid=(1.0,),
                                  angles="optimize"))
    assert [(row.V, row.provenance) for row in result.rows] == [
        (1.0, "optimizer"), (5.0, "optimizer (1 of 4 restarts stalled)")]


def test_crossing_matches_closed_form_root():
    got = crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3,
                                V=5.0, eta=0.3)
    want = brentq(lambda d: svetlichny_ghz_closed(5.0, d, 0.3) - SV3.lr_bound,
                  0.1, 20.0)
    assert got == pytest.approx(want, abs=2e-3)


def test_crossing_is_bracketed_by_sweep():
    crossing = crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3,
                                     V=5.0, eta=0.3)
    d_grid = tuple(np.linspace(2.8, 3.4, 4))
    result = run_sweep(small_plan(V_grid=(5.0,), eta_grid=(0.3,),
                                  d_grid=d_grid))
    first = next(r for r in result.rows if r.violated)
    below = [r for r in result.rows if r.d < first.d]
    assert crossing <= first.d + 1e-9
    if below:
        assert crossing >= below[-1].d - 1e-9


def test_crossing_reports_absence():
    with pytest.raises(NoCrossingError):
        crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3,
                              V=5.0, eta=0.3, d_max=0.5)


def test_crossing_rejects_a_bad_d_max():
    for d_max in (math.nan, math.inf, -1.0, 0.0):
        with pytest.raises(ValueError, match=f"^d_max must be finite and positive, got {d_max}$"):
            crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3, V=5.0, eta=0.3,
                                  d_max=d_max)


def test_crossing_rejects_a_bad_V():
    with pytest.raises(ValueError, match=r"^V must be finite and >= 1, got -1\.0$"):
        crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3, V=-1.0, eta=0.3)


def test_crossing_refuses_a_falling_profile(monkeypatch):
    def falling(spec, curve, *args):
        return [(5.0 - 0.1 * family.d, 0.0) for family in curve]

    monkeypatch.setattr(sweeps, "evaluate_curve_with_error", falling)
    message = (r"^functional is not increasing in d on \[0, 3\]; "
               r"the ITP bracket search would be unreliable$")
    with pytest.raises(NoCrossingError, match=message):
        crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3, V=5.0, eta=0.3, d_max=3.0)


def test_state_family_rejects_non_finite_inputs():
    for V, d, message in ((math.nan, 1.0, "V must be finite and >= 1, got nan"),
                          (math.inf, 1.0, "V must be finite and >= 1, got inf"),
                          (5.0, math.nan, "d must be finite and >= 0, got nan"),
                          (5.0, math.inf, "d must be finite and >= 0, got inf")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StateFamily(FamilyKind.W3, V=V, d=d)


# Increasing functions with a known sign change c on a bracket (lo, up):
# smooth, steep, a unit step, flat just below zero then a jump, and w3's
# svetlichny3 profile at V = 10 between its first two probes, as a jump.
SYNTHETIC = {
    "linear": (lambda x: x - 0.3217, 0.0, 1.0, 0.3217),
    "steep-erf": (lambda x: math.erf(40.0 * (x - 2.2)), 0.0, 5.0, 2.2),
    "unit-step": (lambda x: 1.0 if x >= 0.6180339 else -1.0, 0.0, 1.0, 0.6180339),
    "flat-then-jump": (lambda x: 10.0 if x >= 2.5 else -1e-3, 0.0, 7.0, 2.5),
    "w3-jump": (lambda x: 0.355 if x >= 3.0 else -4.0, 0.0, 20.0 * math.sqrt(10.0) / 8.0, 3.0),
}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_sign_change_bracket_keeps_bisections_worst_case(name):
    f, lo, up, root = SYNTHETIC[name]
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    a, b = sign_change_bracket(counted, lo, up, f(lo), f(up))
    assert b - a <= 1e-3
    assert f(a) <= 0.0 < f(b)
    assert a <= root <= b
    assert len(calls) <= math.ceil(math.log2((up - lo) / 1e-3)) + 1
    assert all(lo < x < up for x in calls)


def test_narrow_crossings_take_at_most_seven_steps(monkeypatch):
    # the two crossings of the tripartite ordering check at V = 5, and the
    # returned d* is the midpoint of a sign-change bracket from the points seen
    seen, steps = [], []

    def curve_spy(spec, curve, *args):
        outcomes = evaluate_curve_with_error(spec, curve, *args)
        seen.extend((f.d, value) for f, (value, _err) in zip(curve, outcomes))
        return outcomes

    def step_spy(spec, family, *args):
        steps.append(family.d)
        value, err = evaluate_with_error(spec, family, *args)
        seen.append((family.d, value))
        return value, err

    monkeypatch.setattr(sweeps, "evaluate_curve_with_error", curve_spy)
    monkeypatch.setattr(sweeps, "evaluate_with_error", step_spy)
    for kind in (FamilyKind.GHZ3_BEAM_SPLITTER, FamilyKind.GHZ3_CONDITIONAL):
        seen.clear()
        steps.clear()
        crossing = crossing_displacement(kind, SV3, V=5.0, eta=0.3)
        assert 0 < len(steps) <= 7
        lo = max(d for d, value in seen if value <= SV3.lr_bound and d < crossing)
        up = min(d for d, value in seen if value > SV3.lr_bound and d > crossing)
        assert up - lo <= 1e-3
        assert crossing == 0.5 * (lo + up)
