"""Grid sweeps, violation flags, and crossing searches."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from etsbell import integration, sweeps
from etsbell.errors import NoCrossingError
from etsbell.inequalities import (OptimizationResult, canonical_angles, evaluate_curve_with_error,
                                  get_inequality)
from etsbell.integration import QuadratureConfig
from etsbell.oracles import sasa_closed, svetlichny_ghz4_closed, svetlichny_ghz_closed
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
    # each used to build a plan and fail only inside run_sweep, with an
    # AttributeError or a TypeError that named no field (True ran as 1 restart)
    angles = canonical_angles(SV3, FamilyKind.GHZ3_CONDITIONAL).angles
    numbers = tuple(tuple(0.5 for _rotation in party) for party in angles)
    cases = [
        (dict(family="ghz3-cond"), TypeError,
         "family must be of type FamilyKind, got 'ghz3-cond'"),
        (dict(spec="svetlichny3"), TypeError,
         "spec must be of type InequalitySpec, got 'svetlichny3'"),
        (dict(angles="optimize", cfg=None), TypeError,
         "cfg must be of type QuadratureConfig, got None"),
        (dict(angles="optimize", optimizer_restarts=2.5), TypeError,
         "optimizer_restarts must be an integer, got 2.5"),
        (dict(angles="optimize", optimizer_restarts=True), TypeError,
         "optimizer_restarts must be an integer, got True"),
        (dict(angles=numbers), TypeError,
         "party 0 setting 0 must be an EffectiveRotation, got 0.5"),
        (dict(angles=angles[:2] + (angles[2][:1],)), ValueError,
         "party 2 angle set lacks setting 1"),
    ]
    for overrides, error, message in cases:
        with pytest.raises(error, match=f"^{message}$"):
            small_plan(**overrides)


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

    def fake_optimize_angles(spec, family, detector=None, config=None, restarts=4):
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
    # True used to search [0, 1], and "3" to fail on a comparison
    for d_max in (True, "3"):
        with pytest.raises(TypeError, match=f"^d_max must be a real number, got {d_max!r}$"):
            crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3, V=5.0, eta=0.3,
                                  d_max=d_max)


def test_crossing_rejects_a_bad_V():
    with pytest.raises(ValueError, match=r"^V must be finite and >= 1, got -1\.0$"):
        crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3, V=-1.0, eta=0.3)


def test_crossing_rejects_angles_that_are_not_rotations():
    angles = canonical_angles(SV3, FamilyKind.GHZ3_CONDITIONAL).angles
    numbers = angles[:2] + ((0.1, angles[2][1]),)
    with pytest.raises(TypeError, match="^party 2 setting 0 must be an EffectiveRotation, "
                                        "got 0.1$"):
        crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, SV3, V=5.0, eta=0.3, angles=numbers)


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
    # in single ITP steps and in rounds of four points then pairs, every
    # point lies strictly inside the bracket its round narrows
    f, lo, up, root = SYNTHETIC[name]
    for round_points in (1, 4):
        rounds = []
        below, above = lo, up

        def counted(xs):
            nonlocal below, above
            assert list(xs) == sorted(xs)
            assert all(below < x < above for x in xs)
            rounds.append(xs)
            values = [f(x) for x in xs]
            below = max([below] + [x for x, fx in zip(xs, values) if fx <= 0.0])
            above = min([above] + [x for x, fx in zip(xs, values) if fx > 0.0])
            return values

        a, b = sign_change_bracket(counted, lo, up, f(lo), f(up), round_points=round_points)
        assert b - a <= 1e-3
        assert f(a) <= 0.0 < f(b)
        assert a <= root <= b
        assert (a, b) == (below, above)
        assert len(rounds) <= math.ceil(math.log2((up - lo) / 1e-3)) + 1
        assert all(len(xs) == 1 for xs in rounds) == (round_points == 1)


@pytest.mark.parametrize("args, kwargs, message", [
    ((0.0, 1.0, -1.0, 1.0), dict(round_points=0), "round_points must be at least 1, got 0"),
    ((0.0, 1.0, -1.0, 1.0), dict(width=0.0), "width must be finite and positive, got 0.0"),
    ((0.0, 1.0, -1.0, 1.0), dict(width=-1e-3), "width must be finite and positive"),
    ((0.0, 1.0, -1.0, 1.0), dict(width=math.inf), "width must be finite and positive"),
    ((0.0, 1.0, -1.0, 1.0), dict(width=math.nan), "width must be finite and positive"),
    ((1.0, 1.0, -1.0, 1.0), {}, r"lo < up, got \[1.0, 1.0\]"),
    ((1.0, 0.0, -1.0, 1.0), {}, r"lo < up, got \[1.0, 0.0\]"),
    ((0.0, math.inf, -1.0, 1.0), {}, r"finite lo < up, got \[0.0, inf\]"),
    ((0.0, 1.0, 0.2, 1.0), {}, "f_lo <= 0 < f_up, got 0.2 and 1.0"),
    ((0.0, 1.0, -1.0, 0.0), {}, "f_lo <= 0 < f_up, got -1.0 and 0.0"),
    ((0.0, 1.0, math.nan, 1.0), {}, "f_lo <= 0 < f_up, got nan and 1.0"),
])
def test_sign_change_bracket_rejects_bad_input_before_any_round(args, kwargs, message):
    # round_points=0 used to loop for ever, and f_lo = 0.2 to return a
    # bracket whose lower end does not keep its sign
    def never(xs):
        raise AssertionError("f was called")

    with pytest.raises(ValueError, match=message):
        sign_change_bracket(never, *args, **kwargs)


@pytest.mark.parametrize("kwargs, message", [
    (dict(round_points=True), "round_points must be an integer, got True"),
    (dict(round_points=2.5), "round_points must be an integer, got 2.5"),
    (dict(round_points=4.0), "round_points must be an integer, got 4.0"),
    (dict(width=True), "width must be a real number, got True"),
    (dict(width="0.1"), "width must be a real number, got '0.1'"),
])
def test_sign_change_bracket_rejects_a_knob_that_is_no_number(kwargs, message):
    # round_points=True used to run as 1 and width=True to return the
    # bracket unsearched; 2.5, 4.0 and "0.1" failed with Python's own errors
    def never(xs):
        raise AssertionError("f was called")

    with pytest.raises(TypeError, match=f"^{message}$"):
        sign_change_bracket(never, 0.0, 1.0, -1.0, 1.0, **kwargs)


def test_sign_change_bracket_accepts_a_root_at_its_lower_end():
    # f_lo = 0 is inside the terms: the root itself may be the lower end
    a, b = sign_change_bracket(lambda xs: [x - 0.25 for x in xs], 0.25, 1.0, 0.0, 0.75)
    assert a == 0.25 and b - a <= 1e-3


def _curve_spy(seen, rounds):
    """``evaluate_curve_with_error`` that records every (d, value) it
    returns in ``seen`` and each call's displacements in ``rounds``."""
    def spy(spec, curve, *args):
        outcomes = evaluate_curve_with_error(spec, curve, *args)
        rounds.append([f.d for f in curve])
        seen.extend((f.d, value) for f, (value, _err) in zip(curve, outcomes))
        return outcomes
    return spy


def test_narrow_crossings_take_at_most_three_rounds(monkeypatch):
    # the two crossings of the tripartite ordering check at V = 5: after the
    # probe curve, at most three curve calls, and the returned d* is the
    # midpoint of a sign-change bracket from the points seen
    seen, rounds = [], []
    monkeypatch.setattr(sweeps, "evaluate_curve_with_error", _curve_spy(seen, rounds))
    for kind in (FamilyKind.GHZ3_BEAM_SPLITTER, FamilyKind.GHZ3_CONDITIONAL):
        seen.clear()
        rounds.clear()
        crossing = crossing_displacement(kind, SV3, V=5.0, eta=0.3)
        assert len(rounds[0]) == 9
        assert 0 < len(rounds) - 1 <= 3
        lo = max(d for d, value in seen if value <= SV3.lr_bound and d < crossing)
        up = min(d for d, value in seen if value > SV3.lr_bound and d > crossing)
        assert up - lo <= 1e-3
        assert crossing == 0.5 * (lo + up)


@pytest.mark.parametrize("kind, V, eta, passes", [
    (FamilyKind.GHZ3_BEAM_SPLITTER, 20.0, 0.7, 15),
    (FamilyKind.GHZ3_CONDITIONAL, 100.0, 0.8, 16),
], ids=["ghz3-bs-V20", "ghz3-cond-V100"])
def test_wide_crossings_take_single_point_steps(kind, V, eta, passes, monkeypatch):
    # on the composite rule (σ > 1.55) every point is an engine pass of its
    # own, so each round is one ITP step and the search makes no more passes
    # than a search of single-point steps
    seen, rounds, calls = [], [], []
    engine_pass = integration._engine_pass

    def pass_spy(*args):
        calls.append(1)
        return engine_pass(*args)

    integration._deterministic_moments.cache_clear()
    monkeypatch.setattr(sweeps, "evaluate_curve_with_error", _curve_spy(seen, rounds))
    monkeypatch.setattr(integration, "_engine_pass", pass_spy)
    crossing_displacement(kind, SV3, V=V, eta=eta)
    assert not integration.curve_shares_pass(V)
    assert all(len(ds) == 1 for ds in rounds[1:])
    assert len(calls) <= passes


@pytest.mark.parametrize("kind, name, closed", [
    (FamilyKind.GHZ3_CONDITIONAL, "svetlichny3", svetlichny_ghz_closed),
    (FamilyKind.GHZ4_CONDITIONAL, "svetlichny4", svetlichny_ghz4_closed),
    (FamilyKind.CLUSTER4_CONDITIONAL, "sasa", sasa_closed),
], ids=["ghz3-cond", "ghz4-cond", "cluster4-cond-sasa"])
def test_crossing_matches_closed_form_root_in_both_round_regimes(kind, name, closed):
    # V = 1 (the delta rule), shared passes up to V = 10 and single-point
    # steps on the composite rule beyond, out to the large-V tail where
    # every pass of a search shares its y moments
    spec = get_inequality(name)
    for V in (1.0, 2.0, 5.0, 10.0, 100.0, 1e4, 1e5, 1e6):
        for eta in (0.5, 0.7, 1.0):
            got = crossing_displacement(kind, spec, V=V, eta=eta)
            want = brentq(lambda d: closed(V, d, eta) - spec.lr_bound,
                          1e-9, 20.0 * math.sqrt(V), xtol=1e-12)
            assert got == pytest.approx(want, abs=1e-3), (V, eta)


@pytest.mark.parametrize("kind", [FamilyKind.GHZ3_BEAM_SPLITTER, FamilyKind.GHZ3_KERR,
                                  FamilyKind.W3], ids=lambda kind: kind.value)
def test_scaled_crossings_settle_decade_by_decade(kind):
    # u = d*·η/√(1 + η²(V − 1)) scales the crossing by the argument of the
    # sign contrast; on the large-V tail, which the composite rule alone
    # computes, u moves one way with V and each decade moves it less than
    # half as far as the decade before (about a tenth, measured)
    for eta in (0.5, 1.0):
        us = [crossing_displacement(kind, SV3, V=V, eta=eta) * eta
              / math.sqrt(1.0 + eta * eta * (V - 1.0)) for V in 10.0 ** np.arange(1, 7)]
        steps = np.diff(us)
        assert (np.sign(steps) == np.sign(steps[0])).all(), (eta, us)
        assert (np.abs(steps[1:]) < 0.5 * np.abs(steps[:-1])).all(), (eta, us)
