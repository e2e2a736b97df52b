"""Grid sweeps, violation flags, and threshold bisection."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from etsbell.errors import NoCrossingError
from etsbell.inequalities import get_inequality
from etsbell.integration import QuadratureConfig
from etsbell.oracles import svetlichny_ghz_closed
from etsbell.states import FamilyKind
from etsbell.sweeps import SweepPlan, crossing_displacement, run_sweep

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
