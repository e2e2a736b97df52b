"""Grid sweeps of Bell functionals over (V, d, η) and crossing searches.

Each (V, η) cell of a grid is evaluated as one curve in d against the
immutable plan (see :func:`etsbell.integration.estimate_curve`), so a sweep
is a pure function of its plan and every row carries the bits its point has
alone.  A point that fails to converge is recorded and skipped, never fatal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import NoCrossingError, NonconvergenceError, require_number
# perfbench wraps evaluate_with_error by its name here.
from .inequalities import (AngleSet, InequalitySpec, canonical_angles,  # noqa: F401
                           checked_rotations, evaluate_curve_with_error, evaluate_with_error,
                           optimize_angles)
from .integration import curve_shares_pass, point_result
from .measurement import DetectorModel
from .states import FamilyKind, StateFamily


def _validated_grid(name: str, values: Sequence[float], lower: float,
                    upper: float | None = None) -> tuple[float, ...]:
    grid = tuple(float(v) for v in values)
    if not grid:
        raise ValueError(f"{name} grid must be nonempty")
    for v in grid:
        if not lower <= v < math.inf or (upper is not None and v > upper):
            raise ValueError(f"{name} value {v} out of range")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} grid must be strictly increasing")
    return grid


@dataclass(frozen=True)
class SweepPlan:
    """A functional, a family and the grids to scan it over."""

    family: FamilyKind
    spec: InequalitySpec
    V_grid: tuple[float, ...]
    d_grid: tuple[float, ...]
    eta_grid: tuple[float, ...] = (1.0,)
    angles: AngleSet | str = "canonical"

    def __post_init__(self):
        for name, kind in (("family", FamilyKind), ("spec", InequalitySpec)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise TypeError(f"{name} must be of type {kind.__name__}, got {value!r}")
        object.__setattr__(self, "V_grid", _validated_grid("V", self.V_grid, 1.0))
        object.__setattr__(self, "d_grid", _validated_grid("d", self.d_grid, 0.0))
        object.__setattr__(self, "eta_grid", _validated_grid("eta", self.eta_grid, 0.0, 1.0))
        if any(eta <= 0.0 for eta in self.eta_grid):
            raise ValueError("eta values must be positive")
        if isinstance(self.angles, str) and self.angles not in ("canonical", "optimize"):
            raise ValueError(
                f"angles must be an angle set, 'canonical' or 'optimize', got {self.angles!r}")
        if not isinstance(self.angles, str):
            checked_rotations(self.spec, self.angles)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: the functional value, its error and the verdict.

    ``reason`` says why a failed point failed and is empty otherwise.
    """

    V: float
    d: float
    eta: float
    value: float
    err: float
    violated: bool
    failed: bool
    angles_used: AngleSet
    provenance: str
    reason: str = ""


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]


def _resolve_angles(plan: SweepPlan) -> dict[tuple[float, float], tuple[AngleSet, str]]:
    """Angle set per (V, eta) cell.

    Canonical and explicit sets are shared across the grid.  Optimization runs
    once per (V, eta), with four restarts, at the largest displacement of the
    plan, where the functional sits on its plateau, and the result is reused
    along d.  The optimizer integrates at its own looser default tolerance; a
    cell whose restarts stalled says how many in its provenance.
    """
    if not isinstance(plan.angles, str):
        shared = (tuple(tuple(p) for p in plan.angles), "explicit")
        return {(V, eta): shared for V in plan.V_grid for eta in plan.eta_grid}
    if plan.angles == "canonical":
        stored = canonical_angles(plan.spec, plan.family)
        shared = (stored.angles, stored.provenance)
        return {(V, eta): shared for V in plan.V_grid for eta in plan.eta_grid}

    resolved = {}
    d_ref = plan.d_grid[-1]
    for V in plan.V_grid:
        for eta in plan.eta_grid:
            found = optimize_angles(
                plan.spec, StateFamily(plan.family, V=V, d=d_ref),
                detector=DetectorModel(eta), restarts=4)
            provenance = "optimizer"
            if found.stalled:
                provenance += f" ({found.stalled} of {found.restarts} restarts stalled)"
            resolved[(V, eta)] = (found.angles, provenance)
    return resolved


def run_sweep(plan: SweepPlan) -> SweepResult:
    """Evaluate the plan's functional at every grid point, at the engine's
    default tolerance (:class:`etsbell.integration.QuadratureConfig`).

    Each (V, η) cell is one curve: its points share the angles and the
    detector and differ only in d, so each engine pass
    serves all of them while they sit on a shift rule (every point alone on
    the composite rule); see :mod:`etsbell.integration` for the passes.
    Rows come back ordered lexicographically by (V, d, eta).  Nonconvergent
    points carry NaN values, the failed flag and the error message as their
    reason; every other row is exact to its error estimate and marks
    violation only when the value clears the local bound by more than that
    error.
    """
    angle_map = _resolve_angles(plan)
    rows = {}
    for V in plan.V_grid:
        for eta in plan.eta_grid:
            angles, provenance = angle_map[(V, eta)]
            curve = [StateFamily(plan.family, V=V, d=d) for d in plan.d_grid]
            outcomes = evaluate_curve_with_error(plan.spec, curve, angles, DetectorModel(eta))
            for d, outcome in zip(plan.d_grid, outcomes):
                if isinstance(outcome, NonconvergenceError):
                    row = SweepRow(V=V, d=d, eta=eta, value=math.nan, err=math.nan,
                                   violated=False, failed=True, angles_used=angles,
                                   provenance=provenance, reason=str(outcome))
                else:
                    value, err = outcome
                    row = SweepRow(V=V, d=d, eta=eta, value=value, err=err,
                                   violated=value > plan.spec.lr_bound + err, failed=False,
                                   angles_used=angles, provenance=provenance)
                rows[(V, d, eta)] = row
    return SweepResult(rows=tuple(
        rows[(V, d, eta)] for V in plan.V_grid for d in plan.d_grid for eta in plan.eta_grid))


def _itp_point(lo: float, up: float, f_lo: float, f_up: float, kappa: float,
               budget: float) -> float:
    """One ITP step's point: regula falsi truncated toward the midpoint by
    κ₁·(up − lo)², then projected so the next bracket fits ``budget``."""
    mid = 0.5 * (lo + up)
    falsi = (f_up * lo - f_lo * up) / (f_up - f_lo)
    toward = math.copysign(1.0, mid - falsi)
    shift = kappa * (up - lo) ** 2
    x = falsi + toward * shift if shift <= abs(mid - falsi) else mid
    radius = budget - 0.5 * (up - lo)
    if abs(x - mid) > radius:
        x = mid - toward * radius
    return x


def _pair_around_root(seen: list, lo: float, up: float, budget: float,
                      width: float) -> tuple[float, float]:
    """Two points 0.9·``width`` apart around the root in the bracket of the
    cubic through the four evaluated points nearest it, shifted as little as
    needed to lie strictly inside the bracket and to leave every gap within
    ``budget``."""
    near = sorted(seen, key=lambda point: max(lo - point[0], point[0] - up))[:4]
    xs = [x for x, _fx in near]
    coeffs = [fx for _x, fx in near]
    # Newton's divided differences; the bracket's ends are among the nodes,
    # so the cubic changes sign on it
    for j in range(1, len(xs)):
        for i in range(len(xs) - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])

    def cubic(t: float) -> float:
        value = coeffs[-1]
        for c, x in zip(coeffs[-2::-1], xs[-2::-1]):
            value = value * (t - x) + c
        return value

    a, b = lo, up
    while b - a > 0.01 * width:
        m = 0.5 * (a + b)
        if cubic(m) > 0.0:
            b = m
        else:
            a = m
    half = 0.45 * width
    low = max(lo + 0.5 * width, up - budget - half)
    high = min(up - 0.5 * width, lo + budget + half)
    centre = min(max(0.5 * (a + b), low), high)
    return centre - half, centre + half


def sign_change_bracket(f: Callable[[tuple[float, ...]], Sequence[float]], lo: float,
                        up: float, f_lo: float, f_up: float, width: float = 1e-3,
                        round_points: int = 1) -> tuple[float, float]:
    """Narrow ``[lo, up]``, where ``f_lo <= 0 < f_up``, to a bracket at most
    ``width`` wide whose ends keep those signs.

    The search goes in rounds; a round is one call of ``f`` on a tuple of
    increasing points strictly inside the bracket, which returns their
    values.  With ``round_points`` = 1 a round is one ITP step (Oliveira &
    Takahashi, ACM TOMS 47(1), 2020) with κ₁ = 0.5/(up − lo), κ₂ = 2 and
    n₀ = 1.  With more, the first round spaces ``round_points`` points evenly
    across the bracket, and each later round places two points 0.9·``width``
    apart around the root of the cubic through the four evaluated points
    nearest the bracket, so a smooth profile closes on the pair.  Every
    round leaves a bracket within ITP's budget, so there are at most
    ⌈log₂((up − lo)/width)⌉ + 1 rounds, bisection's count plus one, and only
    a few on a smooth profile.  Raises :class:`TypeError` for an end, an
    end's value or a knob that is no number of its kind (a bool is none) and
    :class:`ValueError` for ends or knobs that break those terms, before any
    call of ``f``.
    """
    require_number("round_points", round_points, numbers.Integral)
    for name, value in (("width", width), ("lo", lo), ("up", up), ("f_lo", f_lo), ("f_up", f_up)):
        require_number(name, value)
    if round_points < 1:
        raise ValueError(f"round_points must be at least 1, got {round_points}")
    if not 0.0 < width < math.inf:
        raise ValueError(f"width must be finite and positive, got {width}")
    if not -math.inf < lo < up < math.inf:
        raise ValueError(f"the bracket needs finite lo < up, got [{lo}, {up}]")
    if not f_lo <= 0.0 < f_up:
        raise ValueError(f"the ends need f_lo <= 0 < f_up, got {f_lo} and {f_up}")
    # each round's bracket fits in budget, 1% under width so rounding costs no round
    budget = 0.99 * width * 2.0 ** math.ceil(math.log2((up - lo) / width))
    kappa = 0.5 / (up - lo)
    seen = [(lo, f_lo), (up, f_up)]
    while up - lo > width:
        if round_points == 1:
            points = (_itp_point(lo, up, f_lo, f_up, kappa, budget),)
        elif len(seen) == 2:
            points = tuple(lo + (up - lo) * j / (round_points + 1)
                           for j in range(1, round_points + 1))
        else:
            points = _pair_around_root(seen, lo, up, budget, width)
        budget *= 0.5
        values = f(points)
        seen.extend(zip(points, values))
        for x, fx in zip(points, values):
            if fx > 0.0:
                up, f_up = x, fx
                break
            lo, f_lo = x, fx
    return lo, up


def crossing_displacement(
    family: FamilyKind,
    spec: InequalitySpec,
    V: float,
    eta: float,
    angles: AngleSet | str = "canonical",
) -> float:
    """Smallest displacement at which the functional reaches its local bound.

    Every value is taken at the engine's default tolerance.  A profile of
    nine probes on d ∈ [0, 20√V] must increase with d; the two probes
    around the first one above the bound then go to
    :func:`sign_change_bracket`, and the midpoint of its final bracket, at
    most 10⁻³ wide, is returned.  A point counts as above the bound when
    ``value > lr_bound``; a sweep row is ``violated`` only when
    ``value > lr_bound + err``.  The probes are one curve (see
    :func:`run_sweep`), and so is each round of the search, so every value
    carries the bits it has alone.  While the points of a curve share an
    engine pass (σ ≤ 1.55, V ≤ 10.61; see
    :func:`etsbell.integration.curve_shares_pass`) a round holds four
    points, then two, and a crossing takes about three rounds; on the
    composite rule each point costs a pass of its own, so a round is one
    ITP step.  Raises :class:`NoCrossingError` when the bound is never
    reached on that interval, and the first :class:`NonconvergenceError` in
    d order of the probes or of a round's points if one does not converge.
    """
    if isinstance(angles, str):
        if angles != "canonical":
            raise ValueError("crossing search supports explicit or canonical angles")
        angles = canonical_angles(spec, family).angles
    detector = DetectorModel(eta)
    # The interval takes the square root of V, so V is checked first.
    StateFamily(family, V=V, d=0.0)
    hi = 20.0 * math.sqrt(V)
    probes = [hi * k / 8.0 for k in range(9)]
    profile = evaluate_curve_with_error(
        spec, [StateFamily(family, V=V, d=d) for d in probes], angles, detector)
    sampled = [point_result(outcome) for outcome in profile]
    for (va, ea), (vb, eb) in zip(sampled, sampled[1:]):
        if vb < va - 3.0 * (ea + eb) - 1e-9:
            raise NoCrossingError(
                f"functional is not increasing in d on [0, {hi:.3g}]; "
                "the ITP bracket search would be unreliable")

    excess = [value - spec.lr_bound for value, _err in sampled]
    k = next((k for k, above in enumerate(excess) if above > 0.0), None)
    if k is None:
        raise NoCrossingError(
            f"functional stays below the bound {spec.lr_bound} up to d = {hi:.3g}")
    if k == 0:
        return 0.0

    def gaps(ds: tuple[float, ...]) -> list[float]:
        outcomes = evaluate_curve_with_error(
            spec, [StateFamily(family, V=V, d=d) for d in ds], angles, detector)
        return [point_result(outcome)[0] - spec.lr_bound for outcome in outcomes]

    # a round's points share an engine pass only on a shift rule; on the
    # composite rule each would cost its own, so a round is one ITP step
    lo, up = sign_change_bracket(gaps, probes[k - 1], probes[k], excess[k - 1], excess[k],
                                 round_points=4 if curve_shares_pass(V) else 1)
    return 0.5 * (lo + up)
