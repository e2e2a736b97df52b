"""Multipartite Bell functionals, canonical settings and bound checks.

Each inequality is a signed sum of correlation terms.  A term assigns every
party one of its setting indices, or leaves the party out entirely (the
stabilizer-derived four-party functional does this with its second party).
Evaluation sums the terms as the thermal-state engine estimates them;
:func:`partition_bound` enumerates the local and the bipartite bounds.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonconvergenceError, RotationError, UnsupportedAngleSetError, require_number
# perfbench wraps the two single-term estimators by their names here.
from .integration import (QuadratureConfig, TermLayout,  # noqa: F401
                          converged_correlation, estimate_correlation, estimate_curve,
                          gradient_layout, point_result, rotation_angles, term_layout)
from .measurement import PAULI_ROTATIONS, DetectorModel, EffectiveRotation, zx_rotation
from .states import FamilyKind, StateFamily

#: Index tuple entry marking a party an inequality term does not measure.
UNMEASURED = None

#: Refinement tolerance of the angle optimizer's objective, looser than the
#: engine default so that each of its many evaluations stays cheap.
OPTIMIZER_REL_TOL = 1e-5

#: Largest gradient component at which the angle optimizer stops.  The
#: functional has flat ridges: stopping at 1e-5 (a common BFGS default) left
#: the optimizer 3.9e-6 below the optimum of ghz3-kerr at V = 5, d = 3,
#: η = 0.8, where the gradient was 2.4e-6.
_GRADIENT_TOL = 1e-8

#: Seed of the angle optimizer's random restarts, so that a run repeats.
_RESTART_SEED = 20260815

#: BFGS iterations per angle before a restart counts as stalled, the strong
#: Wolfe constants c₁ and c₂, and the trials each line search phase may take.
_ITERATIONS_PER_ANGLE = 200
_WOLFE_C1, _WOLFE_C2 = 1e-4, 0.9
_ZOOM_TRIALS = 10

_TWO_PI = 2.0 * math.pi

TermIndices = tuple[int | None, ...]
AngleSet = tuple[tuple[EffectiveRotation, ...], ...]


@dataclass(frozen=True)
class InequalitySpec:
    """A Bell functional: signed correlation terms plus its two bounds."""

    name: str
    settings_per_party: tuple[int, ...]
    terms: tuple[tuple[int, TermIndices], ...]
    lr_bound: float
    quantum_max: float

    @property
    def parties(self) -> int:
        return len(self.settings_per_party)

    def __post_init__(self):
        for sign, indices in self.terms:
            if sign not in (-1, 1):
                raise ValueError(f"term sign must be ±1, got {sign}")
            if len(indices) != self.parties:
                raise ValueError("term index tuples must cover every party")
            for p, idx in enumerate(indices):
                if idx is not UNMEASURED and not (0 <= idx < self.settings_per_party[p]):
                    raise ValueError(f"party {p} has no setting {idx}")

    @cached_property
    def _layout(self) -> TermLayout:
        """Each term's rotation per party, as positions in the angle set read
        party by party; it does not depend on the angles, so it is built once."""
        offsets = [0, *itertools.accumulate(self.settings_per_party)]
        return term_layout([[-1 if idx is UNMEASURED else offsets[p] + idx
                             for p, idx in enumerate(indices)]
                            for _sign, indices in self.terms])

    @cached_property
    def _gradient_layout(self) -> TermLayout:
        """:attr:`_layout` followed by the derivative rows of every term."""
        return gradient_layout(self._layout, sum(self.settings_per_party))

    @cached_property
    def _derivative_signs(self) -> np.ndarray:
        """The term sign of each derivative row of :attr:`_gradient_layout`."""
        signs = np.array([sign for sign, _indices in self.terms], dtype=float)
        return signs[self._gradient_layout.owners]


def _uniform_terms(parties: int, sign_by_flips: Sequence[int]) -> tuple:
    """All-settings term table with the sign keyed by the count of 1-indices."""
    terms = []
    for indices in itertools.product((0, 1), repeat=parties):
        terms.append((sign_by_flips[sum(indices)], indices))
    return tuple(terms)


MERMIN3 = InequalitySpec(
    name="mermin3",
    settings_per_party=(2, 2, 2),
    terms=((1, (0, 0, 1)), (1, (0, 1, 0)), (1, (1, 0, 0)), (-1, (1, 1, 1))),
    lr_bound=2.0,
    quantum_max=4.0,
)

SVETLICHNY3 = InequalitySpec(
    name="svetlichny3",
    settings_per_party=(2, 2, 2),
    terms=(
        (1, (0, 0, 1)), (1, (0, 1, 0)), (1, (1, 0, 0)), (1, (0, 0, 0)),
        (-1, (1, 1, 0)), (-1, (1, 0, 1)), (-1, (0, 1, 1)), (-1, (1, 1, 1)),
    ),
    lr_bound=4.0,
    quantum_max=4.0 * math.sqrt(2.0),
)

SVETLICHNY4 = InequalitySpec(
    name="svetlichny4",
    settings_per_party=(2, 2, 2, 2),
    terms=(
        (1, (0, 0, 0, 0)), (-1, (1, 0, 0, 0)), (-1, (0, 1, 0, 0)), (-1, (0, 0, 1, 0)),
        (1, (1, 1, 0, 1)), (1, (1, 0, 1, 1)), (1, (0, 1, 1, 1)), (1, (1, 1, 1, 1)),
        (-1, (0, 0, 0, 1)), (-1, (1, 1, 0, 0)), (-1, (1, 0, 1, 0)), (-1, (1, 0, 0, 1)),
        (-1, (0, 1, 1, 0)), (-1, (0, 1, 0, 1)), (-1, (0, 0, 1, 1)), (1, (1, 1, 1, 0)),
    ),
    lr_bound=8.0,
    quantum_max=8.0 * math.sqrt(2.0),
)

WWZB4 = InequalitySpec(
    name="wwzb4",
    settings_per_party=(2, 2, 2, 2),
    terms=_uniform_terms(4, (1, 1, -1, -1, 1)),
    lr_bound=4.0,
    quantum_max=4.0 * math.sqrt(2.0),
)

SASA = InequalitySpec(
    name="sasa",
    settings_per_party=(2, 1, 2, 2),
    terms=(
        (1, (0, UNMEASURED, 0, 0)),
        (-1, (0, UNMEASURED, 1, 1)),
        (1, (1, 0, 1, 0)),
        (1, (1, 0, 0, 1)),
    ),
    lr_bound=2.0,
    quantum_max=4.0,
)

INEQUALITIES: dict[str, InequalitySpec] = {
    spec.name: spec for spec in (MERMIN3, SVETLICHNY3, SVETLICHNY4, SASA, WWZB4)
}


def get_inequality(name: str) -> InequalitySpec:
    try:
        return INEQUALITIES[name]
    except KeyError:
        raise ValueError(
            f"unknown inequality {name!r}; choose from {sorted(INEQUALITIES)}") from None


def checked_rotations(spec: InequalitySpec, angles: AngleSet) -> list:
    """The rotations of ``angles`` that ``spec`` reads, party by party (a
    surplus setting is never read); :class:`ValueError` for a missing party
    or setting, :class:`TypeError` naming both for a non-rotation entry."""
    if len(angles) != spec.parties:
        raise ValueError(f"expected angle tuples for {spec.parties} parties")
    rotations = []
    for p, (party, count) in enumerate(zip(angles, spec.settings_per_party)):
        if len(party) < count:
            raise ValueError(f"party {p} angle set lacks setting {len(party)}")
        for k, rotation in enumerate(party[:count]):
            if not isinstance(rotation, EffectiveRotation):
                raise TypeError(f"party {p} setting {k} must be an EffectiveRotation, "
                                f"got {rotation!r}")
            rotations.append(rotation)
    return rotations


def evaluate(
    spec: InequalitySpec,
    family: StateFamily,
    angles: AngleSet,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> float:
    """|functional| of the thermal-state family at the given settings: the
    value of :func:`evaluate_with_error`."""
    return evaluate_with_error(spec, family, angles, detector, config)[0]


def evaluate_curve_with_error(
    spec: InequalitySpec,
    curve: Sequence[StateFamily],
    angles: AngleSet,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> list:
    """:func:`evaluate_with_error` at every point of a curve (see
    :func:`estimate_curve`), from one engine pass per refinement level.

    A point that does not converge gives its :class:`NonconvergenceError`
    in place of its pair; every other point keeps the bits it has alone.
    """
    outcomes = []
    for outcome in estimate_curve(curve, *rotation_angles(checked_rotations(spec, angles)),
                                  spec._layout, detector, config):
        if isinstance(outcome, NonconvergenceError):
            outcomes.append(outcome)
            continue
        estimates, _derivatives = outcome
        total = math.fsum(sign * value
                          for (sign, _indices), (value, _err) in zip(spec.terms, estimates))
        err = 0.0
        for _value, term_err in estimates:
            err += term_err
        outcomes.append((abs(total), err))
    return outcomes


def evaluate_with_error(
    spec: InequalitySpec,
    family: StateFamily,
    angles: AngleSet,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """|functional| plus the summed per-term error estimates (conservative)."""
    return point_result(*evaluate_curve_with_error(spec, (family,), angles, detector, config))


def evaluate_with_gradient(
    spec: InequalitySpec,
    family: StateFamily,
    x: np.ndarray,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> tuple[float, np.ndarray]:
    """|functional| and its exact gradient at the angle vector ``x``.

    ``x`` holds (θ, γ) per setting, party by party, the layout
    :func:`optimize_angles` searches.  The value carries the bits
    :func:`evaluate` gives at the same angles; the gradient comes from the
    derivative rows of the same contraction, each read at the refinement
    level of its term.
    """
    x = np.asarray(x, dtype=float)
    size = 2 * sum(spec.settings_per_party)
    if x.shape != (size,):
        raise ValueError(f"{spec.name} takes {size} angles, got shape {x.shape}")
    # Checked and reduced as EffectiveRotation checks and reduces each pair.
    if not np.isfinite(x).all():
        raise RotationError("rotation angles must be finite")
    theta = np.ascontiguousarray(x[0::2])
    phase = x[1::2] % _TWO_PI
    layout = spec._gradient_layout
    results, derivatives = point_result(
        *estimate_curve((family,), theta, phase, layout, detector, config))
    total = math.fsum(sign * value
                      for (sign, _indices), (value, _err) in zip(spec.terms, results))
    gradient = np.bincount(layout.slots, weights=spec._derivative_signs * derivatives,
                           minlength=size)
    return abs(total), math.copysign(1.0, total) * gradient


@dataclass(frozen=True)
class CanonicalAngles:
    """A stored angle set together with how it was obtained."""

    angles: AngleSet
    provenance: str


def _equatorial(*phase_pairs: tuple[float, float]) -> AngleSet:
    return tuple(
        (EffectiveRotation(math.pi / 2.0, p0), EffectiveRotation(math.pi / 2.0, p1))
        for p0, p1 in phase_pairs
    )


def _repeated_equatorial(parties: int, p0: float, p1: float) -> AngleSet:
    return _equatorial(*(((p0, p1),) * parties))


_W_THETA_A = math.pi + math.atan(1.0 / math.sqrt(2.0))
_W_THETA_B = 2.0 * math.pi - math.atan(1.0 / math.sqrt(2.0))

_SASA_ANGLES: AngleSet = tuple(
    tuple(PAULI_ROTATIONS[axis] for axis in party) for party in ("zx", "y", "xy", "xy"))

_GHZ3_PHASES = ((3.0 * math.pi / 4.0, math.pi / 4.0),
                (math.pi / 2.0, 0.0),
                (0.0, 3.0 * math.pi / 2.0))

_CANONICAL: dict[tuple[str, FamilyKind], CanonicalAngles] = {}


def _register(names, kinds, angles: AngleSet, provenance: str):
    for name in names:
        for kind in kinds:
            _CANONICAL[(name, kind)] = CanonicalAngles(angles, provenance)


_register(
    ("svetlichny3", "mermin3"),
    (FamilyKind.GHZ3_CONDITIONAL, FamilyKind.GHZ3_BEAM_SPLITTER),
    _equatorial(*_GHZ3_PHASES),
    "phase combination maximizing the equatorial closed form",
)
_register(
    ("svetlichny3",),
    (FamilyKind.GHZ3_KERR,),
    _repeated_equatorial(3, math.pi / 12.0, 7.0 * math.pi / 12.0),
    "numerical optimization",
)
_register(
    ("svetlichny3",),
    (FamilyKind.W3,),
    tuple((zx_rotation(_W_THETA_A), zx_rotation(_W_THETA_B)) for _ in range(3)),
    "zx-plane spin optimum mapped to effective rotations",
)
_register(
    ("svetlichny4",),
    (FamilyKind.GHZ4_CONDITIONAL,),
    _repeated_equatorial(4, 31.0 * math.pi / 16.0, 23.0 * math.pi / 16.0),
    "numerical optimization",
)
_register(
    ("wwzb4",),
    (FamilyKind.CLUSTER4_CONDITIONAL, FamilyKind.CLUSTER4_CROSS_KERR),
    _repeated_equatorial(4, 3.0 * math.pi / 16.0, 11.0 * math.pi / 16.0),
    "uniform phase pair saturating the functional",
)
_register(
    ("sasa",),
    (FamilyKind.CLUSTER4_CONDITIONAL, FamilyKind.CLUSTER4_CROSS_KERR),
    _SASA_ANGLES,
    "stabilizer readouts",
)


def canonical_angles(spec: InequalitySpec, kind: FamilyKind) -> CanonicalAngles:
    """Stored angle set for an inequality/family pair.

    Raises :class:`UnsupportedAngleSetError` when no set is on file; the
    optimizer covers those combinations.
    """
    try:
        return _CANONICAL[(spec.name, kind)]
    except KeyError:
        raise UnsupportedAngleSetError(f"no canonical angles for inequality {spec.name!r} "
                                       f"on family {kind.value!r}") from None


@dataclass(frozen=True)
class OptimizationResult:
    """Best functional value found and the settings achieving it.

    ``evaluations`` counts the objective calls, each a value and its
    gradient, summed over all ``restarts``; ``stalled`` counts the restarts
    that stopped short of :data:`_GRADIENT_TOL`.
    """

    value: float
    angles: AngleSet
    start_index: int
    evaluations: int = 0
    restarts: int = 0
    stalled: int = 0


def _angles_from_vector(spec: InequalitySpec, x: np.ndarray) -> AngleSet:
    angles = []
    pos = 0
    for count in spec.settings_per_party:
        party = []
        for _ in range(count):
            party.append(EffectiveRotation(float(x[pos]), float(x[pos + 1])))
            pos += 2
        angles.append(tuple(party))
    return tuple(angles)


def _vector_from_angles(spec: InequalitySpec, angles: AngleSet) -> np.ndarray:
    flat = []
    for party in angles:
        for rotation in party:
            flat.extend((rotation.theta, rotation.phase))
    return np.array(flat)


def _zoom_step(lo, hi) -> float:
    """Minimizer of the cubic through the values and slopes at both ends of
    a bracket (Nocedal & Wright, eq. 3.59), or the midpoint where that is
    undefined or within a tenth of the bracket of either end."""
    (a, fa, _, da), (b, fb, _, db) = lo, hi
    try:
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        d2 = math.copysign(math.sqrt(d1 * d1 - da * db), b - a)
        step = b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)
    except (ZeroDivisionError, ValueError):
        step = math.nan
    margin = 0.1 * abs(b - a)
    return step if min(a, b) + margin <= step <= max(a, b) - margin else 0.5 * (a + b)


def _line_search(objective, x, f, g, p, step):
    """A step along the descent direction ``p`` that meets the strong Wolfe
    conditions (Nocedal & Wright, Algorithms 3.5 and 3.6): the accepted
    trial (α, value, gradient, slope), or None when the trials run out.
    Each trial is one call of ``objective``, which gives value and gradient."""
    slope = float(g @ p)

    def trial(alpha):
        value, gradient = objective(x + alpha * p)
        return alpha, value, gradient, float(gradient @ p)

    def zoom(lo, hi):
        for _ in range(_ZOOM_TRIALS):
            t = trial(_zoom_step(lo, hi))
            if not t[1] <= f + _WOLFE_C1 * t[0] * slope or t[1] >= lo[1]:
                hi = t
            elif abs(t[3]) <= -_WOLFE_C2 * slope:
                return t
            else:
                hi, lo = (lo if t[3] * (hi[0] - lo[0]) >= 0.0 else hi), t
        return None

    previous = (0.0, f, g, slope)
    for k in range(_ZOOM_TRIALS):
        t = trial(step)
        if not t[1] <= f + _WOLFE_C1 * step * slope or (k and t[1] >= previous[1]):
            return zoom(previous, t)
        if abs(t[3]) <= -_WOLFE_C2 * slope:
            return t
        if t[3] >= 0.0:
            return zoom(t, previous)
        previous, step = t, 2.0 * step
    return None


def _bfgs(objective, x: np.ndarray):
    """Minimize ``objective`` (value and gradient) from ``x`` by BFGS from
    H₀ = I (Nocedal & Wright, Algorithm 6.1), to the last accepted point and
    its value and gradient: ``x`` itself when its gradient already meets
    :data:`_GRADIENT_TOL`, else where that tolerance was met, a line search
    failed or the iteration cap ran out."""
    f, g = objective(x)
    inverse, previous = np.eye(x.size), f + np.linalg.norm(g) / 2.0
    for _ in range(_ITERATIONS_PER_ANGLE * x.size):
        p = -inverse @ g
        slope = float(g @ p)
        if np.abs(g).max() <= _GRADIENT_TOL or not slope < 0.0:
            break
        # First trial: the step that repeats the last decrease, at most 1.
        step = min(1.0, 2.02 * (f - previous) / slope)
        found = _line_search(objective, x, f, g, p, step if step > 0.0 else 1.0)
        if found is None:
            break
        alpha, f_next, g_next, _slope = found
        s, y = alpha * p, g_next - g
        x, f, g, previous = x + s, f_next, g_next, f
        ys = float(y @ s)
        rho = 1.0 / ys if ys else 1000.0  # a large finite ρ where yᵀs vanishes
        update = np.eye(x.size) - rho * np.outer(s, y)
        inverse = update @ inverse @ update.T + rho * np.outer(s, s)
    return x, f, g


def optimize_angles(
    spec: InequalitySpec,
    family: StateFamily,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
    restarts: int = 20,
) -> OptimizationResult:
    """Maximize |functional| over all measurement angles with BFGS.

    The objective is :func:`evaluate_with_gradient`, whose gradient is
    exact, so a stationary start stops after one call, bit for bit.
    Restart 0 is seeded from the canonical angle set when one exists; the
    remaining starts draw uniformly from [0, 2π).  Restarts run in order and
    ties resolve to the lowest start index; a stalled restart keeps the
    value at its last accepted point.  An evaluation that does not
    converge raises its :class:`NonconvergenceError` out of the optimizer.
    """
    require_number("restarts", restarts, numbers.Integral)
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if config is None:
        config = QuadratureConfig(rel_tol=OPTIMIZER_REL_TOL)
    nparams = 2 * sum(spec.settings_per_party)
    rng = np.random.default_rng(_RESTART_SEED)
    starts = [rng.uniform(0.0, 2.0 * math.pi, size=nparams) for _ in range(restarts)]
    try:
        canonical = canonical_angles(spec, family.kind)
        starts[0] = _vector_from_angles(spec, canonical.angles)
    except UnsupportedAngleSetError:
        pass
    evaluations = 0

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal evaluations
        evaluations += 1
        value, gradient = evaluate_with_gradient(spec, family, x, detector, config)
        return -value, -gradient

    outcomes = [_bfgs(objective, s) for s in starts]
    # max keeps the first of equal values: the lowest start index wins ties.
    best_index = max(range(restarts), key=lambda k: -outcomes[k][1])
    best_x, best_f, _g = outcomes[best_index]
    return OptimizationResult(
        value=-best_f,
        angles=_angles_from_vector(spec, best_x),
        start_index=best_index,
        evaluations=evaluations,
        restarts=restarts,
        stalled=sum(int(np.abs(g).max() > _GRADIENT_TOL) for _x, _f, g in outcomes),
    )


def partition_bound(spec: InequalitySpec, partitions: Sequence[Sequence[Sequence[int]]],
                    terms: Sequence[tuple[int, TermIndices]] | None = None) -> float:
    """Exhaustive maximum of |functional| over the models in which the
    parties split into the groups of one of ``partitions``.

    A partition is a sequence of groups, each a sequence of parties.  Each
    group answers jointly: its outcome is any ±1 function of its members'
    joint settings.  A party a term leaves unmeasured contributes a factor
    of one, which only a group of one party can give.  Every party alone is
    the fully local model; every split into two is the model a genuine
    multipartite test must beat (Svetlichny, Phys. Rev. D 35, 3066 (1987)).
    """
    terms = tuple(terms) if terms is not None else spec.terms
    best = 0
    for partition in partitions:
        # the signed product of every answer assignment so far, per term
        totals = np.array([[sign for sign, _indices in terms]])
        for group in partition:
            shape = [spec.settings_per_party[p] for p in group]
            joints = [[indices[p] for p in group] for _sign, indices in terms]
            if len(group) > 1 and any(UNMEASURED in joint for joint in joints):
                raise ValueError("partition bounds need every party measured in every term")
            # one row per ±1 function of the group's joint settings, and a
            # last column of ones that an unmeasured party reads
            size = math.prod(shape)
            answers = np.ones((1 << size, size + 1), dtype=int)
            answers[:, :size] -= 2 * (np.arange(1 << size)[:, None] >> np.arange(size) & 1)
            keys = [-1 if UNMEASURED in joint else np.ravel_multi_index(joint, shape)
                    for joint in joints]
            totals = (totals[:, None, :] * answers[None, :, keys]).reshape(-1, len(terms))
        best = max(best, int(np.abs(totals.sum(axis=1)).max()))
    return float(best)


def verify_lr_bound(spec: InequalitySpec, flip_term: int | None = None) -> bool:
    """Check the stored local bound by exhaustive enumeration.

    Svetlichny functionals bound two-group hybrid models, the others bound
    fully local ones.  ``flip_term`` negates one term's sign first, the
    mutation hook used to prove the check can fail.
    """
    terms = list(spec.terms)
    if flip_term is not None:
        require_number("flip_term", flip_term, numbers.Integral)
        if not 0 <= flip_term < len(terms):
            raise ValueError(
                f"flip_term must lie in [0, {len(terms)}) for {spec.name}, got {flip_term}")
        sign, indices = terms[flip_term]
        terms[flip_term] = (-sign, indices)
    n = spec.parties
    if spec.name.startswith("svetlichny"):
        # every split into two nonempty groups, once each: party 0 in the first
        partitions = [[[p for p in range(n) if mask >> p & 1],
                       [p for p in range(n) if not mask >> p & 1]]
                      for mask in range(1, (1 << n) - 1, 2)]
    else:
        partitions = [[(p,) for p in range(n)]]
    return partition_bound(spec, partitions, terms) == spec.lr_bound
