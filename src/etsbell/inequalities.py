"""Multipartite Bell functionals, canonical settings and bound checks.

Each inequality is a signed sum of correlation terms.  A term assigns every
party one of its setting indices, or leaves the party out entirely (the
stabilizer-derived four-party functional does this with its second party).
Evaluation plugs any correlator in, so the same tables drive the thermal-state
engine, closed forms and spin-model cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NonconvergenceError, RotationError, UnsupportedAngleSetError
# perfbench wraps the two single-term estimators by their names here.
from .integration import (QuadratureConfig, TermLayout,  # noqa: F401
                          converged_correlation, estimate_correlation, estimate_curve,
                          estimate_terms, gradient_layout, point_result, rotation_angles,
                          term_layout)
from .measurement import (IGNORE, PAULI_ROTATIONS, DetectorModel, EffectiveRotation,
                          PartySetting, zx_rotation)
from .states import FamilyKind, StateFamily

#: Index tuple entry marking a party an inequality term does not measure.
UNMEASURED = None

#: Refinement tolerance of the angle optimizer's objective, looser than the
#: engine default so that each of its many evaluations stays cheap.
OPTIMIZER_REL_TOL = 1e-5

#: Largest gradient component at which the angle optimizer stops.  The
#: functional has flat ridges: at scipy's default of 1e-5, BFGS stopped
#: 3.9e-6 below the optimum of ghz3-kerr at V = 5, d = 3, η = 0.8, where
#: the gradient was 2.4e-6.
_GRADIENT_TOL = 1e-8

_TWO_PI = 2.0 * math.pi

TermIndices = tuple[int | None, ...]
AngleSet = tuple[tuple[EffectiveRotation, ...], ...]


@dataclass(frozen=True)
class InequalitySpec:
    """A Bell functional: signed correlation terms plus its two bounds."""

    name: str
    parties: int
    settings_per_party: tuple[int, ...]
    terms: tuple[tuple[int, TermIndices], ...]
    lr_bound: float
    quantum_max: float

    def __post_init__(self):
        if len(self.settings_per_party) != self.parties:
            raise ValueError("settings_per_party must list every party")
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
    parties=3,
    settings_per_party=(2, 2, 2),
    terms=((1, (0, 0, 1)), (1, (0, 1, 0)), (1, (1, 0, 0)), (-1, (1, 1, 1))),
    lr_bound=2.0,
    quantum_max=4.0,
)

SVETLICHNY3 = InequalitySpec(
    name="svetlichny3",
    parties=3,
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
    parties=4,
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
    parties=4,
    settings_per_party=(2, 2, 2, 2),
    terms=_uniform_terms(4, (1, 1, -1, -1, 1)),
    lr_bound=4.0,
    quantum_max=4.0 * math.sqrt(2.0),
)

SASA = InequalitySpec(
    name="sasa",
    parties=4,
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
    spec.name: spec for spec in (MERMIN3, SVETLICHNY3, SVETLICHNY4, WWZB4, SASA)
}


def get_inequality(name: str) -> InequalitySpec:
    try:
        return INEQUALITIES[name]
    except KeyError:
        raise ValueError(
            f"unknown inequality {name!r}; choose from {sorted(INEQUALITIES)}") from None


def functional_value(spec: InequalitySpec,
                     correlator: Callable[[TermIndices], float]) -> float:
    """Signed sum Σ sign·correlator(indices) without the closing modulus."""
    return math.fsum(sign * correlator(indices) for sign, indices in spec.terms)


def term_settings(spec: InequalitySpec, angles: AngleSet,
                  indices: TermIndices) -> tuple[PartySetting, ...]:
    """Per-party measurement settings for one term of the functional."""
    if len(angles) != spec.parties:
        raise ValueError(f"expected angle tuples for {spec.parties} parties")
    settings = []
    for p, idx in enumerate(indices):
        if idx is UNMEASURED:
            settings.append(IGNORE)
            continue
        if idx >= len(angles[p]):
            raise ValueError(f"party {p} angle set lacks setting {idx}")
        settings.append(PartySetting(angles[p][idx]))
    return tuple(settings)


def _term_estimates(spec: InequalitySpec, curve: Sequence[StateFamily], angles: AngleSet,
                    detector: DetectorModel | None,
                    config: QuadratureConfig | None) -> list:
    """(value, err) of every term at each point of ``curve``, or the point's
    :class:`NonconvergenceError`, all from one batched engine call."""
    if len(angles) != spec.parties:
        raise ValueError(f"expected angle tuples for {spec.parties} parties")
    for p, (party, count) in enumerate(zip(angles, spec.settings_per_party)):
        if len(party) < count:
            raise ValueError(f"party {p} angle set lacks setting {len(party)}")
    # A surplus setting is never read.
    rotations = [rotation for party, count in zip(angles, spec.settings_per_party)
                 for rotation in party[:count]]
    outcomes = estimate_curve(curve, *rotation_angles(rotations), spec._layout,
                              detector, config)
    return [outcome if isinstance(outcome, NonconvergenceError) else outcome[0]
            for outcome in outcomes]


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
    for estimates in _term_estimates(spec, curve, angles, detector, config):
        if isinstance(estimates, NonconvergenceError):
            outcomes.append(estimates)
            continue
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
    results, derivatives = estimate_terms(family, theta, phase, layout, detector, config)
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


def canonical_angles(inequality: str | InequalitySpec,
                     kind: FamilyKind) -> CanonicalAngles:
    """Stored angle set for an inequality/family pair.

    Raises :class:`UnsupportedAngleSetError` when no set is on file; the
    optimizer covers those combinations.
    """
    name = inequality if isinstance(inequality, str) else inequality.name
    try:
        return _CANONICAL[(name, kind)]
    except KeyError:
        raise UnsupportedAngleSetError(
            f"no canonical angles for inequality {name!r} on family {kind.value!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best functional value found and the settings achieving it.

    ``evaluations`` counts the objective calls, each a value and its
    gradient, summed over all ``restarts``.
    """

    value: float
    angles: AngleSet
    start_index: int
    provenance: str = "optimizer"
    evaluations: int = 0
    restarts: int = 0


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


def optimize_angles(
    spec: InequalitySpec,
    family: StateFamily,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
    restarts: int = 20,
    seed: int = 20260815,
) -> OptimizationResult:
    """Maximize |functional| over all measurement angles with BFGS.

    The objective is :func:`evaluate_with_gradient`, whose gradient is
    exact, so a start that is already stationary stops after one call.
    Restart 0 is seeded from the canonical angle set when one exists; the
    remaining starts draw uniformly from [0, 2π).  Restarts run in order and
    ties resolve to the lowest start index.  An evaluation that does not
    converge raises its :class:`NonconvergenceError` out of the optimizer.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    # Imported on use: scipy.optimize is most of the package's import time.
    from scipy.optimize import minimize
    if config is None:
        config = QuadratureConfig(rel_tol=OPTIMIZER_REL_TOL)
    nparams = 2 * sum(spec.settings_per_party)
    rng = np.random.default_rng(seed)
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

    def solve(start: np.ndarray):
        result = minimize(objective, start, jac=True, method="BFGS",
                          options={"gtol": _GRADIENT_TOL})
        return -float(result.fun), result.x

    outcomes = [solve(s) for s in starts]
    # max keeps the first of equal values: the lowest start index wins ties.
    best_index = max(range(len(outcomes)), key=lambda k: outcomes[k][0])
    best_value, best_x = outcomes[best_index]
    return OptimizationResult(
        value=best_value,
        angles=_angles_from_vector(spec, best_x),
        start_index=best_index,
        evaluations=evaluations,
        restarts=restarts,
    )


def deterministic_bound(spec: InequalitySpec,
                        terms: Sequence[tuple[int, TermIndices]] | None = None) -> float:
    """Exhaustive maximum of |functional| over local deterministic models.

    Every party assigns a fixed ±1 outcome to each of its settings; parties a
    term leaves unmeasured contribute a factor of one.
    """
    terms = tuple(terms) if terms is not None else spec.terms
    per_party = [
        list(itertools.product((1, -1), repeat=count))
        for count in spec.settings_per_party
    ]
    best = 0.0
    for assignment in itertools.product(*per_party):
        total = 0
        for sign, indices in terms:
            prod = sign
            for p, idx in enumerate(indices):
                if idx is not UNMEASURED:
                    prod *= assignment[p][idx]
            total += prod
        best = max(best, abs(total))
    return float(best)


def hybrid_partition_bound(spec: InequalitySpec,
                           terms: Sequence[tuple[int, TermIndices]] | None = None) -> float:
    """Exhaustive maximum over two-group models with arbitrary in-group strategies.

    Parties split into two nonempty groups; each group's joint outcome is an
    arbitrary ±1 function of the group's joint settings.  This is the bound a
    genuine-multipartite test must beat.  Terms must measure every party.
    """
    terms = tuple(terms) if terms is not None else spec.terms
    for _sign, indices in terms:
        if UNMEASURED in indices:
            raise ValueError("partition bounds need every party measured in every term")
    n = spec.parties
    best = 0.0
    for mask in range(1, 1 << n):
        if not mask & 1 or mask == (1 << n) - 1:
            continue
        group_a = [p for p in range(n) if mask >> p & 1]
        group_b = [p for p in range(n) if not mask >> p & 1]
        combos_a = list(itertools.product(*(range(spec.settings_per_party[p]) for p in group_a)))
        combos_b = list(itertools.product(*(range(spec.settings_per_party[p]) for p in group_b)))
        index_a = {c: k for k, c in enumerate(combos_a)}
        index_b = {c: k for k, c in enumerate(combos_b)}
        term_keys = [
            (sign,
             index_a[tuple(indices[p] for p in group_a)],
             index_b[tuple(indices[p] for p in group_b)])
            for sign, indices in terms
        ]
        for f_a in itertools.product((1, -1), repeat=len(combos_a)):
            for f_b in itertools.product((1, -1), repeat=len(combos_b)):
                total = 0
                for sign, ka, kb in term_keys:
                    total += sign * f_a[ka] * f_b[kb]
                best = max(best, abs(total))
    return float(best)


def verify_lr_bound(spec: InequalitySpec, flip_term: int | None = None) -> bool:
    """Check the stored local bound by exhaustive enumeration.

    Svetlichny functionals bound two-group hybrid models, the others bound
    fully local ones.  ``flip_term`` negates one term's sign first, the
    mutation hook used to prove the check can fail.
    """
    terms = list(spec.terms)
    if flip_term is not None:
        if not 0 <= flip_term < len(terms):
            raise ValueError(
                f"flip_term must lie in [0, {len(terms)}) for {spec.name}, got {flip_term}")
        sign, indices = terms[flip_term]
        terms[flip_term] = (-sign, indices)
    if spec.name.startswith("svetlichny"):
        bound = hybrid_partition_bound(spec, terms)
    else:
        bound = deterministic_bound(spec, terms)
    return bound == spec.lr_bound
