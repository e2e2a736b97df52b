"""Self-validation suite: oracle agreement, plateaus, orderings and kernels.

Each check returns a verdict and a detail line; the :data:`CHECKS` registry
names it, and :func:`run_checks` joins name, verdict and detail into a
:class:`CheckResult`.  The ``validate`` CLI command and the test suite share
them, so both report identical verdicts.  Reference numbers here are either
closed forms evaluated in-place or high-precision constants frozen from an
independent computation, such as the 50-digit erf and Dawson values that
``numerical-kernels`` holds the engine's own kernels to.  No check imports
scipy: the angle optimizer behind ``kerr-violation-exists`` is the package's
own numpy BFGS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable

import numpy as np

from ._special import dawsn, erf
from .inequalities import INEQUALITIES, canonical_angles, evaluate, optimize_angles, verify_lr_bound
from .integration import (QuadratureConfig, estimate_curve, point_result, rotation_angles,
                          term_layout)
from .measurement import DetectorModel, EffectiveRotation
from .oracles import (GHZ3_SVETLICHNY_MAX, GHZ4_SVETLICHNY_MAX, compensated_displacement,
                      ghz_correlation_closed, sasa_closed)
from .states import FamilyKind, StateFamily
from .sweeps import crossing_displacement, sign_change_bracket

_GRID_SEED = 20260815


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@lru_cache(maxsize=1)
def _ghz_reference_pairs() -> tuple[tuple[float, float], ...]:
    """(engine, closed form) on the shared GHZ comparison grid.

    Two checks read the same 120 points, so the engine runs over them once,
    as one curve in d per (V, η) cell whose terms are the phase triples.
    """
    rng = np.random.default_rng(_GRID_SEED)
    triples = [tuple(rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(5)]
    angles = rotation_angles([EffectiveRotation(math.pi / 2.0, p)
                              for phases in triples for p in phases])
    layout = term_layout([[3 * t, 3 * t + 1, 3 * t + 2] for t in range(len(triples))])
    pairs = []
    for V in (1.0, 5.0, 10.0):
        curve = [StateFamily(FamilyKind.GHZ3_CONDITIONAL, V=V, d=d)
                 for d in (0.5, 1.0, 2.0, 5.0)]
        for eta in (0.3, 1.0):
            outcomes = estimate_curve(curve, *angles, layout, DetectorModel(eta))
            for family, outcome in zip(curve, outcomes):
                terms, _derivatives = point_result(outcome)
                pairs.extend((value, ghz_correlation_closed(V, family.d, phases, eta))
                             for (value, _err), phases in zip(terms, triples))
    return tuple(pairs)


def check_ghz_oracle_agreement() -> tuple[bool, str]:
    """Quadrature engine vs the GHZ closed form over the reference grid."""
    worst = 0.0
    for got, want in _ghz_reference_pairs():
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    return worst <= 1e-6, f"max relative deviation {worst:.3e} (tolerance 1e-6)"


def _plateau(inequality: str, kind: FamilyKind, eta: float, target: float,
             label: str) -> tuple[bool, str]:
    """With canonical angles, ``inequality`` on ``kind`` at V = 10, d = 50
    and efficiency ``eta`` reads ``target`` (written ``label``) within 1e-3."""
    spec = INEQUALITIES[inequality]
    angles = canonical_angles(spec, kind).angles
    value = evaluate(spec, StateFamily(kind, V=10.0, d=50.0), angles, DetectorModel(eta))
    diff = abs(value - target)
    return diff <= 1e-3, f"value {value:.9f} vs {label}, deviation {diff:.3e} (tolerance 1e-3)"


def check_w_plateau() -> tuple[bool, str]:
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.W3).angles
    value = evaluate(spec, StateFamily(FamilyKind.W3, V=10.0, d=40.0), angles)
    return 4.35 <= value <= 4.36, f"value {value:.9f} expected inside [4.35, 4.36]"


def check_sasa_exactness() -> tuple[bool, str]:
    spec = INEQUALITIES["sasa"]
    angles = canonical_angles(spec, FamilyKind.CLUSTER4_CONDITIONAL).angles
    worst = 0.0
    for V in (1.0, 10.0, 1e3):
        for d in (0.5, 2.0, 10.0, 50.0):
            got = evaluate(spec, StateFamily(FamilyKind.CLUSTER4_CONDITIONAL, V=V, d=d), angles)
            want = sasa_closed(V, d)
            worst = max(worst, abs(got - want))
    plateau = abs(evaluate(
        spec, StateFamily(FamilyKind.CLUSTER4_CONDITIONAL, V=1.0, d=50.0), angles) - 4.0)

    # At high temperature the bound is crossed well before the functional
    # saturates; locate both displacements on the closed form.
    def reaching(level: float, up: float) -> float:
        ends = (sasa_closed(1e3, 1e-6) - level, sasa_closed(1e3, up) - level)
        return 0.5 * sum(sign_change_bracket(lambda ds: [sasa_closed(1e3, d) - level for d in ds],
                                             1e-6, up, *ends, width=1e-6))

    crossing_d = reaching(2.0, 200.0)
    saturation_d = reaching(3.99, 400.0)
    ordered = crossing_d < 50.0 < saturation_d
    return (worst <= 1e-6 and plateau <= 1e-6 and ordered,
            f"max deviation {worst:.3e} (tolerance 1e-6), plateau gap {plateau:.3e}, "
            f"V=1e3 crossing {crossing_d:.2f} < 50 < saturation {saturation_d:.2f}: {ordered}")


def _scheme_ordering(inequality: str, scheme: FamilyKind, conditional: FamilyKind,
                     eta: float, label: str) -> tuple[bool, str]:
    """At V = 5 and 10 and efficiency ``eta``, ``inequality`` crosses its
    bound at a smaller displacement on ``scheme`` (written ``label``) than
    on ``conditional``."""
    spec = INEQUALITIES[inequality]
    parts = []
    ok = True
    for V in (5.0, 10.0):
        first = crossing_displacement(scheme, spec, V, eta)
        cond = crossing_displacement(conditional, spec, V, eta)
        ok = ok and first < cond
        parts.append(f"V={V:g}: {label} {first:.4f} vs conditional {cond:.4f}")
    return ok, "; ".join(parts)


def check_inefficiency_substitution() -> tuple[bool, str]:
    """Loss handling: physical kernel vs substitution rule, plus compensation.

    The engine carries the detector through the smeared half-line kernels; the
    closed form absorbs the same loss by substituting into its erf argument.
    Displacement compensation is probed in the high-temperature regime only,
    where its derivation holds.
    """
    worst = max(abs(got - want) for got, want in _ghz_reference_pairs())

    comp_worst = 0.0
    phases = (0.3, 0.2, 0.1)
    for d in (10.0, 15.0, 20.0):
        boosted = compensated_displacement(d, 100.0, 0.3)
        lossy = ghz_correlation_closed(100.0, boosted, phases, 0.3)
        ideal = ghz_correlation_closed(100.0, d, phases, 1.0)
        comp_worst = max(comp_worst, abs(lossy - ideal) / abs(ideal))
    return (worst <= 1e-4 and comp_worst <= 1e-2,
            f"max deviation {worst:.3e} (tolerance 1e-4); "
            f"compensated displacement off by {comp_worst:.3%} (tolerance 1%)")


# The term indices the sign flip of ``lr-bounds`` may name: those present in
# every table it enumerates.
FLIPPABLE_TERMS = min(len(spec.terms) for spec in INEQUALITIES.values())


def check_lr_bounds(flip_term: int | None = None) -> tuple[bool, str]:
    """Exhaustive confirmation of every stored local bound.

    ``flip_term`` perturbs one sign in each table first; the check is
    expected to fail then, which is how its sensitivity is demonstrated.
    """
    failures = [name for name, spec in INEQUALITIES.items()
                if not verify_lr_bound(spec, flip_term=flip_term)]
    bounds = ", ".join(f"{name}={spec.lr_bound:g}" for name, spec in INEQUALITIES.items())
    if flip_term is not None:
        detail = f"sign of term {flip_term} flipped; mismatching tables: {failures or 'none'}"
    else:
        detail = f"enumerated bounds match exactly: {bounds}" if not failures else \
            f"bound mismatch for: {', '.join(failures)}"
    return not failures, detail


def check_kerr_violation() -> tuple[bool, str]:
    spec = INEQUALITIES["svetlichny3"]
    family = StateFamily(FamilyKind.GHZ3_KERR, V=5.0, d=5.0 * math.sqrt(5.0))
    found = optimize_angles(spec, family, restarts=2,
                            config=QuadratureConfig(rel_tol=1e-4))
    return (found.value > 4.0,
            f"optimizer reached {found.value:.6f} (needs > 4, "
            f"start {found.start_index}, {found.evaluations} evaluations "
            f"over {found.restarts} restarts, {found.stalled} stalled)")


# (x, erf(x), Dawson(x)) computed once at 50 decimal digits with mpmath and
# rounded to the nearest double; frozen so the check needs no extra
# dependency.  The points cover tiny |x|, panel edges, negative x, erf's
# saturation past its cut at 6 and Dawson's series past 16.
_KERNEL_TABLE = (
    (1e-300, 1.1283791670955126e-300, 1e-300),
    (1e-08, 1.1283791670955126e-08, 1e-08),
    (-0.065, -0.07324148294480139, -0.06481722570434734),
    (0.065, 0.07324148294480139, 0.06481722570434734),
    (0.5, 0.5204998778130465, 0.4244363835020223),
    (-0.92413887, -0.8087634198160323, -0.5410442246351816),
    (1.0, 0.8427007929497149, 0.5380795069127684),
    (-1.0649, -0.867931805284649, -0.531289962032074),
    (2.5, 0.999593047982555, 0.2230837221674355),
    (-3.5, -0.9999992569016276, -0.14962159308075648),
    (5.9, 0.9999999999999999, 0.08601968199264808),
    (6.0, 1.0, 0.08454268897454385),
    (6.5, 1.0, 0.07786781898606987),
    (-27.0, -1.0, -0.0185312460588267),
    (10.001, 1.0, 0.050248770759384255),
    (15.99, 1.0, 0.03133105550924707),
    (16.0, 1.0, 0.031311396325184614),
    (-16.5, -1.0, -0.03035899273155013),
    (40.0, 1.0, 0.012503909917843973),
    (100000.0, 1.0, 5.00000000025e-06),
    (1e+150, 1.0, 5e-151),
)


def check_numerical_kernels() -> tuple[bool, str]:
    """The engine's erf and Dawson kernels against the frozen table."""
    x, erf_want, dawsn_want = np.array(_KERNEL_TABLE).T
    worst = 0.0
    for got, want in ((erf(x), erf_want), (dawsn(x), dawsn_want)):
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    return (worst <= 1e-15,
            f"erf and Dawson max relative error {worst:.3e} at {len(x)} points "
            f"vs 50-digit references (tolerance 1e-15)")


CHECKS: dict[str, Callable[..., tuple[bool, str]]] = {
    "ghz-oracle-agreement": check_ghz_oracle_agreement,
    "svetlichny3-plateau": partial(_plateau, "svetlichny3", FamilyKind.GHZ3_CONDITIONAL, 0.1,
                                   GHZ3_SVETLICHNY_MAX, "4√2"),
    "w-plateau": check_w_plateau,
    "svetlichny4-plateau": partial(_plateau, "svetlichny4", FamilyKind.GHZ4_CONDITIONAL, 0.1,
                                   GHZ4_SVETLICHNY_MAX, "8√2"),
    "sasa-exactness": check_sasa_exactness,
    "wwzb-plateau": partial(_plateau, "wwzb4", FamilyKind.CLUSTER4_CONDITIONAL, 1.0,
                            4.0 * math.sqrt(2.0), "4√2"),
    "tripartite-scheme-ordering": partial(
        _scheme_ordering, "svetlichny3", FamilyKind.GHZ3_BEAM_SPLITTER,
        FamilyKind.GHZ3_CONDITIONAL, 0.3, "splitter"),
    "cluster-scheme-ordering": partial(
        _scheme_ordering, "sasa", FamilyKind.CLUSTER4_CROSS_KERR,
        FamilyKind.CLUSTER4_CONDITIONAL, 1.0, "cross-Kerr"),
    "inefficiency-substitution": check_inefficiency_substitution,
    "lr-bounds": check_lr_bounds,
    "kerr-violation-exists": check_kerr_violation,
    "numerical-kernels": check_numerical_kernels,
}


def run_checks(names: Iterable[str] | None = None,
               flip_term: int | None = None) -> list[CheckResult]:
    """Run the named checks in the order given, or every check in registry
    order; only ``lr-bounds`` takes ``flip_term``."""
    if isinstance(names, str):
        raise TypeError(f"names must be an iterable of check names, not the string {names!r}")
    selected = list(CHECKS) if names is None else list(names)
    results = []
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
        check = CHECKS[name]
        passed, detail = check(flip_term) if name == "lr-bounds" else check()
        results.append(CheckResult(name, passed, detail))
    return results
