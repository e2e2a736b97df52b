"""Self-validation suite: oracle agreement, plateaus, orderings and kernels.

Every check is a named function returning a :class:`CheckResult`, shared by
the ``validate`` CLI command and the test suite so both report identical
verdicts.  Reference numbers here are either closed forms evaluated in-place
or high-precision constants frozen from an independent computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .inequalities import INEQUALITIES, canonical_angles, evaluate, optimize_angles, verify_lr_bound
from .integration import QuadratureConfig, converged_correlation
from .measurement import DetectorModel, EffectiveRotation, PartySetting
from .oracles import (GHZ3_SVETLICHNY_MAX, GHZ4_SVETLICHNY_MAX, compensated_displacement,
                      ghz_correlation_closed, sasa_closed)
from .phase_space import coherent_overlap, faddeeva, halfline_interference_integral
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

    Two checks read the same 240 points, so the engine runs over them once.
    """
    rng = np.random.default_rng(_GRID_SEED)
    triples = [tuple(rng.uniform(0.0, 2.0 * math.pi, 3)) for _ in range(5)]
    pairs = []
    for V in (1.0, 5.0, 10.0):
        for d in (0.5, 1.0, 2.0, 5.0):
            for eta in (0.3, 1.0):
                for phases in triples:
                    family = StateFamily(FamilyKind.GHZ3_CONDITIONAL, V=V, d=d)
                    settings = [PartySetting(EffectiveRotation(math.pi / 2.0, p))
                                for p in phases]
                    pairs.append((converged_correlation(family, settings, DetectorModel(eta)),
                                  ghz_correlation_closed(V, d, phases, eta)))
    return tuple(pairs)


def check_ghz_oracle_agreement() -> CheckResult:
    """Quadrature engine vs the GHZ closed form over the reference grid."""
    worst = 0.0
    for got, want in _ghz_reference_pairs():
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    return CheckResult(
        name="ghz-oracle-agreement",
        passed=worst <= 1e-6,
        detail=f"max relative deviation {worst:.3e} (tolerance 1e-6)")


def check_svetlichny3_plateau() -> CheckResult:
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.GHZ3_CONDITIONAL).angles
    value = evaluate(spec, StateFamily(FamilyKind.GHZ3_CONDITIONAL, V=10.0, d=50.0),
                     angles, DetectorModel(0.1))
    diff = abs(value - GHZ3_SVETLICHNY_MAX)
    return CheckResult(
        name="svetlichny3-plateau",
        passed=diff <= 1e-3,
        detail=f"value {value:.9f} vs 4√2, deviation {diff:.3e} (tolerance 1e-3)")


def check_w_plateau() -> CheckResult:
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.W3).angles
    value = evaluate(spec, StateFamily(FamilyKind.W3, V=10.0, d=40.0), angles)
    return CheckResult(
        name="w-plateau",
        passed=4.35 <= value <= 4.36,
        detail=f"value {value:.9f} expected inside [4.35, 4.36]")


def check_svetlichny4_plateau() -> CheckResult:
    spec = INEQUALITIES["svetlichny4"]
    angles = canonical_angles(spec, FamilyKind.GHZ4_CONDITIONAL).angles
    value = evaluate(spec, StateFamily(FamilyKind.GHZ4_CONDITIONAL, V=10.0, d=50.0),
                     angles, DetectorModel(0.1))
    diff = abs(value - GHZ4_SVETLICHNY_MAX)
    return CheckResult(
        name="svetlichny4-plateau",
        passed=diff <= 1e-3,
        detail=f"value {value:.9f} vs 8√2, deviation {diff:.3e} (tolerance 1e-3)")


def check_sasa_exactness() -> CheckResult:
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
        return 0.5 * sum(sign_change_bracket(lambda d: sasa_closed(1e3, d) - level,
                                             1e-6, up, *ends, width=1e-6))

    crossing_d = reaching(2.0, 200.0)
    saturation_d = reaching(3.99, 400.0)
    ordered = crossing_d < 50.0 < saturation_d
    return CheckResult(
        name="sasa-exactness",
        passed=worst <= 1e-6 and plateau <= 1e-6 and ordered,
        detail=(f"max deviation {worst:.3e} (tolerance 1e-6), plateau gap {plateau:.3e}, "
                f"V=1e3 crossing {crossing_d:.2f} < 50 < saturation {saturation_d:.2f}: {ordered}"))


def check_wwzb_plateau() -> CheckResult:
    spec = INEQUALITIES["wwzb4"]
    angles = canonical_angles(spec, FamilyKind.CLUSTER4_CONDITIONAL).angles
    value = evaluate(spec, StateFamily(FamilyKind.CLUSTER4_CONDITIONAL, V=10.0, d=50.0), angles)
    diff = abs(value - 4.0 * math.sqrt(2.0))
    return CheckResult(
        name="wwzb-plateau",
        passed=diff <= 1e-3,
        detail=f"value {value:.9f} vs 4√2, deviation {diff:.3e} (tolerance 1e-3)")


def check_tripartite_ordering() -> CheckResult:
    spec = INEQUALITIES["svetlichny3"]
    parts = []
    ok = True
    for V in (5.0, 10.0):
        split = crossing_displacement(FamilyKind.GHZ3_BEAM_SPLITTER, spec, V, 0.3)
        cond = crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, spec, V, 0.3)
        ok = ok and split < cond
        parts.append(f"V={V:g}: splitter {split:.4f} vs conditional {cond:.4f}")
    return CheckResult(
        name="tripartite-scheme-ordering",
        passed=ok,
        detail="; ".join(parts))


def check_cluster_ordering() -> CheckResult:
    spec = INEQUALITIES["sasa"]
    parts = []
    ok = True
    for V in (5.0, 10.0):
        kerr = crossing_displacement(FamilyKind.CLUSTER4_CROSS_KERR, spec, V, 1.0)
        cond = crossing_displacement(FamilyKind.CLUSTER4_CONDITIONAL, spec, V, 1.0)
        ok = ok and kerr < cond
        parts.append(f"V={V:g}: cross-Kerr {kerr:.4f} vs conditional {cond:.4f}")
    return CheckResult(
        name="cluster-scheme-ordering",
        passed=ok,
        detail="; ".join(parts))


def check_inefficiency_substitution() -> CheckResult:
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
    passed = worst <= 1e-4 and comp_worst <= 1e-2
    return CheckResult(
        name="inefficiency-substitution",
        passed=passed,
        detail=(f"max deviation {worst:.3e} (tolerance 1e-4); "
                f"compensated displacement off by {comp_worst:.3%} (tolerance 1%)"))


# The functionals whose stored local bounds ``lr-bounds`` enumerates, and the
# term indices its sign flip may name: those present in every table.
_LR_TABLES = ("mermin3", "svetlichny3", "svetlichny4", "sasa", "wwzb4")
FLIPPABLE_TERMS = min(len(INEQUALITIES[name].terms) for name in _LR_TABLES)


def check_lr_bounds(flip_term: int | None = None) -> CheckResult:
    """Exhaustive confirmation of every stored local bound.

    ``flip_term`` perturbs one sign in each table first; the check is
    expected to fail then, which is how its sensitivity is demonstrated.
    """
    failures = []
    for name in _LR_TABLES:
        if not verify_lr_bound(INEQUALITIES[name], flip_term=flip_term):
            failures.append(name)
    bounds = ", ".join(
        f"{name}={INEQUALITIES[name].lr_bound:g}"
        for name in _LR_TABLES)
    if flip_term is not None:
        detail = f"sign of term {flip_term} flipped; mismatching tables: {failures or 'none'}"
    else:
        detail = f"enumerated bounds match exactly: {bounds}" if not failures else \
            f"bound mismatch for: {', '.join(failures)}"
    return CheckResult(name="lr-bounds", passed=not failures, detail=detail)


def check_kerr_violation() -> CheckResult:
    spec = INEQUALITIES["svetlichny3"]
    family = StateFamily(FamilyKind.GHZ3_KERR, V=5.0, d=5.0 * math.sqrt(5.0))
    found = optimize_angles(spec, family, restarts=2,
                            config=QuadratureConfig(rel_tol=1e-4))
    return CheckResult(
        name="kerr-violation-exists",
        passed=found.value > 4.0,
        detail=f"optimizer reached {found.value:.6f} (needs > 4, "
               f"start {found.start_index}, {found.evaluations} evaluations "
               f"over {found.restarts} restarts)")


# z, w(z) reference pairs computed once at 50 decimal digits with mpmath
# (w = exp(-z²)·erfc(-iz)); frozen so the check needs no extra dependency.
_FADDEEVA_TABLE = (
    (0.3213408826547308, 1.8671004944563014, 0.26541990618390154, 0.03755651668700297),
    (-1.456005454745382, 3.296261208007582, 0.1410685743551753, -0.05811017472295666),
    (-5.818247905011569, 5.776430725431533, 0.04884084680067994, -0.04846829449030073),
    (-4.079937424694309, -1.6893348176893053, -0.05214479413090703, -0.11917069167454103),
    (-4.085560473740136, 3.8392166192023467, 0.07009617190073818, -0.07225570754498525),
    (2.6871123658324123, -1.7965394052297867, -0.14105891231194645, 0.1337973586257589),
    (0.3425074224273441, 0.22810907956393756, 0.7186064456580948, 0.24730657698501876),
    (-5.04176915258064, -5.650652011950093, 1221.863166993383, -560.296379008843),
    (2.825041951576509, 2.250800624807111, 0.10244841118227667, 0.11893661372267927),
    (5.554489032296958, 0.4054470646605255, 0.007760942872596771, 0.10270948497434075),
    (3.4594981521604513, 1.3472933328628223, 0.06071119829138338, 0.14374543520105998),
    (-2.1819464132973496, -4.729618162494464, -19302182.28886457, -86644751.64250402),
    (3.2858127425775763, 0.25198740631478245, 0.015535032444281796, 0.17968852555959203),
    (-4.019939217675848, -5.224608809318992, -54252.30177576972, 126104.31508148904),
    (0.5, 0.0, 0.7788007830714049, 0.47892517290104347),
    (-3.0, 0.0, 0.00012340980408667956, -0.2011573170376004),
    (0.0, 1.0, 0.427583576155807, 0.0),
    (0.0, -2.0, 108.94090438997797, 0.0),
    (8.0, 8.0, 0.035397945774381066, 0.03512252557190742),
    (-7.5, -0.25, -0.002574493457507463, -0.0758243651311279),
)


def check_numerical_kernels() -> CheckResult:
    worst_fad = 0.0
    for zr, zi, wr, wi in _FADDEEVA_TABLE:
        got = faddeeva(complex(zr, zi))
        want = complex(wr, wi)
        worst_fad = max(worst_fad, abs(got - want) / abs(want))

    rng = np.random.default_rng(_GRID_SEED)
    worst_comp = 0.0
    for _ in range(1000):
        alpha = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        beta = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        total = (halfline_interference_integral(alpha, beta, 1)
                 + halfline_interference_integral(alpha, beta, -1))
        worst_comp = max(worst_comp, abs(total - coherent_overlap(alpha, beta)))
    passed = worst_fad <= 1e-10 and worst_comp <= 1e-12
    return CheckResult(
        name="numerical-kernels",
        passed=passed,
        detail=(f"Faddeeva max relative error {worst_fad:.3e} (tolerance 1e-10); "
                f"half-line completeness max deviation {worst_comp:.3e} (tolerance 1e-12)"))


CHECKS: dict[str, Callable[[], CheckResult]] = {
    "ghz-oracle-agreement": check_ghz_oracle_agreement,
    "svetlichny3-plateau": check_svetlichny3_plateau,
    "w-plateau": check_w_plateau,
    "svetlichny4-plateau": check_svetlichny4_plateau,
    "sasa-exactness": check_sasa_exactness,
    "wwzb-plateau": check_wwzb_plateau,
    "tripartite-scheme-ordering": check_tripartite_ordering,
    "cluster-scheme-ordering": check_cluster_ordering,
    "inefficiency-substitution": check_inefficiency_substitution,
    "lr-bounds": check_lr_bounds,
    "kerr-violation-exists": check_kerr_violation,
    "numerical-kernels": check_numerical_kernels,
}


def run_checks(names: Iterable[str] | None = None,
               flip_term: int | None = None) -> list[CheckResult]:
    """Run the named checks (all by default) in registry order."""
    selected = list(CHECKS) if names is None else list(names)
    results = []
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
        if name == "lr-bounds":
            results.append(check_lr_bounds(flip_term=flip_term))
        else:
            results.append(CHECKS[name]())
    return results
