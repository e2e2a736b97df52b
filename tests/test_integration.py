"""Correlation engine against analytic, spin, pure-state and dense references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import dense_reference
import pure_state_oracle
import qubit_oracle
from etsbell import integration
from etsbell.errors import NonconvergenceError
from etsbell.inequalities import INEQUALITIES, term_settings
from etsbell.integration import (
    Method,
    QuadratureConfig,
    converged_correlation,
    estimate_correlation,
    estimate_correlations,
)
from etsbell.measurement import (
    IGNORE,
    PAULI_ROTATIONS,
    DetectorModel,
    EffectiveRotation,
    PartySetting,
)
from etsbell.oracles import ghz_correlation_closed
from etsbell.states import FamilyKind, StateFamily

EQUATORIAL = [
    PartySetting(EffectiveRotation(math.pi / 2, g)) for g in (0.3, 1.1, 2.4)
]


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=0)
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=500)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(mc_samples=4)


def test_ghz_matches_closed_form():
    for V, d, eta in ((1.0, 1.0, 1.0), (5.0, 1.5, 1.0), (10.0, 2.0, 0.4),
                      (3.0, 0.7, 0.75)):
        fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, V, d)
        got = converged_correlation(fam, EQUATORIAL, DetectorModel(eta))
        want = ghz_correlation_closed(
            V, d, [s.rotation.phase for s in EQUATORIAL], eta)
        assert got == pytest.approx(want, abs=5e-9), (V, d, eta)


def test_beam_splitter_equals_conditional_at_unit_variance():
    # at V = 1 every mixture variable collapses to its centre, making the
    # rescaled preparation identical to the direct one
    settings = EQUATORIAL
    a = converged_correlation(
        StateFamily(FamilyKind.GHZ3_BEAM_SPLITTER, 1.0, 1.3), settings)
    b = converged_correlation(
        StateFamily(FamilyKind.GHZ3_CONDITIONAL, 1.0, 1.3), settings)
    assert a == pytest.approx(b, abs=1e-12)


def test_engine_matches_spin_oracle_at_large_displacement():
    rng = np.random.default_rng(7)
    states = {
        FamilyKind.GHZ3_CONDITIONAL: qubit_oracle.ghz_state(3),
        FamilyKind.GHZ4_CONDITIONAL: qubit_oracle.ghz_state(4),
        FamilyKind.W3: qubit_oracle.w_state(),
        FamilyKind.CLUSTER4_CONDITIONAL: qubit_oracle.cluster_state(),
    }
    for kind, state in states.items():
        fam = StateFamily(kind, V=10.0, d=40.0)
        pairs = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
                 for _ in range(fam.num_modes)]
        settings = [PartySetting(EffectiveRotation(t, g)) for t, g in pairs]
        got = converged_correlation(fam, settings)
        want = qubit_oracle.correlation(state, pairs)
        assert got == pytest.approx(want, abs=1e-9), kind


def test_kerr_phase_shifts_spin_limit():
    # branch coefficients (1, i) turn the GHZ phase sum into sum + pi/2
    rng = np.random.default_rng(11)
    state = np.zeros(8, dtype=complex)
    state[0], state[7] = 1.0, 1.0j
    state /= math.sqrt(2.0)
    fam = StateFamily(FamilyKind.GHZ3_KERR, V=10.0, d=40.0)
    pairs = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
             for _ in range(3)]
    settings = [PartySetting(EffectiveRotation(t, g)) for t, g in pairs]
    got = converged_correlation(fam, settings)
    want = qubit_oracle.correlation(state, pairs)
    assert got == pytest.approx(want, abs=1e-9)


def test_ignored_party_marginals():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 10.0, 40.0)
    z = PartySetting(PAULI_ROTATIONS["z"])
    assert converged_correlation(fam, [z, z, IGNORE]) == pytest.approx(
        1.0, abs=1e-9)
    x = PartySetting(PAULI_ROTATIONS["x"])
    assert converged_correlation(fam, [x, x, IGNORE]) == pytest.approx(
        0.0, abs=1e-9)


def test_zero_displacement_kills_equatorial_correlation():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 0.0)
    assert converged_correlation(fam, EQUATORIAL) == pytest.approx(
        0.0, abs=1e-10)


def test_engine_agrees_with_measurement_layer_when_separated():
    # both normalization conventions coincide once the branches separate
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 1.0, 2.5)
    rotations = [s.rotation for s in EQUATORIAL]
    state = pure_state_oracle.ghz_branches((2.5, 2.5, 2.5))
    det = DetectorModel(0.8)
    direct = pure_state_oracle.correlation(
        pure_state_oracle.apply_rotation(state, rotations), det)
    engine = converged_correlation(fam, EQUATORIAL, det)
    assert engine == pytest.approx(direct, abs=1e-9)


def _pure_state(kind: FamilyKind, d: float) -> pure_state_oracle.BranchSuperposition:
    """The family at V = 1, built from the dense reference's own family table."""
    coeffs, signs, variables = dense_reference.FAMILIES[kind.value]
    amps = {m: center * d * scale for center, scales in variables
            for m, scale in scales.items()}
    return pure_state_oracle.BranchSuperposition(
        num_modes=len(amps),
        branches=tuple((complex(c), tuple(s * amps[m] for m, s in enumerate(row)))
                       for c, row in zip(coeffs, signs)))


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_engine_matches_pure_state_oracle(kind):
    # At V = 1 every mixture variable sits at its center, so the engine's
    # value is one pure state's.  The oracle rotates that state branch by
    # branch and sums Faddeeva half-line kernels; its normalization agrees
    # with the engine's only once the branches separate, hence d = 4 (at
    # d <= 3 the W state still differs by up to 4e-7).  The oracle measures
    # every mode, so no party is left out here.
    rng = np.random.default_rng(43)
    family = StateFamily(kind, 1.0, 4.0)
    state = _pure_state(kind, 4.0)
    modes = family.num_modes
    for eta in (1.0, 0.7, (0.9, 0.3, 0.6, 1.0)[:modes]):
        detector = DetectorModel(eta)
        for _ in range(4):
            rotations = [EffectiveRotation(rng.uniform(0, 2 * math.pi),
                                           rng.uniform(0, 2 * math.pi))
                         for _ in range(modes)]
            want = pure_state_oracle.correlation(
                pure_state_oracle.apply_rotation(state, rotations), detector)
            got = converged_correlation(
                family, [PartySetting(r) for r in rotations], detector)
            assert got == pytest.approx(want, abs=1e-12), (eta, rotations)


def test_estimate_is_deterministic():
    fam = StateFamily(FamilyKind.W3, 5.0, 1.2)
    first = estimate_correlation(fam, EQUATORIAL)
    second = estimate_correlation(fam, EQUATORIAL)
    assert first == second


def test_node_doubling_stability():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    coarse = converged_correlation(fam, EQUATORIAL,
                                   config=QuadratureConfig(nodes_per_axis=40))
    fine = converged_correlation(fam, EQUATORIAL,
                                 config=QuadratureConfig(nodes_per_axis=60))
    assert coarse == pytest.approx(fine, abs=1e-8)


def test_uniform_detector_tuple_matches_scalar():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    a = converged_correlation(fam, EQUATORIAL, DetectorModel(0.55))
    b = converged_correlation(fam, EQUATORIAL, DetectorModel((0.55,) * 3))
    assert a == pytest.approx(b, abs=1e-12)


def test_detector_tuple_length_must_match_modes():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    for eta in ((0.55, 0.55), (0.55,) * 4):
        with pytest.raises(ValueError, match=f"3 modes .* {len(eta)} per-mode"):
            estimate_correlation(fam, EQUATORIAL, DetectorModel(eta))


DENSE_NODES = 24


@pytest.fixture
def tensor_grids(monkeypatch):
    """Route the engine through the dense reference's Gauss-Hermite axes.

    Both sides then sum over the same tensor nodes and must agree to
    rounding.  The moment memo is cleared on entry and on exit, so no
    moments formed on other grids are served here and none formed here
    outlive the test.
    """

    def tensor_axes(variables, detector, level, nodes_per_axis):
        grids = []
        for V, center, _scales in variables:
            x, wx = dense_reference.axis(center, V, DENSE_NODES)
            y, wy = dense_reference.axis(0.0, V, DENSE_NODES)
            grids.append((x, y, np.concatenate((wx, wy))))
        return grids

    monkeypatch.setattr(integration, "_deterministic_grids", tensor_axes)
    integration._deterministic_moments.cache_clear()
    yield DENSE_NODES
    integration._deterministic_moments.cache_clear()


def _detector_cases(modes: int):
    """(DetectorModel eta, per-mode etas): 1, 0.3 and an uneven tuple."""
    per_mode = (0.9, 0.3, 0.6, 1.0)[:modes]
    return [(1.0, (1.0,) * modes), (0.3, (0.3,) * modes), (per_mode, per_mode)]


def _random_angles(rng, spec):
    return tuple(
        tuple(EffectiveRotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
              for _ in range(count))
        for count in spec.settings_per_party)


def _stack(spec, angles):
    return [term_settings(spec, angles, indices) for _sign, indices in spec.terms]


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_separable_pass_matches_dense_reference(kind, tensor_grids):
    rng = np.random.default_rng(29)
    modes = StateFamily(kind, 1.0, 0.0).num_modes
    for V in (1.0, 5.0, 100.0):
        for eta, etas in _detector_cases(modes):
            angles = [(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
                      for _ in range(modes)]
            for unmeasured in (None, 1):
                term = [None if m == unmeasured else a for m, a in enumerate(angles)]
                settings = [IGNORE if a is None else PartySetting(EffectiveRotation(*a))
                            for a in term]
                num, den = dense_reference.correlation(
                    kind.value, V, 1.2, term, etas, tensor_grids)
                got, _err = estimate_correlation(
                    StateFamily(kind, V, 1.2), settings, DetectorModel(eta))
                assert got == pytest.approx(num / den, abs=1e-12), (V, eta, unmeasured)


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_stacked_terms_match_dense_reference(kind, tensor_grids):
    # every term of every functional with the family's party count, SASA's
    # unmeasured-party terms included, from one batched call per functional
    rng = np.random.default_rng(31)
    modes = StateFamily(kind, 1.0, 0.0).num_modes
    for spec in INEQUALITIES.values():
        if spec.parties != modes:
            continue
        stack = _stack(spec, _random_angles(rng, spec))
        for V in (1.0, 5.0, 100.0):
            for eta, etas in _detector_cases(modes):
                got = estimate_correlations(StateFamily(kind, V, 1.2), stack,
                                            DetectorModel(eta))
                assert len(got) == len(stack)
                for settings, (value, _err) in zip(stack, got):
                    term = [None if s.ignored else (s.rotation.theta, s.rotation.phase)
                            for s in settings]
                    num, den = dense_reference.correlation(
                        kind.value, V, 1.2, term, etas, tensor_grids)
                    assert value == pytest.approx(num / den, abs=1e-12), \
                        (spec.name, V, eta, term)


@pytest.mark.parametrize("config", [
    QuadratureConfig(),
    QuadratureConfig(method=Method.MONTE_CARLO, rel_tol=1e-2, mc_samples=2000),
], ids=["deterministic", "monte-carlo"])
def test_stacked_call_equals_one_term_calls(config):
    # bit for bit: a term's arithmetic must not depend on the rest of its stack
    rng = np.random.default_rng(37)
    memo = integration._deterministic_moments
    for kind, name in ((FamilyKind.GHZ3_KERR, "svetlichny3"), (FamilyKind.W3, "mermin3"),
                       (FamilyKind.CLUSTER4_CROSS_KERR, "sasa"),
                       (FamilyKind.CLUSTER4_CONDITIONAL, "wwzb4")):
        spec = INEQUALITIES[name]
        family = StateFamily(kind, 5.0, 1.3)
        detector = DetectorModel(0.7)
        stack = _stack(spec, _random_angles(rng, spec))
        memo.cache_clear()
        stacked = estimate_correlations(family, stack, detector, config)
        # nor on where it sits: the stack reversed, and one term repeated at
        # the front, in its own place and at the back; both reuse the moments
        # the memo keeps from the first call
        repeated = [stack[1]] + stack + [stack[1]]
        for reordered, want in ((stack[::-1], stacked[::-1]),
                                (repeated, [stacked[1]] + stacked + [stacked[1]])):
            assert estimate_correlations(family, reordered, detector, config) == want, name
        for settings, want in zip(stack, stacked):
            memo.cache_clear()
            assert estimate_correlation(family, settings, detector, config) == want, name


def test_moment_memo_never_serves_a_stale_entry():
    memo = integration._deterministic_moments
    family = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    base = (family, EQUATORIAL, DetectorModel(0.8), QuadratureConfig())
    memo.cache_clear()
    first = estimate_correlation(*base)
    hits = memo.cache_info().hits
    assert estimate_correlation(*base) == first
    assert memo.cache_info().hits > hits
    variants = {
        "eta": (family, EQUATORIAL, DetectorModel(0.5), QuadratureConfig()),
        "eta per mode": (family, EQUATORIAL, DetectorModel((0.8, 0.8, 0.5)),
                         QuadratureConfig()),
        "nodes_per_axis": (family, EQUATORIAL, DetectorModel(0.8),
                           QuadratureConfig(nodes_per_axis=24)),
        "family kind": (StateFamily(FamilyKind.GHZ3_BEAM_SPLITTER, 5.0, 1.5),
                        EQUATORIAL, DetectorModel(0.8), QuadratureConfig()),
        "displacement": (StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 2.5),
                         EQUATORIAL, DetectorModel(0.8), QuadratureConfig()),
        "unmeasured pattern": (family, EQUATORIAL[:2] + [IGNORE], DetectorModel(0.8),
                               QuadratureConfig()),
    }
    for name, variant in variants.items():
        memo.cache_clear()
        estimate_correlation(*base)
        warm = estimate_correlation(*variant)
        memo.cache_clear()
        assert warm == estimate_correlation(*variant), name
        assert warm[0] != first[0], name


def test_monte_carlo_agrees_with_quadrature():
    for V, d in ((5.0, 1.0), (10.0, 2.0)):
        fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, V, d)
        gh_value, gh_err = estimate_correlation(fam, EQUATORIAL)
        cfg = QuadratureConfig(method=Method.MONTE_CARLO, rel_tol=5e-3,
                               mc_samples=200_000)
        mc_value, mc_err = estimate_correlation(fam, EQUATORIAL, config=cfg)
        assert abs(mc_value - gh_value) <= 3.0 * (mc_err + gh_err + 1e-12)


def test_monte_carlo_is_seeded():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.0)
    cfg = QuadratureConfig(method=Method.MONTE_CARLO, rel_tol=5e-3)
    assert estimate_correlation(fam, EQUATORIAL, config=cfg) == \
        estimate_correlation(fam, EQUATORIAL, config=cfg)
    other = QuadratureConfig(method=Method.MONTE_CARLO, rel_tol=5e-3,
                             mc_seed=1)
    assert estimate_correlation(fam, EQUATORIAL, config=other) != \
        estimate_correlation(fam, EQUATORIAL, config=cfg)


def test_nonconvergence_carries_partial_result():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.0)
    cfg = QuadratureConfig(method=Method.MONTE_CARLO, rel_tol=1e-12,
                           mc_samples=1000)
    with pytest.raises(NonconvergenceError) as info:
        estimate_correlation(fam, EQUATORIAL, config=cfg)
    assert info.value.value is not None
    assert info.value.err_estimate is not None
    assert info.value.err_estimate > 0.0


# Families whose state and detection treat every party alike: permuting the
# parties together with their efficiencies must leave a correlation unchanged.
# The cluster states are not symmetric.
SYMMETRIC_KINDS = (FamilyKind.GHZ3_BEAM_SPLITTER, FamilyKind.GHZ3_CONDITIONAL,
                   FamilyKind.GHZ3_KERR, FamilyKind.W3, FamilyKind.GHZ4_CONDITIONAL)


@hst.composite
def _random_point(draw, kinds):
    """A family at V ∈ {1, 5, 100} with random d, per-mode η and angles."""
    kind = draw(hst.sampled_from(kinds))
    V = draw(hst.sampled_from((1.0, 5.0, 100.0)))
    d = draw(hst.floats(0.0, 3.0)) * math.sqrt(V)
    modes = StateFamily(kind, V, d).num_modes
    angle = hst.floats(0.0, 2.0 * math.pi)
    rotations = draw(hst.lists(hst.tuples(angle, angle), min_size=modes, max_size=modes))
    etas = draw(hst.lists(hst.floats(0.05, 1.0), min_size=modes, max_size=modes))
    return StateFamily(kind, V, d), [EffectiveRotation(*r) for r in rotations], etas


@settings(max_examples=60, deadline=None)
@given(_random_point(list(FamilyKind)))
def test_correlation_is_bounded(point):
    family, rotations, etas = point
    value, _err = estimate_correlation(family, [PartySetting(r) for r in rotations],
                                       DetectorModel(tuple(etas)))
    assert abs(value) <= 1.0


@settings(max_examples=40, deadline=None)
@given(_random_point(SYMMETRIC_KINDS), hst.data())
def test_symmetric_families_are_party_permutation_invariant(point, data):
    family, rotations, etas = point
    order = data.draw(hst.permutations(range(family.num_modes)))
    value, _err = estimate_correlation(family, [PartySetting(r) for r in rotations],
                                       DetectorModel(tuple(etas)))
    permuted, _err = estimate_correlation(
        family, [PartySetting(rotations[m]) for m in order],
        DetectorModel(tuple(etas[m] for m in order)))
    assert permuted == pytest.approx(value, abs=1e-12), order
