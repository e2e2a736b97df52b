"""Correlation engine against analytic, spin, pure-state and dense references."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import dense_reference
import phase_space
import pure_state_oracle
import qubit_oracle
from etsbell import integration
from etsbell.errors import NonconvergenceError
from etsbell.inequalities import (INEQUALITIES, canonical_angles, evaluate_curve_with_error,
                                  evaluate_with_error)
from etsbell.integration import (
    QuadratureConfig,
    converged_correlation,
    estimate_correlation,
    estimate_curve,
    point_result,
)
from etsbell.measurement import PAULI_ROTATIONS, DetectorModel, EffectiveRotation
from etsbell.oracles import ghz_correlation_closed
from etsbell.states import FamilyKind, StateFamily, family_structure

EQUATORIAL = [EffectiveRotation(math.pi / 2, g) for g in (0.3, 1.1, 2.4)]


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    # True used to run as a tolerance of 1
    with pytest.raises(TypeError, match="rel_tol must be a real number, got True"):
        QuadratureConfig(rel_tol=True)


def test_ghz_matches_closed_form():
    for V, d, eta in ((1.0, 1.0, 1.0), (5.0, 1.5, 1.0), (10.0, 2.0, 0.4),
                      (3.0, 0.7, 0.75), (5.0, 1.0, 1.0), (10.0, 2.0, 1.0)):
        fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, V, d)
        got = converged_correlation(fam, EQUATORIAL, DetectorModel(eta))
        want = ghz_correlation_closed(
            V, d, [r.phase for r in EQUATORIAL], eta)
        assert got == pytest.approx(want, abs=5e-9), (V, d, eta)


def test_beam_splitter_equals_conditional_at_unit_variance():
    # at V = 1 every mixture variable collapses to its centre, making the
    # rescaled preparation identical to the direct one
    a = converged_correlation(
        StateFamily(FamilyKind.GHZ3_BEAM_SPLITTER, 1.0, 1.3), EQUATORIAL)
    b = converged_correlation(
        StateFamily(FamilyKind.GHZ3_CONDITIONAL, 1.0, 1.3), EQUATORIAL)
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
        rotations = [EffectiveRotation(t, g) for t, g in pairs]
        got = converged_correlation(fam, rotations)
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
    rotations = [EffectiveRotation(t, g) for t, g in pairs]
    got = converged_correlation(fam, rotations)
    want = qubit_oracle.correlation(state, pairs)
    assert got == pytest.approx(want, abs=1e-9)


def test_ignored_party_marginals():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 10.0, 40.0)
    z = PAULI_ROTATIONS["z"]
    assert converged_correlation(fam, [z, z, None]) == pytest.approx(
        1.0, abs=1e-9)
    x = PAULI_ROTATIONS["x"]
    assert converged_correlation(fam, [x, x, None]) == pytest.approx(
        0.0, abs=1e-9)


def test_zero_displacement_kills_equatorial_correlation():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 0.0)
    assert converged_correlation(fam, EQUATORIAL) == pytest.approx(
        0.0, abs=1e-10)


def test_engine_agrees_with_measurement_layer_when_separated():
    # both normalization conventions coincide once the branches separate
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 1.0, 2.5)
    state = pure_state_oracle.ghz_branches((2.5, 2.5, 2.5))
    det = DetectorModel(0.8)
    direct = pure_state_oracle.correlation(
        pure_state_oracle.apply_rotation(state, EQUATORIAL), det)
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
    # d <= 3 the W state still differs by up to 4e-7; the engine's own
    # normalization is pinned at small d by the test below).  The oracle
    # measures every mode, so no party is left out here.
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
            got = converged_correlation(family, rotations, detector)
            assert got == pytest.approx(want, abs=1e-12), (eta, rotations)


@pytest.mark.parametrize("kind, name", [(FamilyKind.GHZ3_CONDITIONAL, "svetlichny3"),
                                        (FamilyKind.W3, "svetlichny3"),
                                        (FamilyKind.CLUSTER4_CONDITIONAL, "wwzb4")])
def test_engine_normalizes_the_rotated_numerator_by_the_unrotated_gram_norm(kind, name):
    # The engine's measurement model at V = 1, where the ± pairs overlap:
    # each pair is rotated as the family table labels it, and the rotated
    # sign numerator Σ_ij c_i·c̄_j·Π_m (K₊ − K₋) is divided by the Gram norm
    # of the unrotated state (an unmeasured mode contributes K₊ + K₋, its
    # overlap).  The oracle's correlation divides by the rotated trace
    # instead, so the two differ wherever the pairs are not orthogonal.
    spec = INEQUALITIES[name]
    angles = canonical_angles(spec, kind).angles
    detector = DetectorModel(0.8)
    largest_gap = 0.0
    for d in (0.3, 0.7, 1.0):
        state = _pure_state(kind, d)
        for _sign, indices in spec.terms:
            rotations = [None if k is None else angles[p][k] for p, k in enumerate(indices)]
            rotated = pure_state_oracle.apply_rotation(state, rotations)
            numerator = 0.0
            for c_i, amps_i in rotated.branches:
                for c_j, amps_j in rotated.branches:
                    product = c_i * complex(c_j).conjugate()
                    for rotation, a_i, a_j in zip(rotations, amps_i, amps_j):
                        plus, minus = (phase_space._halfline_kernel(a_i, a_j, sign, 0.8)
                                       for sign in (1, -1))
                        product *= plus + minus if rotation is None else plus - minus
                    numerator += product
            want = numerator.real / state.gram_norm()
            got, _err = estimate_correlation(StateFamily(kind, 1.0, d), rotations, detector)
            assert got == pytest.approx(want, abs=1e-12), (d, indices)
            if None not in rotations:
                largest_gap = max(largest_gap, abs(
                    got - pure_state_oracle.correlation(rotated, detector)))
    assert largest_gap > 1e-2


def test_engine_reads_ghz3_bs_elements_by_their_label():
    # The other convention of the measurement model: at V = 1 the ghz3-bs
    # mixture has one node, α = √3·d per mode, and its two branches are
    # each other's negatives with equal weights, so ψ_α = ψ_{−α} is the
    # same vector.  Yet the labels α = ±1 (d = ±1/√3) give every term of
    # svetlichny3 the same denominator and opposite numerators, because
    # each ± pair is rotated as the table labels it.  The engine takes
    # d ≥ 0 only, so it reads the + label's ratio; the dense reference
    # carries the − label.
    coeffs, signs, _variables = dense_reference.FAMILIES["ghz3-bs"]
    assert coeffs[0] == coeffs[1] and signs[1] == tuple(-s for s in signs[0])
    spec = INEQUALITIES["svetlichny3"]
    kind = FamilyKind.GHZ3_BEAM_SPLITTER
    d = 1.0 / math.sqrt(3.0)
    with pytest.raises(ValueError, match="d must be finite and >= 0"):
        StateFamily(kind, 1.0, -d)
    for rotations in _term_rotations(spec, canonical_angles(spec, kind).angles):
        term = _dense_term(rotations)
        plus_num, plus_den = dense_reference.correlation(kind.value, 1.0, d, term, (0.8,) * 3, 1)
        minus_num, minus_den = dense_reference.correlation(kind.value, 1.0, -d, term,
                                                           (0.8,) * 3, 1)
        assert minus_den == pytest.approx(plus_den, abs=1e-15)
        assert minus_num == pytest.approx(-plus_num, abs=1e-15)
        assert abs(plus_num) == pytest.approx(0.378407, abs=1e-6)
        assert plus_den == pytest.approx(2.270671, abs=1e-6)
        got, _err = estimate_correlation(StateFamily(kind, 1.0, d), rotations,
                                         DetectorModel(0.8))
        assert got == pytest.approx(plus_num / plus_den, abs=1e-12), term


def test_estimate_is_deterministic():
    fam = StateFamily(FamilyKind.W3, 5.0, 1.2)
    first = estimate_correlation(fam, EQUATORIAL)
    second = estimate_correlation(fam, EQUATORIAL)
    assert first == second


def test_err_bounds_the_deviation_from_a_fine_reference():
    # The reported err should bound the deviation from a fine reference
    # (rel_tol 1e-13) within 10x plus roundoff.  It is no guarantee: the
    # first pass's rules of 40 and 80 nodes could still agree by chance,
    # but none of the 300 seeded estimates drawn here strays; with a first
    # rule of 10 nodes, 2 of them did.
    rng = np.random.default_rng(61)
    pairs = (("ghz3-bs", "svetlichny3"), ("ghz3-cond", "svetlichny3"),
             ("ghz3-kerr", "svetlichny3"), ("w3", "svetlichny3"), ("w3", "mermin3"),
             ("ghz4-cond", "svetlichny4"), ("cluster4-cond", "wwzb4"),
             ("cluster4-cond", "sasa"), ("cluster4-xkerr", "sasa"))
    cases = 300
    strays = []
    for _ in range(cases):
        family, name = pairs[rng.integers(len(pairs))]
        spec = INEQUALITIES[name]
        V = float(rng.uniform(1.0, 10.6))
        point = StateFamily(FamilyKind(family), V, float(rng.uniform(0.0, 4.0 * math.sqrt(V))))
        detector = DetectorModel(float(rng.uniform(0.3, 1.0)))
        rel_tol = float(rng.choice([1e-5, 1e-7, 1e-9]))
        angles = _random_angles(rng, spec)
        reference, _err = evaluate_with_error(spec, point, angles, detector,
                                              QuadratureConfig(rel_tol=1e-13))
        value, err = evaluate_with_error(spec, point, angles, detector,
                                         QuadratureConfig(rel_tol=rel_tol))
        if abs(value - reference) > 10.0 * err + 1e-12:
            strays.append((family, name, point, rel_tol, value - reference, err))
    assert strays == []


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

    Every rule of every pass, shift rule or composite, becomes the dense
    reference's rule: its nodes around the centre, its weights, and one
    node at σ = 0, where the one-node Hermite rule is the delta rule.  Both
    sides then sum over the same tensor nodes and must agree to rounding.
    Every bounded engine memo is cleared on entry and on exit, so no plan
    or moments formed on other nodes are served here and none formed here
    outlive the test.
    """

    def dense_rule(sigma):
        if sigma == 0.0:
            return np.array([0.0]), np.array([1.0])
        t, w = np.polynomial.hermite.hermgauss(DENSE_NODES)
        return math.sqrt(2.0) * sigma * t, w / math.sqrt(math.pi)

    def dense_hermite(size):
        return np.polynomial.hermite.hermgauss(1 if size == 1 else DENSE_NODES)

    def tensor_axis(mu, sigma, smax, eta_min, order):
        offsets, w = dense_rule(sigma)
        return mu + offsets, w

    _clear_memos()
    monkeypatch.setattr(integration, "_gh_rule", dense_hermite)
    monkeypatch.setattr(integration, "_axis_rule", tensor_axis)
    yield DENSE_NODES
    _clear_memos()


def _detector_cases(modes: int):
    """(DetectorModel eta, per-mode etas): 1, 0.3 and an uneven tuple."""
    per_mode = (0.9, 0.3, 0.6, 1.0)[:modes]
    return [(1.0, (1.0,) * modes), (0.3, (0.3,) * modes), (per_mode, per_mode)]


def _random_angles(rng, spec):
    return tuple(
        tuple(EffectiveRotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
              for _ in range(count))
        for count in spec.settings_per_party)


def _term_rotations(spec, angles):
    """Each term's rotation per mode, None where the term leaves it unmeasured."""
    return [[None if idx is None else angles[p][idx] for p, idx in enumerate(indices)]
            for _sign, indices in spec.terms]


def _estimate_stack(family, stack, detector=None, config=None):
    """Every term of ``stack`` from one batched call, with one rotation per
    measured entry, so that no two terms share a row of the rotation table."""
    position = itertools.count()
    index = [[-1 if r is None else next(position) for r in term] for term in stack]
    rotations = [r for term in stack for r in term if r is not None]
    results, _derivatives = point_result(*estimate_curve(
        (family,), *integration.rotation_angles(rotations), integration.term_layout(index),
        detector, config))
    return results


def _dense_term(rotations):
    return [None if r is None else (r.theta, r.phase) for r in rotations]


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
                rotations = [None if a is None else EffectiveRotation(*a) for a in term]
                num, den = dense_reference.correlation(
                    kind.value, V, 1.2, term, etas, tensor_grids)
                got, _err = estimate_correlation(
                    StateFamily(kind, V, 1.2), rotations, DetectorModel(eta))
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
        stack = _term_rotations(spec, _random_angles(rng, spec))
        for V in (1.0, 5.0, 100.0):
            for eta, etas in _detector_cases(modes):
                got = _estimate_stack(StateFamily(kind, V, 1.2), stack, DetectorModel(eta))
                assert len(got) == len(stack)
                for rotations, (value, _err) in zip(stack, got):
                    term = _dense_term(rotations)
                    num, den = dense_reference.correlation(
                        kind.value, V, 1.2, term, etas, tensor_grids)
                    assert value == pytest.approx(num / den, abs=1e-12), \
                        (spec.name, V, eta, term)


@pytest.mark.parametrize("kind", [FamilyKind.GHZ4_CONDITIONAL, FamilyKind.CLUSTER4_CROSS_KERR])
def test_partly_shared_detector_matches_dense_reference(kind, tensor_grids):
    # the pass shares axis factors and moments between modes and variables
    # that are equal in value; with η = (0.5, 0.5, 0.7, 0.7) the first two
    # modes may share and the last two may not share with them
    rng = np.random.default_rng(41)
    etas = (0.5, 0.5, 0.7, 0.7)
    for spec in (INEQUALITIES["svetlichny4"], INEQUALITIES["wwzb4"], INEQUALITIES["sasa"]):
        stack = _term_rotations(spec, _random_angles(rng, spec))
        for V in (1.0, 5.0, 100.0):
            got = _estimate_stack(StateFamily(kind, V, 1.2), stack, DetectorModel(etas))
            for rotations, (value, _err) in zip(stack, got):
                term = _dense_term(rotations)
                num, den = dense_reference.correlation(
                    kind.value, V, 1.2, term, etas, tensor_grids)
                assert value == pytest.approx(num / den, abs=1e-12), (spec.name, V, term)


@pytest.mark.parametrize("config", [QuadratureConfig()], ids=["deterministic"])
def test_stacked_call_equals_one_term_calls(config):
    # bit for bit: a term's arithmetic must not depend on the rest of its stack
    rng = np.random.default_rng(37)
    memo = integration._deterministic_moments
    # SASA has two unmeasured patterns, so both share each of its calls; on
    # cluster4-cond at V = 10 the two patterns' Gram moments differ in the
    # last bit, so a term given the other pattern's denominator would show
    for kind, name, V in ((FamilyKind.GHZ3_KERR, "svetlichny3", 5.0),
                          (FamilyKind.W3, "mermin3", 5.0),
                          (FamilyKind.CLUSTER4_CROSS_KERR, "sasa", 5.0),
                          (FamilyKind.CLUSTER4_CONDITIONAL, "sasa", 5.0),
                          (FamilyKind.CLUSTER4_CONDITIONAL, "sasa", 10.0),
                          (FamilyKind.CLUSTER4_CONDITIONAL, "wwzb4", 5.0)):
        spec = INEQUALITIES[name]
        family = StateFamily(kind, V, 1.3)
        detector = DetectorModel(0.7)
        angles = _random_angles(rng, spec)
        stack = _term_rotations(spec, angles)
        memo.cache_clear()
        stacked = _estimate_stack(family, stack, detector, config)
        # nor on the index it is gathered through: the functional's own
        # layout shares each party setting's rotation among its terms
        rotations = [r for party in angles for r in party]
        results, derivatives = point_result(*estimate_curve(
            (family,), *integration.rotation_angles(rotations), spec._layout, detector, config))
        assert results == stacked
        assert derivatives.size == 0
        # nor on where it sits: the stack reversed, and one term repeated at
        # the front, in its own place and at the back; both reuse the moments
        # the memo keeps from the first call
        repeated = [stack[1]] + stack + [stack[1]]
        for reordered, want in ((stack[::-1], stacked[::-1]),
                                (repeated, [stacked[1]] + stacked + [stacked[1]])):
            assert _estimate_stack(family, reordered, detector, config) == want, name
        for rotations, want in zip(stack, stacked):
            memo.cache_clear()
            assert estimate_correlation(family, rotations, detector, config) == want, name


def _lone_level_ladder(family, detector, layout, theta, phase, rel_tol):
    """Each term's (value, err) and level, from one engine pass and one
    contraction per rule of the ladder (a level) of every row of
    ``layout``; and every level's row values, and the last level's errors."""
    terms = len(layout.index) - len(layout.owners)
    table_key = (integration._array_key(theta), integration._array_key(phase),
                 layout.owners.size > 0)
    curve = (family,)
    found = [None] * terms
    levels = []
    ladder = integration._ladder(integration._variable_sigma(family.V))
    lone_rules = [(shift, (size,)) for shift, sizes in ladder for size in sizes]
    for level, rules in enumerate(lone_rules):
        grids = _pass_grids(curve, detector, rules, layout)
        moments = integration._engine_pass(curve, detector, rules, layout.patterns,
                                           layout.stack_rows, grids)
        num, den = integration._terms(moments, table_key, layout)
        ((values,),) = num / den
        errs = np.full(values.shape, math.inf) if not levels else np.abs(values - levels[-1])
        for t, (value, err) in enumerate(zip(values[:terms].tolist(), errs[:terms].tolist())):
            if found[t] is None and err <= rel_tol * max(abs(value), 1.0):
                found[t] = ((value, err), level)
        levels.append(values)
    return found, levels, errs


def test_stacked_levels_equal_lone_level_contractions():
    # Levels 0 and 1 share one engine pass and one contraction; at narrow
    # weights (V = 5) and a tight tolerance the ladder climbs past them, and
    # every term's result, and the stall message, must be what one level at
    # a time gives.
    rng = np.random.default_rng(41)
    spec = INEQUALITIES["svetlichny3"]
    family = StateFamily(FamilyKind.GHZ3_KERR, 5.0, 1.3)
    detector = DetectorModel(0.7)
    angles = _random_angles(rng, spec)
    theta, phase = integration.rotation_angles([r for party in angles for r in party])
    integration._deterministic_moments.cache_clear()
    for rel_tol, converges in ((1e-13, True), (1e-17, False)):
        found, levels, errs = _lone_level_ladder(family, detector, spec._layout, theta, phase,
                                                 rel_tol)
        config = QuadratureConfig(rel_tol=rel_tol)
        assert (None not in found) == converges
        if converges:
            assert max(level for _result, level in found) >= 2
            got = _estimate_stack(family, _term_rotations(spec, angles), detector, config)
            assert got == [result for result, _level in found]
            continue
        t = found.index(None)
        with pytest.raises(NonconvergenceError) as info:
            _estimate_stack(family, _term_rotations(spec, angles), detector, config)
        value, err = float(levels[-1][t]), float(errs[t])
        message = f"correlation refinement stalled at {value!r} with error {err:.3g}"
        assert str(info.value) == message
        assert (info.value.value, info.value.err_estimate) == (value, err)
    # At V = 8 the terms of a gradient layout stop at different levels, and
    # each derivative row is the lone contraction's row at its term's level.
    family = StateFamily(FamilyKind.GHZ3_KERR, 8.0, 1.3)
    layout = spec._gradient_layout
    found, levels, _errs = _lone_level_ladder(family, detector, layout, theta, phase, 1e-13)
    stops = [level for _result, level in found]
    assert len(set(stops)) > 1
    results, derivatives = point_result(*estimate_curve(
        (family,), theta, phase, layout, detector, QuadratureConfig(rel_tol=1e-13)))
    assert results == [result for result, _level in found]
    terms = len(found)
    want = [levels[stops[owner]][terms + j] for j, owner in enumerate(layout.owners)]
    assert derivatives.tobytes() == np.array(want).tobytes()


def _pass_grids(curve, detector, rules, layout):
    """The grids of a pass of ``curve`` on ``rules``, from its plan."""
    first = curve[0]
    plan = integration._pass_plan(first.kind, first.V, detector, rules, layout.patterns,
                                  layout.stack_rows)
    return integration._deterministic_grids(curve, plan, rules)


def _spy_engine_passes(monkeypatch):
    """Record the ``grids`` of every engine pass, and the ladder pass,
    (shift, sizes), of every grid set, from here on."""
    passes = []
    levels = []
    engine_pass = integration._engine_pass
    deterministic_grids = integration._deterministic_grids

    def pass_spy(curve, detector, rules, patterns, stack_rows, grids):
        passes.append(grids)
        return engine_pass(curve, detector, rules, patterns, stack_rows, grids)

    def grids_spy(curve, plan, rules):
        levels.append(rules)
        return deterministic_grids(curve, plan, rules)

    monkeypatch.setattr(integration, "_engine_pass", pass_spy)
    monkeypatch.setattr(integration, "_deterministic_grids", grids_spy)
    integration._deterministic_moments.cache_clear()
    return passes, levels


def test_a_level_one_estimate_is_one_engine_pass(monkeypatch):
    # an estimate that stops at level 1 on a shift rule forms both levels in
    # one pass: per node source, both levels' nodes side by side, each
    # level's end, and w holding both levels' x weights
    passes, levels = _spy_engine_passes(monkeypatch)
    family = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    detector = DetectorModel(0.7)
    estimate_correlation(family, EQUATORIAL, detector)
    n = 40
    assert levels == [(True, (n, 2 * n))]
    (grids,) = passes
    layout = integration.term_layout([[0, 1, 2]])
    lone = [_pass_grids((family,), detector, (True, (size,)), layout) for size in (n, 2 * n)]
    # the three variables share one centre per unit d, and so one grid
    assert len(grids) == 1
    for (x, ends, w), (x0, ends0, lone0), (x1, ends1, lone1) in zip(grids, *lone):
        assert x.shape == (1, 3 * n) and ends == (0, n, 3 * n)
        assert (ends0, ends1) == ((0, n), (0, 2 * n))
        assert x.tobytes() == np.concatenate((x0, x1), axis=-1).tobytes()
        assert w.tobytes() == np.concatenate((lone0, lone1)).tobytes()


@pytest.mark.parametrize("sigma", [0.0, 1.5, 1.6])
def test_the_ladder_never_repeats_a_rule(sigma):
    # a rule checked against itself would report err 0 having checked nothing
    ladder = integration._ladder(sigma)
    for kind in (True, False):
        sizes = [size for shift, rules in ladder if shift is kind for size in rules]
        assert sizes == sorted(set(sizes)), sizes
    # every Hermite rule is one that hermgauss gives finite weights for
    for size in (size for shift, rules in ladder if shift for size in rules):
        assert np.isfinite(np.polynomial.hermite.hermgauss(size)[1]).all()


def test_a_delta_estimate_is_one_pass_of_one_node(monkeypatch):
    # at V = 1 the delta rule is the one-node Hermite rule: one pass of one
    # rule, whose node is the centre and whose weight is exactly 1, and
    # which reports err 0 since nothing finer exists
    passes, levels = _spy_engine_passes(monkeypatch)
    family = StateFamily(FamilyKind.W3, 1.0, 1.2)
    value, err = estimate_correlation(family, EQUATORIAL, DetectorModel(0.7))
    assert levels == [(True, (1,))]
    (grids,) = passes
    for (x, ends, w), (_V, centre, _scales) in zip(grids, family_structure(family)[2],
                                                   strict=True):
        assert x.tolist() == [[centre]]
        assert ends == (0, 1)
        assert w.tolist() == [1.0]
    assert err == 0.0 and math.isfinite(value)


def test_a_pass_forms_one_grid_per_node_source():
    # variables that share their x nodes share one grid: on a shift rule the
    # nodes are each point's centre plus the frame's offsets, on the
    # composite rule the joined windowed rules around the centre, whose
    # panels follow the largest scale and the smallest η of the variable
    n = 40
    sigma = integration._variable_sigma(5.0)
    curve = tuple(StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, d) for d in (0.5, 1.5))
    layout = INEQUALITIES["svetlichny3"]._layout
    (grid,) = _pass_grids(curve, DetectorModel(0.7), (True, (n, 2 * n)), layout)
    assert len(family_structure(curve[0])[2]) == 3
    rules = [np.polynomial.hermite.hermgauss(size) for size in (n, 2 * n)]
    offsets = np.concatenate([math.sqrt(2.0) * sigma * t for t, _w in rules])
    centres = np.array([[family_structure(family)[2][0][1]] for family in curve])
    assert grid[0].tobytes() == (centres + offsets).tobytes()
    assert grid[1] == (0, n, 3 * n)
    assert grid[2].tobytes() == np.concatenate([w / math.sqrt(math.pi)
                                                for _t, w in rules]).tobytes()

    family = StateFamily(FamilyKind.CLUSTER4_CROSS_KERR, 100.0, 1.2)
    etas = (0.9, 0.3, 0.6, 1.0)
    grids = _pass_grids((family,), DetectorModel(etas), (False, (12, 24)),
                        INEQUALITIES["sasa"]._layout)
    variables = family_structure(family)[2]
    assert len(grids) == len(variables) == 2
    for (x, ends, w), (V, centre, scales) in zip(grids, variables):
        smax = max(scales.values())
        eta_min = min(etas[m] for m in scales)
        rules = [integration._axis_rule(centre, integration._variable_sigma(V), smax, eta_min,
                                        order) for order in (12, 24)]
        assert x.tobytes() == np.concatenate([nodes for nodes, _w in rules])[None].tobytes()
        assert ends == (0, len(rules[0][0]), len(rules[0][0]) + len(rules[1][0]))
        assert w.tobytes() == np.concatenate([weights for _x, weights in rules]).tobytes()


def test_a_point_on_the_composite_tail_makes_one_pass_per_level(monkeypatch):
    # w3 at V = 10 (σ = 1.5) climbs past Gauss-Hermite to the composite rule
    # at levels 3 and 4; each later level is a pass of its own, of one level
    passes, levels = _spy_engine_passes(monkeypatch)
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.W3).angles
    evaluate_with_error(spec, StateFamily(FamilyKind.W3, 10.0, 1.0), angles)
    assert levels == [(True, (40, 80)), (True, (160,)), (False, (12,)), (False, (24,))]
    assert len(passes) == len(levels)
    for grids, (_shift, sizes) in zip(passes, levels):
        for x, ends, w in grids:
            assert len(ends) == len(sizes) + 1
            assert x.shape == (1, ends[-1]) and w.shape == (ends[-1],)


def _panel_by_panel_rule(mu, sigma, smax, eta_min, order):
    """The windowed composite rule built panel by panel: the edges in plain
    Python floats, then each panel's nodes and weights on its own, with the
    Gaussian density folded in over every node at the end."""
    lo = mu - integration._RANGE_SIGMAS * sigma
    hi = mu + integration._RANGE_SIGMAS * sigma
    zf = max(integration._FINE_ERF_HALFWIDTH / smax,
             integration._FINE_DAWSON_HALFWIDTH / (math.sqrt(2.0) * max(eta_min, 1e-3) * smax))
    edges = [lo]

    def extend(stop, width):
        start = edges[-1]
        if stop > start:
            count = max(1, math.ceil((stop - start) / width))
            step = (stop - start) / count
            edges.extend(start + k * step for k in range(1, count + 1))

    if min(hi, zf) > max(lo, -zf):
        extend(max(lo, -zf), sigma)
        extend(min(hi, zf), integration._FINE_PANEL_FRACTION / smax)
    extend(hi, sigma)
    t, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        nodes.extend(mid + half * tk for tk in t.tolist())
        weights.extend(half * wk for wk in w.tolist())
    nodes = np.array(nodes)
    density = np.exp(-0.5 * ((nodes - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return nodes, np.array(weights) * density


def test_composite_rule_matches_a_panel_by_panel_build():
    rng = np.random.default_rng(29)
    seen = set()
    for case in range(240):
        sigma = integration._variable_sigma(10.0 ** rng.uniform(1.0, 6.0))
        smax = float(rng.uniform(0.3, 2.0))
        # every fourth case at the η floor, where the fine window is widest
        eta_min = float(rng.uniform(0.05, 1.0)) if case % 4 else float(rng.choice([0.0, 5e-4]))
        zf = max(integration._FINE_ERF_HALFWIDTH / smax,
                 integration._FINE_DAWSON_HALFWIDTH
                 / (math.sqrt(2.0) * max(eta_min, 1e-3) * smax))
        reach = integration._RANGE_SIGMAS * sigma
        side = float(rng.choice([-1.0, 1.0]))
        # the fine window inside [lo, hi], astride lo or hi, or absent
        mu = [float(rng.uniform(-1.0, 1.0)) * max(reach - zf, 0.0),
              side * (reach + float(rng.uniform(-0.9, 0.9)) * zf),
              side * (reach + zf) * float(rng.uniform(1.5, 50.0))][case % 3]
        lo, hi = mu - reach, mu + reach
        seen.add("inside" if lo <= -zf and zf <= hi else
                 "absent" if hi <= -zf or zf <= lo else
                 "clipped by lo" if lo > -zf else "clipped by hi")
        order = (12, 24, 48)[case // 3 % 3]  # every order at every placement
        nodes, weights = integration._axis_rule(mu, sigma, smax, eta_min, order)
        want_nodes, want_weights = _panel_by_panel_rule(mu, sigma, smax, eta_min, order)
        assert nodes.tobytes() == want_nodes.tobytes(), (mu, sigma, smax, eta_min, order)
        assert weights.tobytes() == want_weights.tobytes(), (mu, sigma, smax, eta_min, order)
    assert seen == {"inside", "clipped by lo", "clipped by hi", "absent"}


def test_a_composite_plan_forms_each_y_rule_once(monkeypatch):
    # ghz4-cond's four variables are equal, one node source: its first
    # composite pass at V = 100 asks for one y rule (centred at 0) per order
    # and one x rule per order, where a y rule per variable made 8 requests
    requests = []
    axis_rule = integration._axis_rule

    def spy(mu, sigma, smax, eta_min, order):
        requests.append((mu, order))
        return axis_rule(mu, sigma, smax, eta_min, order)

    _clear_memos()
    monkeypatch.setattr(integration, "_axis_rule", spy)
    layout = INEQUALITIES["svetlichny4"]._layout
    family = StateFamily(FamilyKind.GHZ4_CONDITIONAL, 100.0, 2.0)
    rules = (False, (12, 24))
    assert integration._ladder(integration._variable_sigma(100.0))[0] == rules
    plan, _moments = integration._deterministic_moments((family,), DetectorModel(0.8), rules,
                                                         layout.patterns, layout.stack_rows)
    assert len(plan.variables) == 4 and len(plan.nodes) == 1
    assert sorted(r for r in requests if r[0] == 0.0) == [(0.0, 12), (0.0, 24)]
    assert sorted(r for r in requests if r[0] != 0.0) == [(2.0, 12), (2.0, 24)]
    _clear_memos()


def _clear_memos():
    """Empty every bounded memo of the engine, plan and angle memos included."""
    for memo in vars(integration).values():
        if hasattr(memo, "cache_clear") and memo.cache_info().maxsize is not None:
            memo.cache_clear()


def _count_calls(monkeypatch, *names):
    """Count calls to each of ``names`` in the engine, from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(integration, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(integration, name, spy)
    return counts


def test_fig4_forms_its_y_factors_once_per_level(monkeypatch, tmp_path):
    # fig4 (w3, V = 10) makes 2 curve passes and 66 single-point passes on
    # the composite tail; the y nodes of every pass at one set of levels are
    # the same, so the frame forms their y factors once: 4 level sets, 4
    # calls.  Each engine pass is contracted once, denominators included.
    from etsbell import cli

    monkeypatch.chdir(tmp_path)
    _clear_memos()
    counts = _count_calls(monkeypatch, "_y_factors", "_contract", "_engine_pass")
    _passes, levels = _spy_engine_passes(monkeypatch)
    assert cli.main(["figure", "fig4"]) == 0
    assert set(levels) == set(integration._ladder(integration._variable_sigma(10.0)))
    assert len(set(levels)) == 4
    assert counts["_y_factors"] <= len(set(levels))
    assert counts["_engine_pass"] == len(levels) > 60
    assert counts["_contract"] == counts["_engine_pass"]
    _clear_memos()


def test_a_wide_crossing_forms_its_y_factors_once(monkeypatch):
    # ghz3-cond at V = 100 is on the composite rule, one pass per point, and
    # every pass shares one y rule, scale and η
    from etsbell.sweeps import crossing_displacement

    _clear_memos()
    counts = _count_calls(monkeypatch, "_y_factors", "_contract", "_engine_pass")
    crossing_displacement(FamilyKind.GHZ3_CONDITIONAL, INEQUALITIES["svetlichny3"], 100.0, 0.8)
    assert counts["_y_factors"] == 1
    assert counts["_contract"] == counts["_engine_pass"] > 1
    _clear_memos()


def test_rotation_table_matches_scalar_matrices():
    # The table builds every rotation matrix from (θ, γ) arrays with numpy's
    # vectorised cos, sin and exp; each block must carry the bits the scalar
    # math/cmath path of EffectiveRotation.matrix gives, signed zeros too.
    rng = np.random.default_rng(47)
    special = (0.0, -0.0, math.pi / 2, math.pi, 2 * math.pi)
    rotations = [EffectiveRotation(t, g) for t in special for g in special]
    rotations += list(PAULI_ROTATIONS.values())
    rotations += [EffectiveRotation(t, g)
                  for t, g in rng.uniform(-4 * math.pi, 6 * math.pi, (200, 2))]
    matrices = np.array([r.matrix for r in rotations])
    reflect = np.diag([1.0, -1.0])
    turn = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = np.array((matrices @ reflect @ matrices, matrices @ turn @ matrices))
    table = integration._rotation_table(*integration.rotation_angles(rotations))
    assert table.shape == (2, len(rotations) + 1, 2, 2)
    assert table[:, :-1].tobytes() == want.tobytes()
    gram = np.array((np.eye(2), 1.0 - np.eye(2)), dtype=complex)
    assert table[:, -1].tobytes() == gram.tobytes()
    # The derivative rows: ∂(MPM) = M'PM + MPM' by θ, then by γ, each M'
    # built with the same scalar arithmetic.
    count = len(rotations)
    table = integration._rotation_table(*integration.rotation_angles(rotations),
                                        derivatives=True)
    assert table.shape == (2, 3 * count + 1, 2, 2)
    assert table[:, :count].tobytes() == want.tobytes()
    assert table[:, -1].tobytes() == gram.tobytes()
    for k, derivative in enumerate((_scalar_theta_derivative, _scalar_phase_derivative)):
        da = np.array([derivative(r) for r in rotations])
        want = np.array([da @ p @ matrices + matrices @ p @ da for p in (reflect, turn)])
        assert table[:, (k + 1) * count:(k + 2) * count].tobytes() == want.tobytes()


def test_angle_memo_entries_are_read_only_and_fresh_bits():
    # a memoized gather of a rotation table and every pass plan entry (branch
    # weights and rows, the shift frame's joined rule offsets and weights, y
    # moments, stack gather) is what a fresh build gives, bit for bit, and no
    # caller can write into it
    spec = INEQUALITIES["svetlichny3"]
    family = StateFamily(FamilyKind.W3, 5.0, 1.2)
    coeffs, signs, _variables = family_structure(family)
    rows = (1 - np.array(signs).T) // 2
    layout = spec._gradient_layout
    rotations = [r for party in canonical_angles(spec, FamilyKind.W3).angles for r in party]
    theta, phase = integration.rotation_angles(rotations)
    key = integration._array_key
    angles = (key(theta), key(phase), True)
    table = integration._rotation_table(theta, phase, True)
    entries = [(integration._angle_pairs(angles, layout.stack, key(rows)),
                integration._branch_pairs(table, integration._keyed_array(layout.stack),
                                          rows))]
    n = 40
    plan = integration._pass_plan(FamilyKind.W3, 5.0, DetectorModel(0.7), (True, (n, 2 * n)),
                                  layout.patterns, layout.stack_rows)
    assert plan.rows == key(rows)
    coeff_array = np.array(coeffs)
    entries += [(plan.weights, np.multiply.outer(coeff_array.conj(), coeff_array)),
                (integration._keyed_array(plan.rows), rows)]
    sigma = integration._variable_sigma(family.V)
    offsets, ends, w = plan.frame
    assert ends == (0, n, 3 * n)
    nodes = [np.polynomial.hermite.hermgauss(size) for size in (n, 2 * n)]
    entries += [(offsets, np.concatenate([math.sqrt(2.0) * sigma * t for t, _w in nodes])),
                (w, np.concatenate([w / math.sqrt(math.pi) for _t, w in nodes]))]
    # the plan's y moments of w3's one variable, fully measured at η = 0.7,
    # at both levels, as fresh arrays give them, Dawson's odd moments zeroed;
    # and its gather, the Gram part on the pattern's row and the numerator
    # part on every term and derivative row
    ((_source, _factors, y_moments, gather),) = plan.groups
    factors = integration._y_factors(offsets, 1.0, 0.7)
    for level, (a, b) in enumerate(((0, n), (n, 3 * n))):
        fresh = np.einsum("uax,ubx,ucx,x->uabc", *(factors[..., a:b],) * 3, w[a:b])
        fresh[0][np.indices((2, 2, 2)).sum(axis=0) % 2 == 1] = 0.0
        entries.append((y_moments[level, 0, ..., 0], fresh))
    entries.append((gather, np.array([1] + [0] * len(layout.index))))
    # ghz3-cond's variables each feed one measured mode, so every y moment
    # that takes a Dawson factor takes one, and is zeroed just the same
    cond = integration._pass_plan(FamilyKind.GHZ3_CONDITIONAL, 5.0, DetectorModel(0.7),
                                  (True, (n, 2 * n)), layout.patterns, layout.stack_rows)
    ((_source, _factors, y_moments, _gather),) = cond.groups
    for level, (a, b) in enumerate(((0, n), (n, 3 * n))):
        fresh = np.einsum("uax,x->ua", factors[..., a:b], w[a:b])
        fresh[0, 1] = 0.0
        entries.append((y_moments[level, 0, ..., 0], fresh))
    for entry, fresh in entries:
        assert entry.shape == fresh.shape
        assert entry.tobytes() == fresh.tobytes()
        assert not entry.flags.writeable
        with pytest.raises(ValueError):
            entry.flat[0] = 0
    assert integration._angle_pairs(angles, layout.stack, key(rows)) is entries[0][0]
    assert integration._pass_plan(FamilyKind.W3, 5.0, DetectorModel(0.7), (True, (n, 2 * n)),
                                  layout.patterns, layout.stack_rows).frame[2] is w


def _scalar_theta_derivative(rotation):
    c = math.cos(rotation.theta / 2.0)
    s = math.sin(rotation.theta / 2.0)
    ph = cmath.exp(1j * rotation.phase)
    return np.array([[c / 2.0, -ph * s / 2.0], [-ph.conjugate() * s / 2.0, -c / 2.0]],
                    dtype=complex)


def _scalar_phase_derivative(rotation):
    c = math.cos(rotation.theta / 2.0)
    ph = cmath.exp(1j * rotation.phase)
    return np.array([[0.0, 1j * ph * c], [-1j * ph.conjugate() * c, 0.0]], dtype=complex)


def test_pass_plan_memo_is_keyed_by_value_and_never_by_d():
    # one plan per (kind, V, detector, ladder pass, layout), found by value;
    # the moment memo is cleared before each evaluation so that every pass
    # asks for its plan
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.GHZ3_CONDITIONAL).angles
    plans = integration._pass_plan

    def curve_values(ds, V=5.0, eta=(0.7, 0.7, 0.7), config=None, functional=spec):
        integration._deterministic_moments.cache_clear()
        curve = [StateFamily(FamilyKind.GHZ3_CONDITIONAL, V, d) for d in ds]
        return evaluate_curve_with_error(functional, curve, angles, DetectorModel(eta), config)

    _clear_memos()
    first = curve_values((0.5, 1.5))
    made = plans.cache_info().currsize
    assert made >= 1
    # an equal-valued family and detector, built anew, find the same plans,
    # and so do other displacements, each point keeping its bits
    assert curve_values((0.5, 1.5)) == first
    other = curve_values((0.3, 2.5, 4.0))
    assert plans.cache_info().currsize == made
    for d, result in zip((0.3, 2.5, 4.0), other):
        _clear_memos()
        alone = evaluate_with_error(spec, StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, d),
                                    angles, DetectorModel((0.7, 0.7, 0.7)))
        assert result == alone, d
    # another V, η on one mode, ladder pass or layout makes plans of its own
    variants = {"V": dict(V=6.0), "eta on one mode": dict(eta=(0.7, 0.7, 0.5)),
                "ladder pass": dict(config=QuadratureConfig(rel_tol=1e-13)),
                "layout": dict(functional=INEQUALITIES["mermin3"])}
    for name, variant in variants.items():
        before = plans.cache_info().currsize
        curve_values((0.5, 1.5), **variant)
        assert plans.cache_info().currsize > before, name
    # and no caller can write into a plan
    plan = integration._pass_plan(FamilyKind.GHZ3_CONDITIONAL, 5.0, DetectorModel(0.7),
                                  (True, (40, 80)), spec._layout.patterns,
                                  spec._layout.stack_rows)
    for array in [plan.weights] + [a for group in plan.groups for a in group[2:]]:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array.flat[0] = 0
    _clear_memos()


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
        "ladder pass": (family, EQUATORIAL, DetectorModel(0.8),
                        QuadratureConfig(rel_tol=1e-13)),
        "family kind": (StateFamily(FamilyKind.GHZ3_BEAM_SPLITTER, 5.0, 1.5),
                        EQUATORIAL, DetectorModel(0.8), QuadratureConfig()),
        "displacement": (StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 2.5),
                         EQUATORIAL, DetectorModel(0.8), QuadratureConfig()),
        "unmeasured pattern": (family, EQUATORIAL[:2] + [None], DetectorModel(0.8),
                               QuadratureConfig()),
    }
    for name, variant in variants.items():
        memo.cache_clear()
        estimate_correlation(*base)
        warm = estimate_correlation(*variant)
        # cold: no moment set, frame or angle entry survives from base
        _clear_memos()
        assert warm == estimate_correlation(*variant), name
        assert warm[0] != first[0], name


def test_nonconvergence_carries_partial_result():
    # below roundoff only two levels equal to the last bit would converge; here none are
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.0)
    cfg = QuadratureConfig(rel_tol=1e-17)
    with pytest.raises(NonconvergenceError, match="correlation refinement stalled") as info:
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
    value, _err = estimate_correlation(family, rotations, DetectorModel(tuple(etas)))
    assert abs(value) <= 1.0


@settings(max_examples=40, deadline=None)
@given(_random_point(SYMMETRIC_KINDS), hst.data())
def test_symmetric_families_are_party_permutation_invariant(point, data):
    family, rotations, etas = point
    order = data.draw(hst.permutations(range(family.num_modes)))
    value, _err = estimate_correlation(family, rotations, DetectorModel(tuple(etas)))
    permuted, _err = estimate_correlation(
        family, [rotations[m] for m in order], DetectorModel(tuple(etas[m] for m in order)))
    assert permuted == pytest.approx(value, abs=1e-12), order


def test_empty_stack_is_refused():
    family = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    with pytest.raises(ValueError, match="the term list is empty"):
        _estimate_stack(family, [])
