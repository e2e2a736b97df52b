"""Correlation engine against analytic, spin, pure-state and dense references."""

import cmath
import itertools
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
from etsbell.inequalities import INEQUALITIES, canonical_angles, evaluate_with_error
from etsbell.integration import (
    QuadratureConfig,
    converged_correlation,
    estimate_correlation,
    estimate_terms,
)
from etsbell.measurement import PAULI_ROTATIONS, DetectorModel, EffectiveRotation
from etsbell.oracles import ghz_correlation_closed
from etsbell.states import FamilyKind, StateFamily, family_structure

EQUATORIAL = [EffectiveRotation(math.pi / 2, g) for g in (0.3, 1.1, 2.4)]


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=0)
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_axis=500)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)


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
            got = converged_correlation(family, rotations, detector)
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

    def tensor_axes(variables, detector, levels, nodes_per_axis):
        # a variable carries its curve's centres; x holds one row per point,
        # and every level of the pass takes the same axes
        grids = []
        for V, centres, _scales in variables:
            x = np.array([dense_reference.axis(c, V, DENSE_NODES)[0] for c in centres])
            _x, wx = dense_reference.axis(centres[0], V, DENSE_NODES)
            y, wy = dense_reference.axis(0.0, V, DENSE_NODES)
            grids.append(((x,) * len(levels), (y,) * len(levels),
                          np.concatenate((wx,) * len(levels) + (wy,) * len(levels))))
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
    results, _derivatives = estimate_terms(family, *integration.rotation_angles(rotations),
                                           integration.term_layout(index), detector, config)
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
        results, derivatives = estimate_terms(family, *integration.rotation_angles(rotations),
                                              spec._layout, detector, config)
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


def _lone_level_ladder(family, detector, spec, angles, rel_tol):
    """Each term's (value, err) and level, from one engine pass and one
    contraction per level, and the last level's values and errors."""
    layout = spec._layout
    rotations = [r for party in angles for r in party]
    table = integration._rotation_table(*integration.rotation_angles(rotations))
    # the curve of one point: each variable carries a tuple of one centre
    coeffs, signs, variables = family_structure(family)
    variables = tuple((V, (centre,), scales) for V, centre, scales in variables)
    found = [None] * len(spec.terms)
    previous = None
    for level in range(5):
        grids = integration._deterministic_grids(variables, detector, (level,),
                                                 QuadratureConfig().nodes_per_axis)
        moments = integration._engine_pass(coeffs, signs, variables, layout.patterns,
                                           detector, grids)
        num, den = integration._terms(moments, table, layout)
        ((values,),) = num / den
        errs = np.full(values.shape, math.inf) if previous is None else np.abs(values - previous)
        for t, (value, err) in enumerate(zip(values.tolist(), errs.tolist())):
            if found[t] is None and err <= rel_tol * max(abs(value), 1.0):
                found[t] = ((value, err), level)
        previous = values
    return found, values, errs


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
    integration._deterministic_moments.cache_clear()
    for rel_tol, converges in ((1e-13, True), (1e-17, False)):
        found, values, errs = _lone_level_ladder(family, detector, spec, angles, rel_tol)
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
        value, err = float(values[t]), float(errs[t])
        message = f"correlation refinement stalled at {value!r} with error {err:.3g}"
        assert str(info.value) == message
        assert (info.value.value, info.value.err_estimate) == (value, err)


def _spy_engine_passes(monkeypatch):
    """Record the ``grids`` of every engine pass, and the levels of every
    grid set, from here on."""
    passes = []
    levels = []
    engine_pass = integration._engine_pass
    deterministic_grids = integration._deterministic_grids

    def pass_spy(coeffs, signs, variables, patterns, detector, grids):
        passes.append(grids)
        return engine_pass(coeffs, signs, variables, patterns, detector, grids)

    def grids_spy(variables, detector, grid_levels, nodes_per_axis):
        levels.append(grid_levels)
        return deterministic_grids(variables, detector, grid_levels, nodes_per_axis)

    monkeypatch.setattr(integration, "_engine_pass", pass_spy)
    monkeypatch.setattr(integration, "_deterministic_grids", grids_spy)
    integration._deterministic_moments.cache_clear()
    return passes, levels


def test_a_level_one_estimate_is_one_engine_pass(monkeypatch):
    # an estimate that stops at level 1 on a shift rule forms both levels in
    # one pass: per variable, both levels' nodes side by side, and w holding
    # both levels' x weights, then both levels' y weights
    passes, levels = _spy_engine_passes(monkeypatch)
    family = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    detector = DetectorModel(0.7)
    estimate_correlation(family, EQUATORIAL, detector)
    assert levels == [(0, 1)]
    (grids,) = passes
    n = QuadratureConfig().nodes_per_axis
    _coeffs, _signs, variables = family_structure(family)
    for (x, y, w), (V, centre, scales) in zip(grids, variables):
        assert [part.shape for part in x] == [(1, n), (1, 2 * n)]
        assert [part.shape for part in y] == [(n,), (2 * n,)]
        ((_x0, _y0, lone0),), ((_x1, _y1, lone1),) = (
            integration._deterministic_grids(((V, (centre,), scales),), detector, (level,), n)
            for level in (0, 1))
        want = np.concatenate((lone0[:n], lone1[:2 * n], lone0[n:], lone1[2 * n:]))
        assert w.tobytes() == want.tobytes()


def test_a_point_on_the_composite_tail_makes_one_pass_per_level(monkeypatch):
    # w3 at V = 10 (σ = 1.5) climbs past Gauss-Hermite to the composite rule
    # at levels 3 and 4; each later level is a pass of its own, of one level
    passes, levels = _spy_engine_passes(monkeypatch)
    spec = INEQUALITIES["svetlichny3"]
    angles = canonical_angles(spec, FamilyKind.W3).angles
    evaluate_with_error(spec, StateFamily(FamilyKind.W3, 10.0, 1.0), angles)
    assert levels == [(0, 1), (2,), (3,), (4,)]
    assert len(passes) == len(levels)
    for grids, grid_levels in zip(passes, levels):
        for x, y, _w in grids:
            assert len(x) == len(y) == len(grid_levels)


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
        "unmeasured pattern": (family, EQUATORIAL[:2] + [None], DetectorModel(0.8),
                               QuadratureConfig()),
    }
    for name, variant in variants.items():
        memo.cache_clear()
        estimate_correlation(*base)
        warm = estimate_correlation(*variant)
        memo.cache_clear()
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
