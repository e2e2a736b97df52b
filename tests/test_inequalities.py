"""Functional definitions, canonical angles, and local-realistic bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import qubit_oracle
from etsbell.errors import NonconvergenceError, UnsupportedAngleSetError
from etsbell.inequalities import (
    INEQUALITIES,
    MERMIN3,
    SASA,
    SVETLICHNY3,
    SVETLICHNY4,
    WWZB4,
    InequalitySpec,
    canonical_angles,
    deterministic_bound,
    evaluate,
    evaluate_with_error,
    functional_value,
    get_inequality,
    hybrid_partition_bound,
    optimize_angles,
    term_settings,
    verify_lr_bound,
)
from etsbell.integration import QuadratureConfig
from etsbell.states import FamilyKind, StateFamily

SQRT2 = math.sqrt(2.0)

SPIN_STATES = {
    FamilyKind.GHZ3_CONDITIONAL: qubit_oracle.ghz_state(3),
    FamilyKind.GHZ4_CONDITIONAL: qubit_oracle.ghz_state(4),
    FamilyKind.W3: qubit_oracle.w_state(),
    FamilyKind.CLUSTER4_CONDITIONAL: qubit_oracle.cluster_state(),
}


def spin_functional(spec, kind):
    state = SPIN_STATES[kind]
    angles = canonical_angles(spec, kind).angles

    def corr(indices):
        pairs = []
        for party, idx in enumerate(indices):
            if idx is None:
                pairs.append(None)
            else:
                rot = angles[party][idx]
                pairs.append((rot.theta, rot.phase))
        return qubit_oracle.correlation(state, pairs)

    return functional_value(spec, corr)


def test_registry_contents():
    assert sorted(INEQUALITIES) == [
        "mermin3", "sasa", "svetlichny3", "svetlichny4", "wwzb4"]
    with pytest.raises(ValueError):
        get_inequality("chsh")


def test_term_counts_and_bounds():
    table = {
        "mermin3": (4, 2.0, 4.0),
        "svetlichny3": (8, 4.0, 4.0 * SQRT2),
        "svetlichny4": (16, 8.0, 8.0 * SQRT2),
        "wwzb4": (16, 4.0, 4.0 * SQRT2),
        "sasa": (4, 2.0, 4.0),
    }
    for name, (nterms, lr, qmax) in table.items():
        spec = get_inequality(name)
        assert len(spec.terms) == nterms, name
        assert spec.lr_bound == pytest.approx(lr), name
        assert spec.quantum_max == pytest.approx(qmax), name


def test_spec_validation():
    with pytest.raises(ValueError):
        InequalitySpec("bad", 2, (2, 2), ((2, (0, 0)),), 2.0, 2.0)
    with pytest.raises(ValueError):
        InequalitySpec("bad", 2, (2, 2), ((1, (0, 5)),), 2.0, 2.0)
    with pytest.raises(ValueError):
        InequalitySpec("bad", 2, (2, 2), ((1, (0,)),), 2.0, 2.0)
    with pytest.raises(ValueError):
        InequalitySpec("bad", 2, (2,), ((1, (0, 0)),), 2.0, 2.0)


def test_sasa_uses_a_single_setting_for_party_two():
    assert SASA.settings_per_party == (2, 1, 2, 2)
    unmeasured = [indices[1] for _sign, indices in SASA.terms]
    assert unmeasured.count(None) == 2


def test_canonical_spin_values():
    cases = [
        (SVETLICHNY3, FamilyKind.GHZ3_CONDITIONAL, -4.0 * SQRT2),
        (MERMIN3, FamilyKind.GHZ3_CONDITIONAL, -2.0 * SQRT2),
        (SVETLICHNY3, FamilyKind.W3, -16.0 * math.sqrt(6.0) / 9.0),
        (SVETLICHNY4, FamilyKind.GHZ4_CONDITIONAL, 8.0 * SQRT2),
        (WWZB4, FamilyKind.CLUSTER4_CONDITIONAL, 4.0 * SQRT2),
        (SASA, FamilyKind.CLUSTER4_CONDITIONAL, 4.0),
    ]
    for spec, kind, want in cases:
        assert spin_functional(spec, kind) == pytest.approx(want), (
            spec.name, kind.value)


def test_engine_reaches_spin_values_when_separated():
    # V = 1, d = 8 keeps the quadrature on the delta path and the branch
    # overlaps negligible, so each plateau value appears to full precision
    cases = [
        (SVETLICHNY3, FamilyKind.GHZ3_CONDITIONAL, 4.0 * SQRT2),
        (MERMIN3, FamilyKind.GHZ3_CONDITIONAL, 2.0 * SQRT2),
        (SVETLICHNY3, FamilyKind.GHZ3_KERR, 4.0 * SQRT2),
        (SVETLICHNY3, FamilyKind.W3, 16.0 * math.sqrt(6.0) / 9.0),
        (SVETLICHNY4, FamilyKind.GHZ4_CONDITIONAL, 8.0 * SQRT2),
        (WWZB4, FamilyKind.CLUSTER4_CONDITIONAL, 4.0 * SQRT2),
        (SASA, FamilyKind.CLUSTER4_CONDITIONAL, 4.0),
        (SASA, FamilyKind.CLUSTER4_CROSS_KERR, 4.0),
    ]
    for spec, kind, want in cases:
        fam = StateFamily(kind, 1.0, 8.0)
        angles = canonical_angles(spec, kind).angles
        value = evaluate(spec, fam, angles)
        assert value == pytest.approx(want, abs=1e-9), (spec.name, kind.value)


def test_evaluate_with_error_is_consistent():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    angles = canonical_angles(SVETLICHNY3, FamilyKind.GHZ3_CONDITIONAL).angles
    value, err = evaluate_with_error(SVETLICHNY3, fam, angles)
    assert err >= 0.0
    assert value == pytest.approx(evaluate(SVETLICHNY3, fam, angles),
                                  abs=1e-12)


def test_evaluate_rejects_mismatched_angles_and_families():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.5)
    angles = canonical_angles(SVETLICHNY3, FamilyKind.GHZ3_CONDITIONAL).angles
    extra = angles[:2] + (angles[2] + angles[2][:1],)
    # a surplus setting is never read
    assert evaluate(SVETLICHNY3, fam, extra) == evaluate(SVETLICHNY3, fam, angles)
    cases = [
        ((SVETLICHNY3, fam, angles[:2]), "expected angle tuples for 3 parties"),
        ((SVETLICHNY3, fam, angles[:2] + (angles[2][:1],)), "party 2 angle set lacks setting 1"),
        ((SVETLICHNY3, fam, angles[:2] + ((),)), "party 2 angle set lacks setting 0"),
        ((SVETLICHNY3, StateFamily(FamilyKind.CLUSTER4_CONDITIONAL, 5.0, 1.5), angles),
         "family has 4 modes but got 3 settings"),
        ((SASA, fam, canonical_angles(SASA, FamilyKind.CLUSTER4_CONDITIONAL).angles),
         "family has 3 modes but got 4 settings"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate(*args)


def test_canonical_angles_unknown_pairing():
    with pytest.raises(UnsupportedAngleSetError):
        canonical_angles("wwzb4", FamilyKind.W3)


def test_canonical_angles_carry_provenance():
    ca = canonical_angles("svetlichny3", FamilyKind.GHZ3_CONDITIONAL)
    assert isinstance(ca.provenance, str) and ca.provenance


def test_term_settings_marks_unmeasured_parties():
    angles = canonical_angles(SASA, FamilyKind.CLUSTER4_CONDITIONAL).angles
    settings = term_settings(SASA, angles, SASA.terms[0][1])
    assert settings[1].ignored
    assert not settings[0].ignored


def test_deterministic_bounds():
    assert deterministic_bound(MERMIN3) == pytest.approx(2.0)
    assert deterministic_bound(SVETLICHNY3) == pytest.approx(4.0)
    # the hybrid bipartition bound 8 is what the registry quotes here;
    # unrestricted product strategies only reach 4
    assert deterministic_bound(SVETLICHNY4) == pytest.approx(4.0)
    assert deterministic_bound(WWZB4) == pytest.approx(4.0)
    assert deterministic_bound(SASA) == pytest.approx(2.0)


def test_hybrid_partition_bounds():
    assert hybrid_partition_bound(SVETLICHNY3) == pytest.approx(4.0)
    assert hybrid_partition_bound(SVETLICHNY4) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        hybrid_partition_bound(SASA)


def test_verify_lr_bound_and_mutations():
    for spec in INEQUALITIES.values():
        assert verify_lr_bound(spec)
        for k in range(len(spec.terms)):
            assert not verify_lr_bound(spec, flip_term=k), (spec.name, k)
        # no Python negative indexing, no IndexError: out of range is refused
        for k in (-1, len(spec.terms)):
            message = rf"flip_term must lie in \[0, {len(spec.terms)}\)"
            with pytest.raises(ValueError, match=message):
                verify_lr_bound(spec, flip_term=k)


@settings(max_examples=30, deadline=None)
@given(hst.integers(0, 2 ** 12 - 1))
def test_deterministic_strategies_respect_lr_bound(bits):
    # any local deterministic assignment is a product strategy, so its
    # functional value can never exceed the quoted bound
    assignments = {}
    pos = 0
    for party, count in enumerate(SVETLICHNY3.settings_per_party):
        for setting in range(count):
            assignments[(party, setting)] = 1 if (bits >> pos) & 1 else -1
            pos += 1

    def corr(indices):
        out = 1.0
        for party, idx in enumerate(indices):
            out *= assignments[(party, idx)]
        return out

    value = abs(functional_value(SVETLICHNY3, corr))
    assert value <= SVETLICHNY3.lr_bound + 1e-12


def test_optimizer_recovers_mermin_maximum():
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 1.0, 6.0)
    result = optimize_angles(MERMIN3, fam, restarts=1)
    assert result.value >= 2.0 * SQRT2 - 1e-3
    assert result.start_index == 0
    assert result.angles


@pytest.mark.parametrize("restarts", [0, -1])
def test_optimizer_rejects_restarts_below_one(restarts):
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 1.0, 6.0)
    with pytest.raises(ValueError, match=f"restarts must be at least 1, got {restarts}"):
        optimize_angles(MERMIN3, fam, restarts=restarts)


def test_optimizer_raises_on_nonconvergence():
    # a nonconvergent evaluation is an error, never a score of zero
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.0)
    cfg = QuadratureConfig(rel_tol=1e-17)
    with pytest.raises(NonconvergenceError, match="correlation refinement stalled"):
        optimize_angles(MERMIN3, fam, config=cfg, restarts=1)
