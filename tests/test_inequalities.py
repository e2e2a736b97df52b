"""Functional definitions, canonical angles, and local-realistic bounds."""

import itertools
import math

import numpy as np
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
    evaluate,
    evaluate_with_error,
    get_inequality,
    optimize_angles,
    partition_bound,
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

    return math.fsum(sign * corr(indices) for sign, indices in spec.terms)


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
        InequalitySpec("bad", (2, 2), ((2, (0, 0)),), 2.0, 2.0)
    with pytest.raises(ValueError):
        InequalitySpec("bad", (2, 2), ((1, (0, 5)),), 2.0, 2.0)
    with pytest.raises(ValueError):
        InequalitySpec("bad", (2, 2), ((1, (0,)),), 2.0, 2.0)
    with pytest.raises(ValueError, match="term index tuples must cover every party"):
        InequalitySpec("bad", (2,), ((1, (0, 0)),), 2.0, 2.0)


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
    # numbers in place of rotations used to fail with an AttributeError
    numbers = angles[:1] + ((angles[1][0], 0.5),) + angles[2:]
    with pytest.raises(TypeError, match="^party 1 setting 1 must be an EffectiveRotation, "
                                        "got 0.5$"):
        evaluate(SVETLICHNY3, fam, numbers)


def test_canonical_angles_unknown_pairing():
    with pytest.raises(UnsupportedAngleSetError) as caught:
        canonical_angles(WWZB4, FamilyKind.W3)
    # still a KeyError, but its message reads unquoted and chains no lookup
    assert isinstance(caught.value, KeyError)
    assert str(caught.value) == "no canonical angles for inequality 'wwzb4' on family 'w3'"
    assert caught.value.__cause__ is None and caught.value.__suppress_context__


def test_canonical_angles_carry_provenance():
    ca = canonical_angles(SVETLICHNY3, FamilyKind.GHZ3_CONDITIONAL)
    assert isinstance(ca.provenance, str) and ca.provenance


def test_layout_marks_unmeasured_parties():
    index = SASA._layout.index
    assert index[0, 1] == -1
    assert index[0, 0] >= 0


def _singletons(parties):
    return [[(p,) for p in range(parties)]]


def _bipartitions(parties):
    """Every split into two nonempty groups, party 0 in the first."""
    rest = range(1, parties)
    return [[(0, *first), tuple(p for p in rest if p not in first)]
            for size in range(parties - 1) for first in itertools.combinations(rest, size)]


def test_deterministic_bounds():
    assert partition_bound(MERMIN3, _singletons(3)) == pytest.approx(2.0)
    assert partition_bound(SVETLICHNY3, _singletons(3)) == pytest.approx(4.0)
    # the hybrid bipartition bound 8 is what the registry quotes here;
    # unrestricted product strategies only reach 4
    assert partition_bound(SVETLICHNY4, _singletons(4)) == pytest.approx(4.0)
    assert partition_bound(WWZB4, _singletons(4)) == pytest.approx(4.0)
    assert partition_bound(SASA, _singletons(4)) == pytest.approx(2.0)


def test_hybrid_partition_bounds():
    assert partition_bound(SVETLICHNY3, _bipartitions(3)) == pytest.approx(4.0)
    assert partition_bound(SVETLICHNY4, _bipartitions(4)) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        partition_bound(SASA, _bipartitions(4))


def _brute_bound(per_party, terms, partition):
    """max |Σ sign·Π_g f_g(joint settings of g)| over every choice of ±1
    functions f_g, by listing each group's functions as dicts."""
    tables = []
    for group in partition:
        joints = list(itertools.product(*(range(per_party[p]) for p in group)))
        tables.append([dict(zip(joints, outcomes))
                       for outcomes in itertools.product((1, -1), repeat=len(joints))])
    best = 0
    for functions in itertools.product(*tables):
        total = 0
        for sign, indices in terms:
            product = sign
            for group, f in zip(partition, functions):
                joint = tuple(indices[p] for p in group)
                product *= 1 if None in joint else f[joint]
            total += product
        best = max(best, abs(total))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_partition_bound_equals_brute_force(seed):
    rng = np.random.default_rng(seed)
    parties = 3 + seed % 2
    per_party = tuple(int(s) for s in rng.integers(1, 3, parties))
    count = int(rng.integers(1, 9))

    def table(unmeasured):
        return tuple(
            (int(rng.choice((-1, 1))),
             tuple(None if unmeasured and rng.random() < 0.25 else int(rng.integers(s))
                   for s in per_party))
            for _ in range(count))

    spec = InequalitySpec("random", per_party, table(False), 0.0, 0.0)
    local = partition_bound(spec, _singletons(parties))
    bipartite = partition_bound(spec, _bipartitions(parties))
    for partition in _bipartitions(parties):
        assert partition_bound(spec, [partition]) == _brute_bound(per_party, spec.terms,
                                                                  partition)
    assert local == _brute_bound(per_party, spec.terms, _singletons(parties)[0])
    assert local <= bipartite <= count
    # a party a term leaves out counts one, alone in its group
    terms = table(True)
    assert partition_bound(spec, _singletons(parties), terms) == _brute_bound(
        per_party, terms, _singletons(parties)[0]) <= count


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
        # a bool or a float names no term
        for k in (True, 1.0):
            with pytest.raises(TypeError, match="^flip_term must be an integer, got "):
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

    value = abs(math.fsum(sign * corr(indices) for sign, indices in SVETLICHNY3.terms))
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


@pytest.mark.parametrize("restarts", [True, 2.5])
def test_optimizer_rejects_a_restart_count_that_is_no_integer(restarts):
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 1.0, 6.0)
    with pytest.raises(TypeError, match=f"^restarts must be an integer, got {restarts}$"):
        optimize_angles(MERMIN3, fam, restarts=restarts)


def test_optimizer_raises_on_nonconvergence():
    # a nonconvergent evaluation is an error, never a score of zero
    fam = StateFamily(FamilyKind.GHZ3_CONDITIONAL, 5.0, 1.0)
    cfg = QuadratureConfig(rel_tol=1e-17)
    with pytest.raises(NonconvergenceError, match="correlation refinement stalled"):
        optimize_angles(MERMIN3, fam, config=cfg, restarts=1)
