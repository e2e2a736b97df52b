"""The family table, and the pure-state oracle's branches and Gram norms."""

import math

import pytest

import dense_reference
from etsbell.states import FamilyKind, StateFamily, family_structure
from pure_state_oracle import (
    BranchStructureError,
    BranchSuperposition,
    GramNormError,
    cluster_branches,
    ghz_branches,
    w_branches,
)


def test_ghz_norm_well_separated():
    # cross terms carry exp(-2*3*d^2) per branch pair at displacement d=2
    state = ghz_branches((2.0, 2.0, 2.0))
    assert state.gram_norm() == pytest.approx(2.0 * (1.0 + math.exp(-24.0)),
                                              rel=1e-14)


def test_ghz_norm_degenerate_origin():
    state = ghz_branches((0.0, 0.0, 0.0))
    assert state.gram_norm() == pytest.approx(4.0)


def test_ghz_four_mode_norm():
    state = ghz_branches((1.0, 1.0, 1.0, 1.0))
    assert state.num_modes == 4
    assert state.gram_norm() == pytest.approx(2.0 * (1.0 + math.exp(-8.0)),
                                              rel=1e-14)


def test_w_norm_values():
    assert w_branches(0.0).gram_norm() == pytest.approx(9.0)
    # two branches differ in exactly two modes, giving exp(-4 d^2) overlaps
    assert w_branches(1.0).gram_norm() == pytest.approx(
        3.0 + 6.0 * math.exp(-4.0), rel=1e-14)
    assert w_branches(5.0).gram_norm() == pytest.approx(3.0, rel=1e-12)


def test_w_branch_layout():
    state = w_branches(1.5)
    assert state.num_modes == 3
    flipped = []
    for _coeff, amps in state.branches:
        negatives = [k for k, a in enumerate(amps) if a.real < 0]
        assert len(negatives) == 1
        flipped.append(negatives[0])
    assert sorted(flipped) == [0, 1, 2]


def test_cluster_norm_is_unity():
    assert cluster_branches((0.0,) * 4).gram_norm() == pytest.approx(1.0)
    assert cluster_branches((1.0,) * 4).gram_norm() == pytest.approx(
        1.0, abs=1e-12)


def test_cluster_coefficient_pattern():
    state = cluster_branches((1.0, 1.0, 1.0, 1.0))
    coeffs = tuple(c for c, _amps in state.branches)
    assert coeffs == (0.5, 0.5, 0.5, -0.5)


def test_gram_norm_rejects_annihilated_state():
    state = BranchSuperposition(
        num_modes=1, branches=((1.0, (0.5,)), (-1.0, (0.5,))))
    with pytest.raises(GramNormError):
        state.gram_norm()


def test_branch_validation():
    with pytest.raises(BranchStructureError):
        BranchSuperposition(num_modes=2, branches=((1.0, (0.1,)),))
    with pytest.raises(BranchStructureError):
        BranchSuperposition(num_modes=1, branches=())
    with pytest.raises(BranchStructureError):
        ghz_branches((1.0, 1.0))
    with pytest.raises(BranchStructureError):
        cluster_branches((1.0, 1.0, 1.0))


def test_family_validation():
    with pytest.raises(ValueError):
        StateFamily(FamilyKind.W3, V=0.5, d=1.0)
    with pytest.raises(ValueError):
        StateFamily(FamilyKind.W3, V=2.0, d=-1.0)
    # a bool or a string is no parameter, though True == 1 and False == 0
    with pytest.raises(TypeError, match="V must be a real number, got True"):
        StateFamily(FamilyKind.W3, V=True, d=1.0)
    with pytest.raises(TypeError, match="V must be a real number, got '5'"):
        StateFamily(FamilyKind.W3, V="5", d=1.0)
    with pytest.raises(TypeError, match="d must be a real number, got False"):
        StateFamily(FamilyKind.W3, V=2.0, d=False)


def test_family_rejects_a_kind_given_by_name():
    # the kind's name used to be accepted and fail later with a bare KeyError
    with pytest.raises(TypeError, match="kind must be a FamilyKind, got 'ghz3-cond'"):
        StateFamily("ghz3-cond", 5.0, 1.0)


def test_family_mode_counts():
    assert StateFamily(FamilyKind.GHZ3_KERR, 1.0, 1.0).num_modes == 3
    assert StateFamily(FamilyKind.CLUSTER4_CONDITIONAL, 1.0, 1.0).num_modes == 4


def test_beam_splitter_template_rescaling():
    # the mixture variable is centred on sqrt(3)*d and every mode scales
    # it back down by 1/sqrt(3), so the nominal branch amplitude is d
    fam = StateFamily(FamilyKind.GHZ3_BEAM_SPLITTER, V=5.0, d=2.0)
    _coeffs, _signs, variables = family_structure(fam)
    (V, center, scales), = variables
    assert V == 5.0
    assert center == pytest.approx(math.sqrt(3.0) * 2.0)
    assert [center * scales[m] for m in range(3)] == pytest.approx([2.0, 2.0, 2.0])


def test_cross_kerr_template_two_variables():
    fam = StateFamily(FamilyKind.CLUSTER4_CROSS_KERR, V=3.0, d=1.5)
    _coeffs, _signs, variables = family_structure(fam)
    assert len(variables) == 2
    for V, center, _scales in variables:
        assert V == 3.0
        assert center == pytest.approx(math.sqrt(2.0) * 1.5)
    amps = {m: center * scale for _V, center, scales in variables
            for m, scale in scales.items()}
    assert [amps[m] for m in range(4)] == pytest.approx([1.5, 1.5, 1.5, 1.5])


def test_conditional_template_identity_mapping():
    fam = StateFamily(FamilyKind.GHZ4_CONDITIONAL, V=7.0, d=0.9)
    _coeffs, _signs, variables = family_structure(fam)
    assert variables == tuple((7.0, 0.9, {m: 1.0}) for m in range(4))


def test_kerr_branch_coefficients():
    fam = StateFamily(FamilyKind.GHZ3_KERR, V=1.0, d=1.0)
    coeffs, _signs, _variables = family_structure(fam)
    assert coeffs == (1.0, 1.0j)


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_family_table_matches_dense_reference(kind):
    # the dense reference writes every family out again, independently
    want_coeffs, want_signs, want_variables = dense_reference.FAMILIES[kind.value]
    for V, d in ((1.0, 0.0), (5.0, 1.3), (1000.0, 40.0)):
        family = StateFamily(kind, V, d)
        coeffs, signs, variables = family_structure(family)
        assert coeffs == tuple(complex(c) for c in want_coeffs)
        assert signs == want_signs
        assert family.num_modes == len(want_signs[0])
        assert len(variables) == len(want_variables)
        for (got_V, center, scales), (unit, want_scales) in zip(variables, want_variables):
            assert got_V == V
            assert center == unit * d
            assert scales == want_scales


def test_family_structure_exposes_engine_layout():
    # all three slots ride one shared mixture variable at unit scale
    fam = StateFamily(FamilyKind.W3, V=4.0, d=1.2)
    coeffs, signs, variables = family_structure(fam)
    assert len(coeffs) == 3
    assert len(signs) == 3
    assert all(len(pattern) == 3 for pattern in signs)
    (V, center, scales), = variables
    assert V == 4.0
    assert center == pytest.approx(1.2)
    assert scales == {0: 1.0, 1: 1.0, 2: 1.0}


def test_family_structure_beam_splitter_scaling():
    fam = StateFamily(FamilyKind.GHZ3_BEAM_SPLITTER, V=5.0, d=2.0)
    _coeffs, _signs, variables = family_structure(fam)
    (V, center, scales), = variables
    assert V == 5.0
    assert center == pytest.approx(math.sqrt(3.0) * 2.0)
    for scale in scales.values():
        assert scale == pytest.approx(1.0 / math.sqrt(3.0))


def test_family_kind_cli_names():
    assert FamilyKind("ghz3-bs") is FamilyKind.GHZ3_BEAM_SPLITTER
    assert FamilyKind("cluster4-xkerr") is FamilyKind.CLUSTER4_CROSS_KERR
