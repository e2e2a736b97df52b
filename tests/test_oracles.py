"""Closed-form expressions checked against limits and the full engine."""

import math

import pytest

import qubit_oracle
from closed_forms import W_SVETLICHNY_MAX, spin_ghz_correlation, w_correlation_closed
from etsbell.integration import converged_correlation
from etsbell.measurement import zx_rotation
from etsbell.oracles import (
    GHZ3_SVETLICHNY_MAX,
    GHZ4_SVETLICHNY_MAX,
    compensated_displacement,
    ghz_correlation_closed,
    gram_decay,
    sasa_closed,
    sign_contrast,
    svetlichny_ghz4_closed,
    svetlichny_ghz_closed,
)
from etsbell.states import FamilyKind, StateFamily


def test_quantum_maxima_constants():
    assert GHZ3_SVETLICHNY_MAX == pytest.approx(4.0 * math.sqrt(2.0))
    assert GHZ4_SVETLICHNY_MAX == pytest.approx(8.0 * math.sqrt(2.0))
    assert W_SVETLICHNY_MAX == pytest.approx(16.0 * math.sqrt(6.0) / 9.0)


def test_sign_contrast_reduces_to_erf():
    assert sign_contrast(1.0, 0.7) == pytest.approx(
        math.erf(math.sqrt(2.0) * 0.7))
    # inefficiency rescales the argument and broadens the denominator
    want = math.erf(math.sqrt(2.0) * 0.5 * 2.0
                    / math.sqrt(1.0 + 0.25 * (5.0 - 1.0)))
    assert sign_contrast(5.0, 2.0, eta=0.5) == pytest.approx(want)


def test_gram_decay_value():
    assert gram_decay(5.0, 1.0) == pytest.approx(math.exp(-0.4) / 5.0)
    assert gram_decay(1.0, 0.0) == pytest.approx(1.0)


def test_spin_ghz_correlation_is_cosine_of_phase_sum():
    assert spin_ghz_correlation(0.3, 1.1, 2.4) == pytest.approx(
        math.cos(3.8))


def test_ghz_closed_form_limits():
    # large displacement: contrast saturates and overlap terms vanish
    assert ghz_correlation_closed(5.0, 50.0, (0.2, 0.3, 0.4)) == \
        pytest.approx(math.cos(0.9), rel=1e-12)
    # zero displacement: equal overlap weight cancels the cosine entirely
    assert ghz_correlation_closed(5.0, 0.0, (0.2, 0.3, 0.4)) == \
        pytest.approx(0.0, abs=1e-15)


def test_svetlichny_closed_form_plateau():
    assert svetlichny_ghz_closed(10.0, 60.0, eta=0.1) == pytest.approx(
        GHZ3_SVETLICHNY_MAX, rel=1e-9)
    assert svetlichny_ghz4_closed(10.0, 60.0, eta=0.1) == pytest.approx(
        GHZ4_SVETLICHNY_MAX, rel=1e-9)
    assert svetlichny_ghz_closed(5.0, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_svetlichny4_closed_form_matches_engine():
    from etsbell.inequalities import canonical_angles, evaluate, get_inequality
    spec = get_inequality("svetlichny4")
    for V, d in ((2.0, 1.0), (5.0, 2.0)):
        fam = StateFamily(FamilyKind.GHZ4_CONDITIONAL, V, d)
        angles = canonical_angles(spec, FamilyKind.GHZ4_CONDITIONAL).angles
        got = evaluate(spec, fam, angles)
        assert got == pytest.approx(svetlichny_ghz4_closed(V, d), abs=1e-9)


def test_sasa_closed_form():
    assert sasa_closed(1.0, 50.0) == pytest.approx(4.0, rel=1e-12)
    assert sasa_closed(5.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    # 2E^3(1+E) with E the sign contrast
    E = sign_contrast(5.0, 1.3, 0.8)
    assert sasa_closed(5.0, 1.3, 0.8) == pytest.approx(
        2.0 * E ** 3 * (1.0 + E), rel=1e-12)


def test_w_closed_form_asymptote():
    # all-z readout of the three-branch state gives parity -1
    assert w_correlation_closed(10.0, 60.0, (0.0, 0.0, 0.0)) == \
        pytest.approx(-1.0, rel=1e-9)


def test_w_closed_form_matches_engine():
    fam = StateFamily(FamilyKind.W3, 10.0, 40.0)
    for thetas in ((0.4, 1.0, 2.2), (math.pi / 3, math.pi / 5, 0.9)):
        got = converged_correlation(fam, [zx_rotation(t) for t in thetas])
        assert got == pytest.approx(w_correlation_closed(10.0, 40.0, thetas),
                                    abs=1e-7)


def test_w_closed_form_matches_spin_oracle():
    state = qubit_oracle.w_state()
    for thetas in ((0.4, 1.0, 2.2), (2.8, 0.3, 1.6)):
        pairs = [(zx_rotation(t).theta, zx_rotation(t).phase) for t in thetas]
        want = qubit_oracle.correlation(state, pairs)
        got = w_correlation_closed(1.0, 25.0, thetas)
        assert got == pytest.approx(want, abs=1e-9)


def test_compensated_displacement():
    assert compensated_displacement(3.0, 4.0, 0.5) == pytest.approx(
        3.0 * math.sqrt(2.0))
    assert compensated_displacement(3.0, 100.0, 1.0) == pytest.approx(
        3.0 * math.sqrt(1.01))


def test_ghz_closed_form_agrees_with_spin_oracle_limit():
    phases = (0.15, 0.7, 1.9)
    pairs = [(math.pi / 2, g) for g in phases]
    want = qubit_oracle.correlation(qubit_oracle.ghz_state(3), pairs)
    assert ghz_correlation_closed(1.0, 30.0, phases) == pytest.approx(
        want, abs=1e-12)
