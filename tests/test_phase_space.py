"""The pure-state oracle's scalar kernels: overlaps, half-line integrals, Faddeeva."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from phase_space import (
    AMP_MAX,
    FADDEEVA_MAX_ARG,
    AmplitudeRangeError,
    FaddeevaOverflowError,
    HalfLineSign,
    coherent_overlap,
    faddeeva,
    halfline_interference_integral,
    quadrature_amplitude,
)

# (Re z, Im z, Re w, Im w) computed once at 50 decimal digits with mpmath
# (w = exp(-z²)·erfc(-iz)).
FADDEEVA_TABLE = (
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

amplitudes = hst.complex_numbers(
    max_magnitude=4.0, allow_nan=False, allow_infinity=False)


def test_overlap_normalization():
    assert coherent_overlap(1.3 + 0.4j, 1.3 + 0.4j) == pytest.approx(1.0)


def test_overlap_opposite_displacements():
    assert coherent_overlap(1.0, -1.0) == pytest.approx(math.exp(-2.0))


def test_overlap_complex_pair():
    got = coherent_overlap(1.0 + 1.0j, 1.0 - 1.0j)
    assert got == pytest.approx(cmath.exp(-2.0 + 2.0j), abs=1e-15)


def test_overlap_conjugate_symmetry():
    a, b = 0.7 - 0.2j, -1.1 + 0.9j
    assert coherent_overlap(a, b) == pytest.approx(
        coherent_overlap(b, a).conjugate())


def test_overlap_amplitude_guard():
    with pytest.raises(AmplitudeRangeError):
        coherent_overlap(2.0 * AMP_MAX, 0.0)


def test_quadrature_amplitude_vacuum_peak():
    assert quadrature_amplitude(0.0, 0.0) == pytest.approx(math.pi ** -0.25)


def test_quadrature_amplitude_is_shifted_gaussian():
    # displacing by a real amplitude alpha moves the peak to sqrt(2)*alpha
    alpha = 0.8
    peak = math.sqrt(2.0) * alpha
    assert abs(quadrature_amplitude(peak, alpha)) == pytest.approx(
        math.pi ** -0.25)
    assert abs(quadrature_amplitude(peak + 1.0, alpha)) < math.pi ** -0.25


def test_halfline_vacuum_splits_evenly():
    got = halfline_interference_integral(0.0, 0.0, HalfLineSign.PLUS)
    assert got == pytest.approx(0.5)


def test_halfline_displaced_diagonal():
    want = 0.5 * (1.0 + math.erf(math.sqrt(2.0)))
    got = halfline_interference_integral(1.0, 1.0, HalfLineSign.PLUS)
    assert got == pytest.approx(want, abs=1e-14)


def test_halfline_accepts_plain_int_sign():
    a = halfline_interference_integral(0.3, -0.2j, 1)
    b = halfline_interference_integral(0.3, -0.2j, HalfLineSign.PLUS)
    assert a == b
    with pytest.raises(ValueError):
        halfline_interference_integral(0.3, -0.2j, 2)


@settings(max_examples=60, deadline=None)
@given(amplitudes, amplitudes)
def test_halfline_completeness(alpha, beta):
    total = (halfline_interference_integral(alpha, beta, HalfLineSign.PLUS)
             + halfline_interference_integral(alpha, beta, HalfLineSign.MINUS))
    assert abs(total - coherent_overlap(alpha, beta)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(amplitudes, amplitudes)
def test_halfline_hermiticity(alpha, beta):
    left = halfline_interference_integral(alpha, beta, HalfLineSign.PLUS)
    right = halfline_interference_integral(beta, alpha, HalfLineSign.PLUS)
    assert abs(left - right.conjugate()) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(amplitudes)
def test_halfline_diagonal_is_probability(alpha):
    value = halfline_interference_integral(alpha, alpha, HalfLineSign.PLUS)
    assert abs(value.imag) <= 1e-13
    assert -1e-13 <= value.real <= 1.0 + 1e-13


def test_faddeeva_reference_points():
    assert faddeeva(1j) == pytest.approx(0.427583576155807, rel=1e-13)
    assert faddeeva(0.5) == pytest.approx(
        0.7788007830714049 + 0.47892517290104347j, rel=1e-13)
    assert faddeeva(-2j) == pytest.approx(108.94090438997797, rel=1e-13)


@pytest.mark.parametrize("zr, zi, wr, wi", FADDEEVA_TABLE)
def test_faddeeva_matches_mpmath_table(zr, zi, wr, wi):
    want = complex(wr, wi)
    assert abs(faddeeva(complex(zr, zi)) - want) <= 1e-10 * abs(want)


def test_faddeeva_overflow_guard():
    with pytest.raises(FaddeevaOverflowError):
        faddeeva(complex(0.0, -40.0))
    with pytest.raises(FaddeevaOverflowError):
        faddeeva(complex(2.0 * FADDEEVA_MAX_ARG, 0.0))
