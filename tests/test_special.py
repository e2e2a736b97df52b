"""The engine's numpy erf and Dawson kernels against mpmath at 50 digits."""

import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest

from etsbell import _special, validation
from etsbell._special import dawsn, erf
from etsbell._special_table import DAWSON_TAIL

# Dense on the range the quadrature rules reach, then log-spaced over every
# magnitude a double has, subnormals included, with random signs.
_RNG = np.random.default_rng(20261018)
GRID = np.concatenate((
    _RNG.uniform(-40.0, 40.0, 2500),
    _RNG.uniform(-6.0, 6.0, 1000),
    _RNG.choice((-1.0, 1.0), 600) * 10.0 ** _RNG.uniform(-323.0, 300.0, 600),
    [5e-324, 2.2250738585072014e-308, 1e-8, 0.5, 1.0, 6.0, 16.0, 1e150, 1e300,
     1.7976931348623157e308],
))


def _dawson(x):
    """D(x) = x·1F1(1; 3/2; −x²), or its asymptotic series, whose error
    e^{−x²} is far below 50 digits past |x| = 30."""
    if abs(x) < 30:
        return x * mpmath.hyp1f1(1, 1.5, -x * x)
    term = mpmath.mpf(1)
    total = mpmath.mpf(0)
    n = 0
    while abs(term) > mpmath.mpf(10) ** -55:
        total += term
        n += 1
        term *= (2 * n - 1) / (2 * x * x)
    return total / (2 * x)


def _ulps(got: np.ndarray, reference) -> np.ndarray:
    """|got − reference| in units of the spacing of doubles at the reference."""
    errs = []
    with mpmath.workdps(50):
        for g, x in zip(got.tolist(), GRID.tolist()):
            exact = reference(mpmath.mpf(x))
            spacing = np.spacing(abs(float(exact))) or 5e-324
            errs.append(float(abs(mpmath.mpf(g) - exact)) / spacing)
    return np.array(errs)


@pytest.mark.parametrize("kernel, reference", [(erf, mpmath.erf), (dawsn, _dawson)],
                         ids=["erf", "dawsn"])
def test_kernel_within_two_ulp_of_mpmath(kernel, reference):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(GRID)
    errs = _ulps(got, reference)
    worst = int(np.argmax(errs))
    assert errs[worst] <= 2.0, (GRID[worst], got[worst], errs[worst])


@pytest.mark.parametrize("kernel", [erf, dawsn], ids=["erf", "dawsn"])
def test_kernel_is_exactly_odd_and_zero_at_zero(kernel):
    # the CLI prints an exact 0 at d = 0 only if odd sums cancel exactly
    assert np.array_equal(kernel(-GRID), -kernel(GRID))
    zeros = kernel(np.array([0.0, -0.0]))
    assert zeros.tolist() == [0.0, 0.0]
    assert np.signbit(zeros).tolist() == [False, True]


def test_kernels_at_infinity_and_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = np.array([math.inf, -math.inf, math.nan])
        e = erf(edge)
        d = dawsn(edge)
    assert e[:2].tolist() == [1.0, -1.0]
    assert d[:2].tolist() == [0.0, 0.0]
    assert np.signbit(d[:2]).tolist() == [False, True]
    assert math.isnan(e[2]) and math.isnan(d[2])
    # a NaN does not disturb its neighbours, on the table or past it
    mixed = np.array([math.nan, 0.7, 100.0])
    assert np.array_equal(dawsn(mixed)[1:], dawsn(mixed[1:]))
    assert np.array_equal(erf(mixed)[1:], erf(mixed[1:]))


@pytest.mark.parametrize("x, erf_value, dawsn_value", validation._KERNEL_TABLE)
def test_validation_kernel_table_is_mpmath_rounded(x, erf_value, dawsn_value):
    # every stored value of the numerical-kernels check is the double nearest
    # the 50-digit reference
    with mpmath.workdps(50):
        assert float(mpmath.erf(mpmath.mpf(x))) == erf_value
        assert float(_dawson(mpmath.mpf(x))) == dawsn_value


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_parsed_tables_keep_their_bits():
    # the panel tables are stored as text and parsed at import; these are
    # the digests of the edges and tables the float-literal tables gave
    assert _sha256(*_special._ERF) == (
        "51c60f803bc6fdda650ee1f0d02c55ec8e15019f3723283669f1837ace901ccc")
    assert _sha256(*_special._DAWSON) == (
        "b5b82fbba0d18bfd341bc4657acd868623fd2ddbb13b2c65e3720e95127eacb9")
    assert _sha256(np.array(DAWSON_TAIL, dtype=float)) == (
        "2614eef6054d8995b9db7bb57655641f97a973ea12c58f21727f3a527de2657d")
