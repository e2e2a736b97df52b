"""Fit the coefficient tables of etsbell's numpy erf and Dawson kernels.

    python tools/fit_special.py

rewrites ``src/etsbell/_special_table.py`` from mpmath at 60 digits in
about ten seconds.  The fit is deterministic, so a rerun reproduces the
committed file byte for byte; it needs neither scipy nor a network.

Both kernels are odd and are evaluated on a = |x|.  The positive axis is cut
into panels; on panel k, with c = min(a, CUT) and t = c − M_k,

    P(t) = c0_hi + (c0_lo + t·(c1 + t·(c2 + ... + t·c_DEGREE))),
    f = min(c, S_k)·P(t).

S_k picks the panel's form.  Below SCALED_TOP, S = inf and f = c·P with P
fitting f/c, an even function with no zero: f keeps its relative accuracy
down to the smallest subnormal.  From SCALED_TOP on, S = SCALED_TOP = 1 and
P fits f itself.  The leading coefficient is split into a double and its
remainder, so that it enters with a single rounding, and the rest of P is a
small correction to it.  Each panel is grown as wide as the polynomial still
meets TOLERANCE (relative to f) on sample points, with its coefficients
rounded to doubles; the roundings of the evaluation itself are left to the
kernels' own test.

erf is 1 in double precision from ERF_CUT on, which one constant panel past
the last edge gives.  Dawson's integral past DAWSON_TAIL_CUT is
D(a) = h + h·u·T(u) with h = 1/(2a) and u = 4h², T fitted on [0, 1/CUT²].
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parents[1] / "src" / "etsbell" / "_special_table.py"
mp.mp.dps = 60

DEGREE = 8                 # polynomial degree of every panel
ERF_CUT = 6.0              # erfc(6) = 2.2e-17 < 2^-54: erf rounds to 1 from here
SCALED_TOP = 1.0           # f = c·P below, f = P from here on
DAWSON_TAIL_CUT = 16.0
TAIL_DEGREE = 8
TOLERANCE = mp.mpf(2) ** -57   # per panel, relative to f: 1/16 of 2^-53
SAMPLES = 32

SCALED = float("inf")
PLAIN = SCALED_TOP


def dawson(a):
    """D(a) = a·1F1(1; 3/2; −a²)."""
    a = mp.mpf(a)
    return a * mp.hyp1f1(1, mp.mpf(3) / 2, -a * a)


def _round(value) -> float:
    return float(mp.mpf(value))


def _fitted(form, func):
    """The function of c that P fits in ``form``, for f = ``func``."""
    if form == SCALED:
        return lambda c: func(c) / c if c else mp.diff(func, 0)
    return func


def _coefficients(g, lo, hi, mid: float):
    """Chebyshev fit of g(mid + t) on [lo, hi], as doubles, c0 split in two."""
    poly = mp.chebyfit(lambda t: g(mid + t), [lo - mid, hi - mid], DEGREE + 1)
    poly = poly[::-1]  # lowest order first
    hi0 = _round(poly[0])
    return [hi0, _round(poly[0] - hi0)] + [_round(c) for c in poly[1:]]


def _polynomial(coeffs, t):
    hi0, lo0, *rest = (mp.mpf(c) for c in coeffs)
    acc = mp.mpf(0)
    for c in reversed(rest):
        acc = acc * t + c
    return hi0 + (lo0 + acc * t)


def _panel(form, func, lo: float, hi: float):
    """(mid, coefficients, largest relative error of f on samples)."""
    mid = _round((mp.mpf(lo) + hi) / 2)
    fitted = _fitted(form, func)
    coeffs = _coefficients(fitted, mp.mpf(lo), mp.mpf(hi), mid)
    worst = mp.mpf(0)
    for j in range(SAMPLES + 1):
        c = mp.mpf(lo) + (mp.mpf(hi) - lo) * j / SAMPLES
        worst = max(worst, abs(_polynomial(coeffs, c - mid) / fitted(c) - 1))
    return mid, coeffs, worst


def _nice(value: float) -> float:
    """``value`` rounded down to 5 significant digits, so the edges read well."""
    digits = mp.floor(mp.log10(value)) - 4
    return _round(mp.floor(mp.mpf(value) / 10 ** digits) * 10 ** digits)


def _panels(form, func, lo: float, top: float, width: float):
    """Rows of greedy panels on [lo, top], each about as wide as TOLERANCE allows."""
    rows = []
    while lo < top:
        width *= 1.3
        while True:
            hi = min(top, _nice(lo + width))
            if hi <= lo:
                raise RuntimeError(f"no panel from {lo} meets the tolerance")
            mid, coeffs, err = _panel(form, func, lo, hi)
            if err <= TOLERANCE:
                break
            width *= 0.85
        rows.append((hi, mid, form, *coeffs))
        width = hi - lo
        lo = hi
    return rows


def erf_rows():
    rows = _panels(SCALED, mp.erf, 0.0, SCALED_TOP, 0.05)
    rows += _panels(PLAIN, mp.erf, SCALED_TOP, ERF_CUT, 0.05)
    # From ERF_CUT on, P = 1 exactly.
    return rows + [(float("inf"), ERF_CUT, PLAIN, 1.0, *[0.0] * (DEGREE + 1))]


def dawson_rows():
    rows = _panels(SCALED, dawson, 0.0, SCALED_TOP, 0.05)
    return rows + _panels(PLAIN, dawson, SCALED_TOP, DAWSON_TAIL_CUT, 0.05)


def dawson_tail():
    """T(u) = (2aD(a) − 1)/u on u = 1/a² ∈ [0, 1/CUT²], lowest order first."""
    def series(u):
        a = 1 / mp.sqrt(u)
        return (2 * a * dawson(a) - 1) / u
    poly = mp.chebyfit(series, [mp.mpf(0), 1 / mp.mpf(DAWSON_TAIL_CUT) ** 2], TAIL_DEGREE + 1)
    return [_round(c) for c in poly[::-1]]


def _row(values) -> str:
    """One panel row as whitespace-separated reprs, which numpy parses back exactly."""
    return " ".join(repr(float(v)) for v in values)


def main() -> None:
    lines = [
        '"""Generated by tools/fit_special.py; edit and rerun that script instead.',
        "",
        "Each panel table is a string with one row per line, (upper edge, M, S,",
        "c0_hi, c0_lo, c1, ..., c_DEGREE) as whitespace-separated reprs: a string",
        "compiles far faster than as many float literals.  The script describes",
        'the forms."""',
        "",
        f"DEGREE = {DEGREE}",
        f"ERF_CUT = {ERF_CUT!r}",
        f"DAWSON_TAIL_CUT = {DAWSON_TAIL_CUT!r}",
    ]
    for name, rows in (("ERF_PANELS", erf_rows()), ("DAWSON_PANELS", dawson_rows())):
        lines += ["", f'{name} = """'] + [_row(row) for row in rows] + ['"""']
    lines += ["", "# T(u), lowest order first.",
              f"DAWSON_TAIL = ({', '.join(repr(float(c)) for c in dawson_tail())})"]
    OUT.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
