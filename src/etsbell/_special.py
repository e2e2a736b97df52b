"""Real erf and Dawson's integral as numpy kernels, within 2 ulp everywhere.

These are the only special functions the correlation engine needs, and
written in numpy they spare every command the import of scipy's.
Both are odd, so each is evaluated on a = |x| and takes the sign of x back,
which makes it exactly odd and zero at zero.  A table of panels over a,
fitted with mpmath by ``tools/fit_special.py`` (see there for the forms and
how to regenerate it), holds one degree-8 polynomial per panel.  A call
finds each element's panel, gathers the rows and evaluates the polynomials
of the whole array at once, mostly in place, so its cost is a fixed number
of array operations whatever the arguments.  Dawson's integral past the
table's last edge is the series in 1/a², which wide thermal weights reach.
NaN propagates, erf(±inf) = ±1, dawsn(±inf) = ±0, and no input warns.
"""

from __future__ import annotations

import numpy as np

from ._special_table import (DAWSON_PANELS, DAWSON_TAIL, DAWSON_TAIL_CUT, DEGREE, ERF_CUT,
                             ERF_PANELS)

if DEGREE != 8:
    raise ImportError(f"the kernels are written out for degree 8, the table has {DEGREE}")


def _table(panels: str):
    """Interior panel edges, and the rest of each row of the ``panels`` text
    as a (rows, panels) table with the rows M, S, c0_hi, c0_lo, then c1, c3,
    c5, c7 and c2, c4, c6, c8, so that each polynomial half gathers as one
    contiguous block."""
    rows = np.array(panels.split(), dtype=float).reshape(-1, DEGREE + 5)
    edges = np.ascontiguousarray(rows[:-1, 0])
    table = np.ascontiguousarray(np.concatenate((rows[:, 1:5], rows[:, 5::2], rows[:, 6::2]),
                                                axis=1).T)
    edges.flags.writeable = False
    table.flags.writeable = False
    return edges, table


_ERF = _table(ERF_PANELS)
_DAWSON = _table(DAWSON_PANELS)


def _panels(a: np.ndarray, cut: float, edges: np.ndarray, table: np.ndarray) -> np.ndarray:
    """min(c, S)·P(c − M) per element, c = min(a, cut), from the element's panel.

    P's correction t·(c1 + c2·t + ... + c8·t⁷) is summed in Estrin's order,
    pairs first, on whole blocks of the gathered rows.
    """
    c = np.minimum(a, cut)
    # NaN sorts past every edge, into the last panel, and propagates there.
    row = table.take(edges.searchsorted(c, side="right"), axis=1)
    t = c - row[0]
    pairs = row[8:12] * t
    pairs += row[4:8]
    t2 = t * t
    quads = pairs[1::2] * t2
    quads += pairs[0::2]
    p = quads[1] * (t2 * t2)
    p += quads[0]
    p *= t
    p += row[3]
    p += row[2]
    p *= np.minimum(c, row[1])
    return p


def erf(x) -> np.ndarray:
    """Error function of a real array."""
    x = np.asarray(x, dtype=float)
    return np.copysign(_panels(np.abs(x), ERF_CUT, *_ERF), x)


def dawsn(x) -> np.ndarray:
    """Dawson's integral exp(−x²)·∫₀ˣ exp(t²) dt of a real array."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    out = _panels(a, DAWSON_TAIL_CUT, *_DAWSON)
    # A NaN maximum takes this branch too, and stays NaN through it.
    if not a.max(initial=0.0) <= DAWSON_TAIL_CUT:
        # D(a) = h·(1 + u·T(u)) with h = 1/(2a), u = 1/a², added so that h
        # rounds once; the table's clamped values are replaced.
        h = 0.5 / np.maximum(a, DAWSON_TAIL_CUT)
        u = 4.0 * h * h
        series = np.full_like(u, DAWSON_TAIL[-1])
        for coefficient in DAWSON_TAIL[-2::-1]:
            series *= u
            series += coefficient
        series *= u
        series *= h
        series += h
        out = np.where(a > DAWSON_TAIL_CUT, series, out)
    return np.copysign(out, x)

