"""Quadrature engine for thermal correlation estimates.

The estimators exploit the structure of sign-of-x statistics on ± amplitude
lattices: the integrand factorizes over mixture variables, each contributing a
two-axis integral of per-mode 2x2 node matrices.  Every such block is a sum of
two products of an x factor and a y factor, so the planar integral of a
variable feeding k modes is a sum of 2^k products of 1-D moments, one summed
over each axis.  No 2-D grid is ever formed; a pass costs O(2^k·n) for n
nodes per axis.

An estimate runs in two steps.  The moments depend on the state, the
detector, the refinement level and which modes a term leaves unmeasured,
but not on the measurement angles; one pass forms them, kernels included,
for every term of a functional, together with the Gram denominator of each
unmeasured pattern, and a small memo keeps the last few so that an
optimizer's evaluations of one state share them.  An estimate's first pass
serves levels 0 and 1 of the refinement ladder: it forms each axis factor
once on both levels' nodes joined and each level's moments by a sum over
its own slice; a later level is a pass of its own.  The angle blocks come
from (θ, γ) arrays in one vectorised table, which the terms gather through
a static (terms × modes) index.  All terms are then contracted with the
shared moments over a stacked term axis and the level axis, by elementwise
arithmetic in an order fixed by the family, so a term's value is
bit-identical whichever terms share its call, wherever it sits and
whichever level shares its pass.  The angle side is memoized like the
state side: each table, and each gather of it over a state's branch pairs,
is built once per distinct (θ, γ, layout, branch rows) by value, so a
crossing search's rounds and a figure's cells, which share their angles,
share them too.

A term's numerator is linear in each mode's block pair, and the Gram
denominator does not depend on the angles, so the exact derivative of a
correlation by one angle is the same contraction with that mode's pair
replaced by its derivative, divided by the same denominator.  A gradient
layout appends one such row per (term, measured mode, angle) to the term
axis, and the table appends the derivative pairs it gathers; every row is
read at the refinement level its term converges at.

The moments come from deterministic per-axis rules (Gauss-Hermite, or a
windowed composite Gauss-Legendre rule for wide weights) refined level by
level.

A curve is a set of points of one family kind and one V that differ only
in d and share the detector, the angles and the config: the d axis of a
figure, or a crossing search's probe profile and each round of its search.
Along it only the centre c·d of each mixture variable moves; the branch
structure, the y rule, the y moments and the x weights do not.  On a shift rule, whose nodes follow the
centre by a shift alone (the delta rule at V = 1, or Gauss-Hermite below
the composite tail), each pass forms the y factors and moments once and
the x factors of every point as one (points × nodes) array, and
the contraction runs over a stacked (points × terms) axis.  Each point
stops at its own first converged level and only the rest climb.  The
composite rule's panels move with the centre, so there each point is a
curve of its own; a single estimate is a curve of one point.  The points
axis meets only elementwise arithmetic and einsum sums that run over each
point's own nodes, so a point carries the bits it has alone (the tests
check this).

The node functions need only real erf and Dawson's integral, which come from
the numpy kernels of :mod:`._special` (within 2 ulp of the exact values), so
no estimate imports scipy.  Those kernels cost a fixed number of array
operations per call, so a pass calls them as rarely as it can.  Axis factors
are formed once per distinct (axis, scale, η) in a pass, and moments once
per distinct variable: the modes of a splitter or Kerr state share one
scale, the variables of a conditional state are equal, and a per-mode η
that differs splits them.  Sharing is keyed on values, so it moves no bit.
Dawson's integral enters a y moment once per measured mode whose second
part the moment takes.  It is odd and the y weight is symmetric about 0, so
a moment with an odd number of such factors integrates to zero; the pass
sets it to zero instead of summing roundoff, and a variable with at most
one measured mode needs no Dawson values at all.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from ._special import dawsn, erf
from .errors import NonconvergenceError
from .measurement import DetectorModel, EffectiveRotation
from .states import StateFamily, family_structure

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)

# Gauss-Hermite handles the Gaussian-weighted node functions exactly up to
# this axis spread; wider weights need the windowed composite rule because
# the erf and Dawson factors stop resembling polynomials over the support.
_GH_SIGMA_MAX = 1.55
_RANGE_SIGMAS = 8.5
_FINE_ERF_HALFWIDTH = 4.5
_FINE_DAWSON_HALFWIDTH = 5.0
_FINE_PANEL_FRACTION = 0.4
_COMPOSITE_BASE_ORDER = 12
_MAX_AXIS_NODES = 200
# Axis rules kept in memory: a few per state, so this spans many states.
_AXIS_RULE_CACHE = 256
# Moment sets kept in memory: one state's refinement levels, which an
# optimizer revisits at every evaluation.  A sweep moves to a new state at
# every point, so it finds nothing here and computes its own.
_MOMENT_CACHE = 4
# Rotation tables and their branch-pair gathers kept in memory: a crossing
# search or a figure cell asks for a few angle sets many times; an optimizer
# moves to new angles at every evaluation, so it finds nothing here.
_ANGLE_CACHE = 16

# Per-mode 2x2 blocks over the (+,−) branch pair.  A rotated block is
# erf·A + e^{−2s²x²}·h(y)·B with (A, B) = M·_NUMERATOR_PAIR·M, that is
# A = M·diag(1,−1)·M and B = M·[[0,−1],[1,0]]·M; a Gram block (also an
# unmeasured mode's) is δ + (1−δ)·e^{−2s²x²}·e^{−2s²y²}, the pair below.
_NUMERATOR_PAIR = np.array((np.diag([1.0, -1.0]), [[0.0, -1.0], [1.0, 0.0]]),
                           dtype=complex)[:, None]
_GRAM_BLOCKS = np.array((np.eye(2), 1.0 - np.eye(2)), dtype=complex)


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and tolerance knobs shared by all integration routines.

    ``nodes_per_axis`` seeds the refinement ladders (refinement may double
    it up to 200 nodes per axis), and estimates count as converged once the
    refinement difference drops below ``rel_tol`` relative to max(|value|, 1).
    """

    nodes_per_axis: int = 40
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not (1 <= self.nodes_per_axis <= _MAX_AXIS_NODES):
            raise ValueError(
                f"nodes_per_axis must lie in [1, {_MAX_AXIS_NODES}], got {self.nodes_per_axis}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")


@lru_cache(maxsize=None)
def _gh_rule(n: int):
    return hermgauss(n)


@lru_cache(maxsize=None)
def _gl_rule(n: int):
    return leggauss(n)


def _gauss_axis(mu: float, sigma: float, n: int):
    t, w = _gh_rule(n)
    return mu + _SQRT2 * sigma * t, w / _SQRT_PI


def _composite_axis(mu: float, sigma: float, order: int, smax: float, eta_min: float):
    """Panelled Gauss-Legendre rule with the Gaussian weight folded in.

    Fine panels cover the window around the origin where the erf and Dawson
    node functions vary on the 1/smax scale; panels of width sigma cover the
    rest of the weight's support.
    """
    lo = mu - _RANGE_SIGMAS * sigma
    hi = mu + _RANGE_SIGMAS * sigma
    zf = max(_FINE_ERF_HALFWIDTH / smax,
             _FINE_DAWSON_HALFWIDTH / (_SQRT2 * max(eta_min, 1e-3) * smax))
    fine_lo = max(lo, -zf)
    fine_hi = min(hi, zf)
    fine_width = _FINE_PANEL_FRACTION / smax

    edges: list[float] = [lo]

    def extend(stop: float, width: float):
        start = edges[-1]
        if stop <= start:
            return
        count = max(1, int(math.ceil((stop - start) / width)))
        step = (stop - start) / count
        for k in range(1, count + 1):
            edges.append(start + k * step)

    if fine_hi > fine_lo:
        extend(fine_lo, sigma)
        extend(fine_hi, fine_width)
    extend(hi, sigma)

    t, w = _gl_rule(order)
    xs = []
    ws = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        xs.append(mid + half * t)
        ws.append(half * w)
    x = np.concatenate(xs)
    weight = np.concatenate(ws)
    density = np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return x, weight * density


def _shift_rule(sigma: float, level: int) -> bool:
    """Whether the rule of an axis of spread ``sigma`` at ``level`` follows
    its centre by a shift alone: the delta rule, or Gauss-Hermite below the
    composite tail.  Only such rules are shared along a curve."""
    return sigma == 0.0 or (sigma <= _GH_SIGMA_MAX and level <= 2)


def _shifted_axis(centres: np.ndarray, sigma: float, level: int, nodes_per_axis: int):
    """Nodes of a shift rule at each of ``centres``, shaped (centres, n), and
    the weights they share."""
    if sigma == 0.0:
        return centres[:, None], np.array([1.0])
    n = min(nodes_per_axis * (1 << level), _MAX_AXIS_NODES)
    return _gauss_axis(centres[:, None], sigma, n)


@lru_cache(maxsize=_AXIS_RULE_CACHE)
def _axis_rule(mu: float, sigma: float, smax: float, eta_min: float,
               level: int, nodes_per_axis: int):
    """Refinement ladder for one axis, as read-only (nodes, weights).

    Narrow weights climb three Gauss-Hermite node doublings and then switch
    to the windowed composite rule, which handles integrands the Hermite
    polynomials resolve slowly; wide weights use the composite rule from the
    start with panel-order doubling.  Rules are memoized: every term of a
    functional, every refinement pass and every identical variable of a
    state asks for the same ones.
    """
    if _shift_rule(sigma, level):
        nodes, weights = _shifted_axis(np.array([mu]), sigma, level, nodes_per_axis)
        nodes = nodes[0]
    else:
        doublings = min(level, 2) if sigma > _GH_SIGMA_MAX else level - 3
        nodes, weights = _composite_axis(mu, sigma, _COMPOSITE_BASE_ORDER << doublings,
                                         smax, eta_min)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _variable_sigma(V: float) -> float:
    return math.sqrt(max(V - 1.0, 0.0) / 4.0)


def curve_shares_pass(V: float) -> bool:
    """Whether the points of a curve at ``V`` share an estimate's first
    engine pass (levels 0 and 1), or each takes its own on the composite rule."""
    return _shift_rule(_variable_sigma(V), 1)


@lru_cache(maxsize=None)
def _moment_subscripts(k: int, points: bool) -> str:
    """einsum spec for a variable feeding k modes: it sums per-mode axis
    factors (u: numerator or Gram, one term letter per mode, p: point of a
    curve where ``points``, x: node) against the axis weights into 2^k
    moments per u and point."""
    terms = "abcdefgh"[:k]
    p = "p" if points else ""
    return ",".join(f"u{t}{p}x" for t in terms) + f",x->u{terms}{p}"


class _Moments(NamedTuple):
    """The angle-independent half of a pass over one state.

    ``weights`` holds the branch-pair coefficients conj(c_j)·c_i.
    ``rows[m]`` holds mode m's row of each branch (0 where the branch has
    +α, 1 where it has −α), and ``variables`` each mixture variable's modes.
    ``numerators`` holds one array per variable, shaped
    (2,)*k + (levels, points, patterns): for each refinement level of the
    pass, each point of the curve and each pattern of unmeasured modes
    (True per mode a term leaves out), in the order the pass was given
    them, the 2^k numerator moments.  ``denominators`` holds the state
    trace of each, shaped (levels, points, patterns).
    """

    weights: np.ndarray
    rows: np.ndarray
    variables: tuple
    numerators: tuple
    denominators: np.ndarray


@lru_cache(maxsize=None)
def _odd_dawson(offs: tuple) -> np.ndarray:
    """Entries of a y moment, shaped (2,)*k over the k modes of ``offs``,
    that carry an odd number of Dawson factors: the second separable part
    of an odd number of measured modes."""
    parts = np.indices((2,) * len(offs))
    odd = sum(parts[m] for m, off in enumerate(offs) if not off) % 2 == 1
    odd.flags.writeable = False
    return odd


def _x_factors(x, scale: float, eta):
    """A mode's x factors, numerator then Gram, each (part 0, part 1) per
    point and node; ``eta`` is None for an unmeasured mode, which takes the
    Gram pair."""
    sx = scale * x
    gauss = np.exp(-2.0 * sx * sx)
    gram = (np.ones_like(sx), gauss)
    return np.array((gram if eta is None else (erf(_SQRT2 * eta * sx), gauss), gram))


def _y_factors(y, scale: float, eta, dawson: bool):
    """A mode's y factors, as :func:`_x_factors`.  A measured mode's Dawson
    part is formed only with ``dawson``; otherwise it is zero, as every y
    moment it would enter is (see the module docstring)."""
    sy = scale * y
    ones = np.ones_like(sy)
    gram = (ones, np.exp(-2.0 * sy * sy))
    if eta is None:
        return np.array((gram, gram))
    if dawson:
        part = ((2j / _SQRT_PI) * np.exp(-2.0 * (1.0 - eta * eta) * sy * sy)
                * dawsn(_SQRT2 * eta * sy))
    else:
        part = np.zeros_like(sy, dtype=complex)
    return np.array(((ones, part), gram))


def _variable_moments(x, y, w, per_mode, local, factors: dict):
    """One variable's numerator and Gram moments for each level, each point
    and each of its distinct local patterns, stacked on the last three axes,
    the patterns in the order of ``local``.

    ``per_mode`` holds each mode's (scale, η), η None where no pattern
    measures the mode.  ``factors`` memoizes axis factors by value across
    the pass, so modes and variables with equal axes, scales and η share
    them.  The y moments serve every point; the x factors of all points are
    one array, and their moments one sum.
    """
    ends = [np.cumsum([0] + [part.shape[-1] for part in parts]) for parts in (x, y)]
    levels = [(slice(*ends[0][i:i + 2]), slice(*ends[1][i:i + 2])) for i in range(len(x))]
    x = np.concatenate(x, axis=-1)
    y = np.concatenate(y)
    wx = w[:x.shape[-1]]
    wy = w[x.shape[-1]:]
    x_key = x.tobytes()
    y_key = y.tobytes()
    y_sum = _moment_subscripts(len(per_mode), False)
    x_sum = _moment_subscripts(len(per_mode), True)
    # Patterns that agree on the variable's own modes share one sum.  Each
    # pattern's Gram moments come from the sum that carries its numerator,
    # and may differ from another pattern's in the last bit, so each
    # pattern keeps its own denominator.
    by_local = dict.fromkeys(local)
    for offs in by_local:
        # Dawson's integral is odd and the y weight symmetric, so a y moment
        # with an odd number of Dawson factors is zero; with at most one
        # measured mode every Dawson factor enters such a moment.
        dawson = sum(not off for off in offs) > 1
        x_factors = []
        y_factors = []
        for (scale, eta), off in zip(per_mode, offs):
            eta = None if off else eta
            key = (x_key, scale, eta)
            if key not in factors:
                factors[key] = _x_factors(x, scale, eta)
            x_factors.append(factors[key])
            key = (y_key, scale, eta, dawson)
            if key not in factors:
                factors[key] = _y_factors(y, scale, eta, dawson)
            y_factors.append(factors[key])
        by_local[offs] = per_level = []
        for sx, sy in levels:
            y_moments = np.einsum(y_sum, *(f[..., sy] for f in y_factors), wy[sy])
            if dawson:
                y_moments[0][_odd_dawson(offs)] = 0.0
            per_level.append(np.einsum(x_sum, *(f[..., sx] for f in x_factors), wx[sx])
                             * y_moments[..., None])
    # (patterns, levels, u, 2^k moments, points) -> (u, 2^k, levels, points, patterns)
    stacked = np.moveaxis(np.array([by_local[offs] for offs in local]), (0, 1), (-1, -3))
    numerator = np.ascontiguousarray(stacked[0])
    numerator.flags.writeable = False
    return numerator, stacked[1]


def _engine_pass(coeffs, signs, variables, patterns, detector: DetectorModel,
                 grids) -> _Moments:
    """Per-variable moments, and the denominator, of every pattern in ``patterns``.

    ``grids`` supplies (x, y, w) per variable: per level, the x nodes of
    every point of the curve, shaped (points, n), and the y nodes, which the
    points share; and ``w``, all x weights followed by all y weights, which
    enter as each level's product measure of the two axes.  Every per-mode
    block is a sum of two separable terms, so each variable needs only the
    2^k products of per-mode axis factors (k modes), summed over x and over
    y separately.  A mode that a term leaves unmeasured takes the Gram
    factors in place of the detector's, so the numerator moments are formed
    once per pattern, each stacked on the Gram moments, which are then
    contracted into that pattern's denominators.
    Variables equal in value (grid, scales, η and patterns) share one set of
    moments.  Nothing here depends on the measurement angles.
    """
    measured = {m for p in patterns for m, off in enumerate(p) if not off}
    factors = {}
    shared = {}
    variable_modes = []
    numerators = []
    grams = []
    for (_V, _centres, scales), (x, y, w) in zip(variables, grids):
        modes = tuple(sorted(scales))
        variable_modes.append(modes)
        per_mode = tuple((scales[m], detector.eta_for(m) if m in measured else None)
                         for m in modes)
        local = tuple(tuple(p[m] for m in modes) for p in patterns)
        key = (tuple(part.tobytes() for part in x + y), w.tobytes(), per_mode, local)
        if key not in shared:
            shared[key] = _variable_moments(x, y, w, per_mode, local, factors)
        numerator, gram = shared[key]
        numerators.append(numerator)
        grams.append(gram)
    coeffs = np.array(coeffs)
    weights = np.multiply.outer(coeffs.conj(), coeffs)
    weights.flags.writeable = False
    rows = (1 - np.array(signs).T) // 2
    rows.flags.writeable = False
    variable_modes = tuple(variable_modes)
    # _contract returns the real part of a complex array; the memo keeps a copy.
    denominators = np.ascontiguousarray(
        _contract(weights, variable_modes, grams, _gram_pairs(_array_key(rows))))
    denominators.flags.writeable = False
    return _Moments(weights, rows, variable_modes, tuple(numerators), denominators)


def _branch_pairs(table, index, rows) -> np.ndarray:
    """Per-mode block pairs over the branch pairs, shaped (2, T, modes, B, B).

    ``table[s, row]`` is the s-th 2x2 block of a separable pair over the
    (+,−) branch pair, ``index[t, m]`` picks the row mode m takes for each
    t, and ``rows[m]`` gives mode m's row of each of the B branches.
    """
    return table[:, index[:, :, None, None], rows[:, :, None], rows[:, None, :]]


def _array_key(array) -> tuple:
    """A hashable key of an array's value: its dtype, shape and bytes."""
    array = np.asarray(array)
    return array.dtype.str, array.shape, array.tobytes()


def _keyed_array(key) -> np.ndarray:
    """The read-only array of an :func:`_array_key` key."""
    dtype, shape, data = key
    return np.frombuffer(data, dtype=dtype).reshape(shape)


@lru_cache(maxsize=_ANGLE_CACHE)
def _gram_pairs(rows: tuple) -> np.ndarray:
    """Memoized block pairs of a denominator over the branch ``rows`` key:
    every mode takes the Gram pair, row 0 of a one-row table."""
    rows = _keyed_array(rows)
    pairs = _branch_pairs(_GRAM_BLOCKS[:, None], np.zeros((1, len(rows)), dtype=int), rows)
    pairs.flags.writeable = False
    return pairs


@lru_cache(maxsize=_ANGLE_CACHE)
def _angle_table(theta: tuple, phase: tuple, derivatives: bool) -> np.ndarray:
    """Memoized :func:`_rotation_table` of the ``theta`` and ``phase`` keys."""
    table = _rotation_table(_keyed_array(theta), _keyed_array(phase), derivatives)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=_ANGLE_CACHE)
def _angle_pairs(angles: tuple, index: tuple, rows: tuple) -> np.ndarray:
    """Memoized :func:`_branch_pairs` of the table that ``angles`` keys (as
    :func:`_angle_table` takes it) through the ``index`` and ``rows`` keys."""
    pairs = _branch_pairs(_angle_table(*angles), _keyed_array(index), _keyed_array(rows))
    pairs.flags.writeable = False
    return pairs


def _contract(weights, variables, moments, pairs) -> np.ndarray:
    """Real part of Σ_pairs weight·Π_variables (moments contracted with blocks).

    ``moments`` holds one array per variable, shaped (2,)*k + S for the
    variable's k modes, and ``pairs`` comes from :func:`_branch_pairs`, its
    T axis broadcasting against the last axis of S.  Per variable, the
    moments are contracted with the blocks one mode at a time, for every
    entry of S and branch pair at once, as a two-term multiply-and-add over
    the mode's two separable parts; the variables' results multiply, and the
    branch-pair weights sum the product into one number per entry of S.
    Only elementwise arithmetic in an order fixed by the family touches S,
    so an entry's bits do not depend on the rest of its stack.
    """
    product = 1.0
    for modes, acc in zip(variables, moments):
        acc = acc[..., None, None]
        for m in modes:
            acc = acc[0] * pairs[0, :, m] + acc[1] * pairs[1, :, m]
        product = product * acc
    # Explicit additions in row-major pair order: a reduction picks its
    # order from the memory layout.
    weighted = (product * weights).reshape(product.shape[:-2] + (-1,))
    total = weighted[..., 0]
    for k in range(1, weighted.shape[-1]):
        total = total + weighted[..., k]
    return total.real


def _terms(moments: _Moments, angles: tuple, layout):
    """Unnormalized correlation and state trace of every term of ``layout``,
    each shaped like the moments' level axes + (terms,).

    ``angles`` keys the rotation table, as :func:`_angle_table` takes it;
    the terms gather their blocks from it through ``layout.index``, and
    their moments and per-pattern denominators through
    ``layout.pattern_rows``.
    """
    pairs = _angle_pairs(angles, _array_key(layout.index), _array_key(moments.rows))
    numerators = [n[..., layout.pattern_rows] for n in moments.numerators]
    num = _contract(moments.weights, moments.variables, numerators, pairs)
    return num, moments.denominators[..., layout.pattern_rows]


def _matrices(a00, a01, a10, a11) -> np.ndarray:
    out = np.empty(np.shape(a01) + (2, 2), dtype=complex)
    out[..., 0, 0] = a00
    out[..., 0, 1] = a01
    out[..., 1, 0] = a10
    out[..., 1, 1] = a11
    return out


def _rotation_table(theta: np.ndarray, phase: np.ndarray,
                    derivatives: bool = False) -> np.ndarray:
    """Numerator block pair of every rotation, then the Gram pair.

    ``table[s, k]`` is a 2x2 block over the (+,−) branch pair: the s-th of
    (A, B) = M·_NUMERATOR_PAIR·M for the matrix M of rotation k, given by
    ``theta[k]`` and ``phase[k]``; the last row, which an unmeasured mode's
    index −1 picks, holds the Gram pair.  M is built with vectorised cos,
    sin and exp and the arithmetic of :attr:`EffectiveRotation.matrix`,
    elementwise, so its bits are the scalar path's wherever numpy's trig
    agrees with libm's (the tests check this on the host they run on).
    With ``derivatives``, the R rotations' pairs are followed by their
    derivatives by θ, then by γ, in rows R + k and 2R + k.
    """
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    ph = np.exp(1j * phase)
    a = _matrices(s, ph * c, ph.conj() * c, -s)
    count = theta.size
    table = np.empty((2, (3 if derivatives else 1) * count + 1, 2, 2), dtype=complex)
    ap = a @ _NUMERATOR_PAIR
    table[:, :count] = ap @ a
    if derivatives:
        # ∂(MPM) = M′PM + (MP)M′ for M′ by θ, then by γ, in one chain.
        d = np.concatenate((_matrices(c / 2.0, -ph * s / 2.0, -ph.conj() * s / 2.0, -c / 2.0),
                            _matrices(0.0, 1j * ph * c, -1j * ph.conj() * c, 0.0)))
        table[:, count:3 * count] = (d @ _NUMERATOR_PAIR @ np.concatenate((a, a))
                                     + np.concatenate((ap, ap), axis=1) @ d)
    table[:, -1] = _GRAM_BLOCKS
    return table


class TermLayout(NamedTuple):
    """Which rotation each row of a term stack measures each mode with.

    ``index[r, m]`` is the row of the rotation table that row r takes on
    mode m, or −1 where it leaves the mode unmeasured.  ``patterns`` lists
    the distinct unmeasured patterns (True per mode a row leaves out),
    sorted, and ``pattern_rows`` gives each row's entry in it.  One row per
    term comes first; a gradient layout appends derivative rows, the j-th
    of which differentiates term ``owners[j]`` by entry ``slots[j]`` of the
    angle vector (2k for θ and 2k + 1 for γ of rotation k).  A functional's
    layouts do not depend on its angles, so each is built once per
    functional.
    """

    index: np.ndarray
    patterns: tuple
    pattern_rows: np.ndarray
    owners: np.ndarray
    slots: np.ndarray


def rotation_angles(rotations: Sequence[EffectiveRotation]) -> tuple[np.ndarray, np.ndarray]:
    """The θ and γ arrays of ``rotations``, as :func:`estimate_terms` takes them."""
    return (np.array([r.theta for r in rotations], dtype=float),
            np.array([r.phase for r in rotations], dtype=float))


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=int)
    array.flags.writeable = False
    return array


def term_layout(index: Sequence[Sequence[int]]) -> TermLayout:
    """Layout of the (terms × modes) rotation ``index``, −1 for unmeasured."""
    index = np.array(index, dtype=int)
    if index.size == 0:
        raise ValueError("the term list is empty: a stack needs at least one term")
    term_patterns = [tuple(row) for row in (index < 0).tolist()]
    patterns = tuple(sorted(set(term_patterns)))
    pattern_rows = [patterns.index(p) for p in term_patterns]
    return TermLayout(_frozen(index), patterns, _frozen(pattern_rows),
                      owners=_frozen([]), slots=_frozen([]))


def gradient_layout(layout: TermLayout, rotations: int) -> TermLayout:
    """``layout``'s terms, then one derivative row per (term, measured mode, angle).

    A derivative row is its term's index row with the measured mode pointing
    at the derivative of its rotation, by θ or by γ, in a table of
    ``rotations`` rotations built with derivatives.
    """
    index = [layout.index]
    pattern_rows = [layout.pattern_rows]
    owners = []
    slots = []
    for t, m in zip(*np.nonzero(layout.index >= 0)):
        k = layout.index[t, m]
        for angle in (0, 1):
            row = layout.index[t].copy()
            row[m] = (1 + angle) * rotations + k
            index.append(row[None])
            pattern_rows.append(layout.pattern_rows[t:t + 1])
            owners.append(t)
            slots.append(2 * k + angle)
    return TermLayout(_frozen(np.concatenate(index)), layout.patterns,
                      _frozen(np.concatenate(pattern_rows)), _frozen(owners), _frozen(slots))


def _curve_structure(curve):
    """:func:`family_structure` of a curve: its first point's, with each
    variable's centre replaced by the tuple of every point's centre."""
    structures = [family_structure(family) for family in curve]
    coeffs, signs, variables = structures[0]
    centres = zip(*([centre for _V, centre, _scales in s[2]] for s in structures))
    return coeffs, signs, tuple((V, c, scales)
                                for (V, _centre, scales), c in zip(variables, centres))


def _deterministic_grids(variables, detector: DetectorModel, levels: tuple,
                         nodes_per_axis: int):
    """(x, y, w) per variable of a curve at ``levels``, as :func:`_engine_pass` takes them.

    A lone point takes its memoized rule; the points of a longer curve share
    a shift rule, whose x nodes are formed for all of them at once.
    """
    grids = []
    for V, centres, scales in variables:
        sigma = _variable_sigma(V)
        smax = max(abs(s) for s in scales.values())
        eta_min = min(detector.eta_for(m) for m in scales)
        rules = []
        for level in levels:
            x, wx = (_axis_rule(centres[0], sigma, smax, eta_min, level, nodes_per_axis)
                     if len(centres) == 1 else
                     _shifted_axis(np.array(centres), sigma, level, nodes_per_axis))
            rules.append((np.atleast_2d(x), wx,
                          *_axis_rule(0.0, sigma, smax, eta_min, level, nodes_per_axis)))
        xs, wxs, ys, wys = zip(*rules)
        grids.append((xs, ys, np.concatenate(wxs + wys)))
    return grids


@lru_cache(maxsize=_MOMENT_CACHE)
def _deterministic_moments(curve: tuple, detector: DetectorModel, level: int,
                           nodes_per_axis: int, patterns: tuple) -> _Moments:
    """Memoized moments of a curve's points at one refinement level, from
    one engine pass; level 1's entry carries level 0's too (see the module
    docstring).  An optimizer's evaluations of one state share them.
    """
    coeffs, signs, variables = _curve_structure(curve)
    grids = _deterministic_grids(variables, detector, (0, 1) if level == 1 else (level,),
                                 nodes_per_axis)
    return _engine_pass(coeffs, signs, variables, patterns, detector, grids)


def _refinement_steps(curve, detector, nodes_per_axis, angles, layout, pending):
    """Values of every row of the pending points per refinement level, with
    the level-to-level change, each shaped (pending points, rows).

    ``pending`` lists the points of ``curve`` still climbing, in order; the
    caller drops the points that converge, and each level is formed for the
    rest only.  A shift rule serves them all in each pass; the composite
    rule's panels move with the centre, so there each point is alone.
    """
    # Every variable of a family carries its V.  Wide weights are on the
    # composite rule from level 0 and have no levels past 2; narrow ones may
    # still need the composite tail.
    sigma = _variable_sigma(curve[0].V)
    top_level = 4 if 0.0 < sigma <= _GH_SIGMA_MAX else 2
    climbed = []
    for level in range(1, top_level + 1):
        if len(pending) < len(climbed):
            previous = previous[[climbed.index(p) for p in pending]]
        climbed = list(pending)
        points = tuple(curve[p] for p in climbed)
        groups = [points] if _shift_rule(sigma, level) else [(family,) for family in points]
        parts = []
        for group in groups:
            moments = _deterministic_moments(group, detector, level, nodes_per_axis,
                                             layout.patterns)
            num, den = _terms(moments, angles, layout)
            parts.append(num / den)
        values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        if level == 1:
            previous, values = values
        else:
            (values,) = values
        yield values, np.abs(values - previous)
        previous = values


def _converge(steps, pending, layout, rel_tol: float) -> list:
    """Each point's term results and derivative values, or its
    :class:`NonconvergenceError`, from the ladder ``steps``.

    ``steps`` yields the values and errors of the points in ``pending``,
    which holds every point's index at the start.  Each term stops at its
    own first step that meets ``rel_tol``, and its derivative rows are read
    at that step; a point leaves ``pending`` once all its terms have
    stopped.  A point still pending when the ladder is
    exhausted fails on its first open term, with that term's last value.
    """
    terms = len(layout.index) - len(layout.owners)
    results = [[None] * terms for _p in pending]
    term_steps = [[None] * terms for _p in pending]
    history = [[] for _p in pending]
    last = [None] * len(pending)
    for values, errs in steps:
        for p, point_values, point_errs in zip(pending, values, errs):
            found = results[p]
            for t, (value, err) in enumerate(zip(point_values[:terms].tolist(),
                                                 point_errs[:terms].tolist())):
                if found[t] is None and err <= rel_tol * max(abs(value), 1.0):
                    found[t] = (value, err)
                    term_steps[p][t] = len(history[p])
            history[p].append(point_values[terms:])
            last[p] = (point_values, point_errs)
        pending[:] = [p for p in pending if None in results[p]]
        if not pending:
            break
    outcomes = []
    for p, found in enumerate(results):
        if None in found:
            t = found.index(None)
            value, err = float(last[p][0][t]), float(last[p][1][t])
            outcomes.append(NonconvergenceError(
                f"correlation refinement stalled at {value!r} with error {err:.3g}",
                value=value, err_estimate=err))
        elif not layout.owners.size:
            # Nothing to gather: skipping it keeps the value path's cost.
            outcomes.append((found, history[p][-1]))
        else:
            derivatives = np.array(history[p])[np.array(term_steps[p])[layout.owners],
                                               np.arange(len(layout.owners))]
            outcomes.append((found, derivatives))
    return outcomes


def estimate_curve(
    curve: Sequence[StateFamily],
    theta: np.ndarray,
    phase: np.ndarray,
    layout: TermLayout,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> list:
    """:func:`estimate_terms` at every point of a curve (see the module
    docstring): per point in order, the pair it returns, or the
    :class:`NonconvergenceError` it raises."""
    curve = tuple(curve)
    if not curve:
        raise ValueError("a curve needs at least one point")
    first = curve[0]
    if any(family.kind is not first.kind or family.V != first.V for family in curve):
        raise ValueError("the points of a curve must share a family kind and V")
    detector = detector or DetectorModel()
    config = config or QuadratureConfig()
    modes = first.num_modes
    if layout.index.shape[1] != modes:
        raise ValueError(f"family has {modes} modes but got {layout.index.shape[1]} settings")
    if isinstance(detector.eta, tuple) and len(detector.eta) != modes:
        raise ValueError(
            f"family has {modes} modes but the detector gives "
            f"{len(detector.eta)} per-mode efficiencies")
    angles = (_array_key(theta), _array_key(phase), layout.owners.size > 0)
    pending = list(range(len(curve)))
    steps = _refinement_steps(curve, detector, config.nodes_per_axis, angles, layout, pending)
    return _converge(steps, pending, layout, config.rel_tol)


def point_result(outcome):
    """One point's outcome of :func:`estimate_curve` or a function built on
    it: the point's result, or its :class:`NonconvergenceError` raised."""
    if isinstance(outcome, NonconvergenceError):
        raise outcome
    return outcome


def estimate_terms(
    family: StateFamily,
    theta: np.ndarray,
    phase: np.ndarray,
    layout: TermLayout,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> tuple[list[tuple[float, float]], np.ndarray]:
    """Correlation of outcome signs for each term of ``layout``, with an error
    estimate, and the values of the layout's derivative rows.

    Row r measures mode m with rotation ``layout.index[r, m]`` of the
    ``theta`` and ``phase`` arrays (phases already reduced to [0, 2π));
    all rows share one pass per refinement step.  Each term stops at its
    own first step that meets ``rel_tol`` (relative, floored at one, since
    correlations are order one), and its derivative rows are read at that
    step.  Each step refines the per-axis resolution and reports the change
    from the previous level.  Raises :class:`NonconvergenceError` for the
    first term whose ladder is exhausted.  This is the curve of one point of
    :func:`estimate_curve`.
    """
    return point_result(*estimate_curve((family,), theta, phase, layout, detector, config))


def estimate_correlation(
    family: StateFamily,
    rotations: Sequence[EffectiveRotation | None],
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Correlation of outcome signs with an error estimate.

    ``rotations`` holds one entry per mode: its rotation, or None for a mode
    the correlation leaves unmeasured.  This is the one-term case of
    :func:`estimate_terms`.
    """
    modes = family.num_modes
    if len(rotations) != modes:
        raise ValueError(f"family has {modes} modes but got {len(rotations)} settings")
    position = itertools.count()
    index = [-1 if rotation is None else next(position) for rotation in rotations]
    measured = [rotation for rotation in rotations if rotation is not None]
    (result,), _derivatives = estimate_terms(family, *rotation_angles(measured),
                                             term_layout([index]), detector, config)
    return result


def converged_correlation(
    family: StateFamily,
    rotations: Sequence[EffectiveRotation | None],
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> float:
    """Correlation of outcome signs, converged to the configured tolerance."""
    value, _err = estimate_correlation(family, rotations, detector, config)
    return value
