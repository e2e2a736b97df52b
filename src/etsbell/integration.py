"""Quadrature engine for thermal correlation estimates.

The estimators exploit the structure of sign-of-x statistics on ± amplitude
lattices: the integrand factorizes over mixture variables, each contributing a
two-axis integral of per-mode 2x2 node matrices.  Every such block is a sum of
two products of an x factor and a y factor, so the planar integral of a
variable feeding k modes is a sum of 2^k products of 1-D moments, one summed
over each axis.  No 2-D grid is ever formed; a pass costs O(2^k·n) for n
nodes per axis.

The measurement model: each mode's ± pair of a mixture element is rotated
as the family table labels it ("+" is s·α for the sign s = +1, whatever
the sign of Re α; see :mod:`.states`), and the rotated sign numerator is
divided by the Gram norm of the unrotated state.  A rotation is unitary on
the pair only when ⟨α|−α⟩ is negligible, so where it is not, the
sign-pattern probabilities need not sum to 1.

An estimate runs in two steps.  The moments depend on the state, the
detector, the axis rules and which modes a term leaves unmeasured, but not
on the measurement angles; one pass forms them, kernels included, for every
term of a functional: per unmeasured pattern the numerator moments and the
Gram moments its denominator takes.  A small memo keeps the last few moment
sets so that an optimizer's evaluations of one state share them.

The refinement ladder is one fixed table, :func:`_ladder`, that lists an
estimate's passes in order, each as (shift, sizes): whether its rules are
shift rules, and the Gauss-Hermite node counts or composite panel orders
of its rules.  It reads

- σ = 0 (V = 1): the delta rule, which is the one-node Hermite rule;
- 0 < σ ≤ 1.55: Hermite rules of 40 and 80 nodes, then 160, then the
  composite rule of order 12, then 24;
- σ > 1.55: the composite rule of orders 12 and 24, then 48.

A pass forms each axis factor once on all its rules' nodes joined and each
rule's moments by a sum over its own slice.  The first pass checks its last
rule against its first (a one-rule pass checks nothing and reports 0);
each later pass is checked against the pass before.  The angle blocks come
from (θ, γ) arrays in one vectorised table, which the terms gather through
a static (terms × modes) index.  All terms are then contracted with the
shared moments over a stacked term axis and the rule axis, in one
contraction whose leading rows, one per pattern, leave every mode
unmeasured: they read the table's Gram row and the pattern's Gram moments,
and give that pattern's denominator.  The arithmetic is elementwise, in an
order fixed by the family, so a term's value is bit-identical whichever
terms share its call, wherever it sits and whichever rule shares its pass.
The angle side has one memo, as the state side has: each gather over a
state's branch pairs, with the table it reads, is built once per distinct
(θ, γ, layout, branch rows) by value, so a crossing search's rounds and a
figure's cells, which share their angles, share it too.

A term's numerator is linear in each mode's block pair, and the Gram
denominator does not depend on the angles, so the exact derivative of a
correlation by one angle is the same contraction with that mode's pair
replaced by its derivative, divided by the same denominator.  A gradient
layout appends one such row per (term, measured mode, angle) to the term
axis, and the table appends the derivative pairs it gathers; every row is
read at the rule its term converges on.

A curve is a set of points of one family kind and one V that differ only in
d and share the detector, the angles and the config: the d axis of a figure,
or a crossing search's probe profile and each round of its search.  Along it
only the centre c·d of each mixture variable moves; the branch structure,
the y rule, the y moments and the x weights do not.  The rest of a pass is
its plan (:func:`_pass_plan`), built once per (family kind, V, detector,
ladder pass, layout) and memoized by value, the one code that walks a
family's variables: branch weights and rows, which variables share moments,
the distinct x node sources and x factors, the y moments, the einsum
subscripts and an index that puts each rule's moments straight into the
contraction's stack rows; on shift rules also the frame, every rule's
Gauss-Hermite offsets and weights joined, which are the y nodes too.  A pass
is then straight-line array work: each node source's x nodes (on shift
rules, which follow the centre by a shift alone, the centre plus the frame's
offsets), each distinct x factor once, one einsum per rule and local
pattern, one multiply by the y moments, one gather and one contraction over
a stacked (points × stack rows) axis.  Each point stops at its own first
converged pass and only the rest climb.  The composite rule's panels move
with the centre, so there each point is a curve of its own on the same plan;
a single estimate is a curve of one point.  A composite rule is built, in
one vectorised step, when a pass needs it: each pass builds its x rules,
and the plan forms each node source's y rules once.  The points axis meets
only elementwise arithmetic and einsum sums over each point's own nodes, so
a point carries the bits it has alone (the tests check this).

The node functions need only real erf and Dawson's integral, which come from
the numpy kernels of :mod:`._special` (within 2 ulp of the exact values), so
no estimate imports scipy.  Those kernels cost a fixed number of array
operations per call, so a pass calls them as rarely as it can.  x factors are
formed once per distinct (node source, scale, η) in a pass, on every rule's
nodes joined, y factors once per plan, and moments once per distinct
variable: the modes of a splitter or Kerr state share one scale, the
variables of a conditional state are equal, and a per-mode η that differs
splits them.  Sharing is decided by values, so it moves no bit.  Dawson's
integral enters a y moment once per measured mode whose second part the
moment takes.  It is odd and the y weight is symmetric about 0, so a moment
with an odd number of such factors integrates to zero: a plan forms every
measured mode's Dawson values and then sets each such moment to zero,
instead of keeping the roundoff of its sum.
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
from .errors import NonconvergenceError, require_number
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
# Moment sets kept in memory: one state's refinement passes, which an
# optimizer revisits at every evaluation.  A sweep or a crossing search moves
# to new points at every curve, so it finds nothing here; what its passes
# share, it finds in the plan memo below.
_MOMENT_CACHE = 4
# Pass plans kept in memory (see _pass_plan).  A crossing search makes one
# or two, `figure fig4` 4 (one per pass) and `validate`, the widest user,
# 25, so this keeps every plan of one command.
_PLAN_CACHE = 32
# Branch-pair gathers kept in memory, each with its rotation table built in
# (nothing else reads a table): a crossing search or a figure cell asks for
# a few angle sets many times; an optimizer moves to new angles at every
# evaluation, so it finds nothing here.
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
    """The tolerance shared by all integration routines: an estimate counts
    as converged once a pass of :func:`_ladder` changes it by less than
    ``rel_tol`` relative to max(|value|, 1)."""

    rel_tol: float = 1e-7

    def __post_init__(self):
        require_number("rel_tol", self.rel_tol)
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")


@lru_cache(maxsize=None)
def _gh_rule(n: int):
    return hermgauss(n)


@lru_cache(maxsize=None)
def _gl_rule(n: int):
    return leggauss(n)


def _axis_rule(mu: float, sigma: float, smax: float, eta_min: float, order: int):
    """Windowed composite rule of an axis, panelled Gauss-Legendre of
    ``order`` with the Gaussian weight folded in, as (nodes, weights).

    Fine panels cover the window around the origin where the erf and Dawson
    node functions vary on the 1/smax scale; panels of width sigma cover the
    rest of the weight's support.  The rule is built in one vectorised step,
    each segment's panel edges at once, then every panel's nodes and weights.
    """
    lo = mu - _RANGE_SIGMAS * sigma
    hi = mu + _RANGE_SIGMAS * sigma
    zf = max(_FINE_ERF_HALFWIDTH / smax,
             _FINE_DAWSON_HALFWIDTH / (_SQRT2 * max(eta_min, 1e-3) * smax))
    fine_lo = max(lo, -zf)
    fine_hi = min(hi, zf)
    # (stop, panel width) per segment, each starting where the last one ended
    fine = ((fine_lo, sigma), (fine_hi, _FINE_PANEL_FRACTION / smax)) if fine_hi > fine_lo else ()
    edges = [np.array([lo])]
    for stop, width in (*fine, (hi, sigma)):
        start = float(edges[-1][-1])
        if stop > start:
            count = max(1, math.ceil((stop - start) / width))
            edges.append(start + np.arange(1, count + 1) * ((stop - start) / count))
    edges = np.concatenate(edges)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[:-1] + edges[1:])
    t, w = _gl_rule(order)
    nodes = (mid[:, None] + half[:, None] * t).ravel()
    density = np.exp(-0.5 * ((nodes - mu) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
    return nodes, (half[:, None] * w).ravel() * density


def _ladder(sigma: float) -> tuple:
    """The refinement passes of an axis of spread ``sigma``, in order, each
    as (shift, sizes): with ``shift``, ``sizes`` holds the node counts of
    Gauss-Hermite rules, whose nodes follow the centre by a shift alone and
    are shared along a curve; otherwise the Gauss-Legendre orders of
    windowed composite rules, which handle integrands the Hermite
    polynomials resolve slowly.  The delta rule at σ = 0 is the one-node
    Hermite rule.  No rule appears twice."""
    if sigma == 0.0:
        return ((True, (1,)),)
    if sigma <= _GH_SIGMA_MAX:
        # hermgauss loses its weights past about 360 nodes (at 400 they are
        # NaN), and smaller first rules can agree by chance far from the
        # integral, which leaves err far below the true error.
        return ((True, (40, 80)), (True, (160,)), (False, (12,)), (False, (24,)))
    return ((False, (12, 24)), (False, (48,)))


def _join(rules) -> tuple:
    """Axis rules given as (nodes, weights), joined: the read-only nodes,
    each rule's end in them after a leading 0, and the read-only weights."""
    nodes, weights = zip(*rules)
    ends = tuple(itertools.accumulate(map(len, nodes), initial=0))
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, ends, weights


def _variable_sigma(V: float) -> float:
    return math.sqrt(max(V - 1.0, 0.0) / 4.0)


def curve_shares_pass(V: float) -> bool:
    """Whether the points of a curve at ``V`` share an estimate's first
    engine pass, which is on shift rules up to σ = 1.55 (see :func:`_ladder`),
    or each takes its own on the composite rule."""
    return _variable_sigma(V) <= _GH_SIGMA_MAX


def _moment_subscripts(k: int, points: bool) -> str:
    """einsum spec for a variable feeding k modes: it sums per-mode axis
    factors (u: numerator or Gram, one term letter per mode, p: point of a
    curve where ``points``, x: node) against the axis weights into 2^k
    moments per u and point."""
    terms = "abcdefgh"[:k]
    p = "p" if points else ""
    return ",".join(f"u{t}{p}x" for t in terms) + f",x->u{terms}{p}"


def _x_factors(x, scale: float, eta):
    """A mode's x factors, numerator then Gram, each (part 0, part 1) per
    point and node; ``eta`` is None for an unmeasured mode, which takes the
    Gram pair."""
    sx = scale * x
    gauss = np.exp(-2.0 * sx * sx)
    gram = (np.ones_like(sx), gauss)
    return np.array((gram if eta is None else (erf(_SQRT2 * eta * sx), gauss), gram))


def _y_factors(y, scale: float, eta):
    """A mode's y factors, as :func:`_x_factors`; a measured mode's second
    numerator part carries Dawson's integral (see the module docstring for
    the y moments it makes zero)."""
    sy = scale * y
    ones = np.ones_like(sy)
    gram = (ones, np.exp(-2.0 * sy * sy))
    if eta is None:
        return np.array((gram, gram))
    part = ((2j / _SQRT_PI) * np.exp(-2.0 * (1.0 - eta * eta) * sy * sy)
            * dawsn(_SQRT2 * eta * sy))
    return np.array(((ones, part), gram))


class _Plan(NamedTuple):
    """What a pass takes from the family kind, V, the detector, the ladder
    pass and the layout; nothing in it depends on d.

    ``weights`` holds the branch-pair coefficients conj(c_j)·c_i, and
    ``rows`` the :func:`_array_key` of the branch rows, whose row m holds
    mode m's row of each branch (0 where the branch has +α, 1 where it has
    −α); ``variables`` holds each mixture variable's modes.  ``nodes``
    lists each distinct x node source as (centre per unit d, largest scale,
    smallest η), the last two None on shift rules; there ``frame`` holds
    every rule's offsets and weights as :func:`_join` gives them (None on
    the composite rule).  ``factors`` lists each distinct x factor as
    (source, scale, η or None where unmeasured), a source indexing
    ``nodes``.  ``groups`` holds per distinct variable (source, per local
    pattern each mode's index in ``factors``, the read-only y moments shaped
    (rules, local patterns, 2 parts, (2,)*k, 1), each stack row's entry
    2·pattern + part), and ``members`` each variable's group.  ``axes``
    takes the gathered (rules, stack rows, (2,)*k, points) to (2,)*k +
    (rules, points, stack rows).
    """

    weights: np.ndarray
    rows: tuple
    variables: tuple
    nodes: tuple
    frame: tuple | None
    factors: tuple
    groups: tuple
    members: tuple
    subscripts: str
    axes: tuple


@lru_cache(maxsize=_PLAN_CACHE)
def _pass_plan(kind, V: float, detector: DetectorModel, rules: tuple, patterns: tuple,
               stack_rows: tuple) -> _Plan:
    """The memoized :class:`_Plan` of a pass on ``rules`` over points of
    ``kind`` at ``V``, for a layout's ``patterns`` and ``stack_rows``.

    A variable's x nodes follow from its centre per unit d, and on the
    composite rule, whose panels depend on them, from its largest scale and
    smallest η too; variables equal in these share a node source, and
    those equal in scales, η and local patterns as well share a group.  The
    y nodes are the frame's offsets, or per node source the composite rule at 0.
    """
    # A variable's centre at d = 1 is its centre per unit d.
    coeffs, signs, variables = family_structure(StateFamily(kind, V, 1.0))
    weights = np.multiply.outer(np.conj(coeffs), coeffs)
    weights.flags.writeable = False
    shift, sizes = rules
    sigma = _variable_sigma(V)
    frame = (_join((_SQRT2 * sigma * t, w / _SQRT_PI) for t, w in map(_gh_rule, sizes))
             if shift else None)
    measured = {m for p in patterns for m, off in enumerate(p) if not off}
    # each stack row's (pattern, part): the leading rows' Gram (1), then numerators (0)
    row_parts = [(e % len(patterns), int(e < len(patterns))) for e in stack_rows]
    sources, factors, y_factors, groups, members = {}, {}, {}, {}, []
    for _V, unit, scales in variables:
        modes = tuple(sorted(scales))
        per_mode = tuple((scales[m], detector.eta_for(m) if m in measured else None)
                         for m in modes)
        local = tuple(tuple(p[m] for m in modes) for p in patterns)
        nodes = (unit, None, None) if shift else (
            unit, max(map(abs, scales.values())), min(map(detector.eta_for, scales)))
        if nodes not in sources:
            sources[nodes] = len(sources), frame if shift else _join(
                _axis_rule(0.0, sigma, *nodes[1:], order) for order in sizes)
        source, ys = sources[nodes]
        key = (source, per_mode, local)
        if key not in groups:
            groups[key] = _plan_group(source, per_mode, local, ys, row_parts, factors,
                                      y_factors)
        members.append(list(groups).index(key))
    k = len(per_mode)
    return _Plan(weights, _array_key((1 - np.array(signs).T) // 2),
                 tuple(tuple(sorted(scales)) for _V, _centre, scales in variables),
                 tuple(sources), frame, tuple(factors), tuple(groups.values()),
                 tuple(members), _moment_subscripts(k, True), (*range(2, 2 + k), 0, 2 + k, 1))


def _plan_group(source: int, per_mode: tuple, local: tuple, ys: tuple, row_parts,
                factors: dict, y_factors: dict) -> tuple:
    """One group of :func:`_pass_plan` on the y rules ``ys``, joined by
    :func:`_join`.  ``factors`` numbers the plan's x factors and
    ``y_factors`` keeps its y factors, formed once on every rule's y nodes
    joined; each rule's moments are a sum over its slice."""
    y, ends, wy = ys
    y_sum = _moment_subscripts(len(per_mode), False)
    # Patterns that agree on the variable's own modes share one sum.  Each
    # pattern's Gram moments come from the sum that carries its numerator,
    # and may differ from another pattern's in the last bit, so each
    # pattern keeps its own denominator.
    distinct = tuple(dict.fromkeys(local))
    x_factors, y_moments = [], []
    for offs in distinct:
        # Dawson's integral is odd and the y weight symmetric, so a y moment
        # with an odd number of Dawson factors (the second part of an odd
        # number of measured modes) is zero.
        measured = [m for m, off in enumerate(offs) if not off]
        odd = np.indices((2,) * len(offs))[measured].sum(axis=0) % 2 == 1
        y_parts, x_parts = [], []
        for (scale, eta), off in zip(per_mode, offs):
            eta = None if off else eta
            if (source, scale, eta) not in y_factors:
                y_factors[source, scale, eta] = _y_factors(y, scale, eta)
            y_parts.append(y_factors[source, scale, eta])
            x_parts.append(factors.setdefault((source, scale, eta), len(factors)))
        x_factors.append(tuple(x_parts))
        per_rule = [np.einsum(y_sum, *(f[..., a:b] for f in y_parts), wy[a:b])
                    for a, b in zip(ends, ends[1:])]
        for moments in per_rule:
            moments[0][odd] = 0.0
        y_moments.append(per_rule)
    y_moments = np.array([list(rule) for rule in zip(*y_moments)])[..., None]
    gather = np.array([2 * distinct.index(local[p]) + part for p, part in row_parts])
    y_moments.flags.writeable = gather.flags.writeable = False
    return source, tuple(x_factors), y_moments, gather


def _engine_pass(curve, detector: DetectorModel, rules: tuple, patterns: tuple,
                 stack_rows: tuple, grids) -> tuple:
    """The angle-independent half of a pass of :func:`_ladder` over a
    curve's points: its :func:`_pass_plan` and one array of moments per
    variable, shaped (2,)*k + (rules, points, stack rows), which holds the
    2^k moments each row of a layout's stack takes (see :class:`TermLayout`)
    at each rule and point.  A pattern's leading row takes its Gram moments,
    whose contraction with the Gram blocks is its state trace; every other
    row its pattern's numerator moments.  ``grids`` supplies (x, ends, w)
    per node source of the plan, as :func:`_deterministic_grids` forms them.
    """
    plan = _pass_plan(curve[0].kind, curve[0].V, detector, rules, patterns, stack_rows)
    factors = [_x_factors(grids[source][0], scale, eta) for source, scale, eta in plan.factors]
    moments = []
    for source, pattern_factors, y_moments, gather in plan.groups:
        _x, ends, wx = grids[source]
        stacked = np.array([[np.einsum(plan.subscripts, *(factors[f][..., a:b] for f in local),
                                       wx[a:b])
                             for local in pattern_factors]
                            for a, b in zip(ends, ends[1:])]) * y_moments
        gathered = stacked.reshape(stacked.shape[:1] + (-1,) + stacked.shape[3:])
        moment = gathered[:, gather].transpose(plan.axes)
        moment.flags.writeable = False
        moments.append(moment)
    return plan, tuple(moments[g] for g in plan.members)


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
def _angle_pairs(angles: tuple, index: tuple, rows: tuple) -> np.ndarray:
    """Memoized :func:`_branch_pairs`, through the ``index`` and ``rows``
    keys, of the :func:`_rotation_table` that ``angles`` keys: the keys of
    θ and γ and the derivatives flag."""
    theta, phase, derivatives = angles
    table = _rotation_table(_keyed_array(theta), _keyed_array(phase), derivatives)
    pairs = _branch_pairs(table, _keyed_array(index), _keyed_array(rows))
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


def _terms(moments: tuple, angles: tuple, layout):
    """Unnormalized correlation and state trace of every term of ``layout``
    from the (plan, moments) of :func:`_engine_pass`, each shaped like the
    moments' (rules, points) axes + (terms,).

    ``angles`` keys the rotation table, as :func:`_angle_pairs` takes it.
    One contraction serves the whole of ``layout.stack``: its leading
    all-unmeasured rows read the table's Gram row and give each pattern's
    denominator, which the terms then gather through ``layout.pattern_rows``.
    """
    plan, moments = moments
    pairs = _angle_pairs(angles, layout.stack, plan.rows)
    values = _contract(plan.weights, plan.variables, moments, pairs)
    return values[..., len(layout.patterns):], values[..., layout.pattern_rows]


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
    angle vector (2k for θ and 2k + 1 for γ of rotation k).  ``stack`` is
    the :func:`_array_key` of the index as one contraction takes it: first
    one all-unmeasured row per pattern, whose value is that pattern's Gram
    denominator, then ``index``; ``stack_rows`` gives each stack row's
    entry among every pattern's Gram moments and then every pattern's
    numerator moments, as a tuple, which with ``patterns`` keys the pass
    plan (see :func:`_pass_plan`).  A functional's layouts do not depend on
    its angles, so each is built once per functional.
    """

    index: np.ndarray
    patterns: tuple
    pattern_rows: np.ndarray
    owners: np.ndarray
    slots: np.ndarray
    stack: tuple
    stack_rows: tuple


def rotation_angles(rotations: Sequence[EffectiveRotation]) -> tuple[np.ndarray, np.ndarray]:
    """The θ and γ arrays of ``rotations``, as :func:`estimate_curve` takes them."""
    return (np.array([r.theta for r in rotations], dtype=float),
            np.array([r.phase for r in rotations], dtype=float))


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=int)
    array.flags.writeable = False
    return array


def _stacked_layout(index, patterns, pattern_rows, owners, slots) -> TermLayout:
    """A :class:`TermLayout`, with its stack built once (see the class)."""
    count = len(patterns)
    stack = np.concatenate((np.full((count, index.shape[1]), -1), index))
    stack_rows = tuple(range(count)) + tuple(count + int(r) for r in pattern_rows)
    return TermLayout(_frozen(index), patterns, _frozen(pattern_rows), _frozen(owners),
                      _frozen(slots), _array_key(stack), stack_rows)


def term_layout(index: Sequence[Sequence[int]]) -> TermLayout:
    """Layout of the (terms × modes) rotation ``index``, −1 for unmeasured."""
    index = np.array(index, dtype=int)
    if index.size == 0:
        raise ValueError("the term list is empty: a stack needs at least one term")
    term_patterns = [tuple(row) for row in (index < 0).tolist()]
    patterns = tuple(sorted(set(term_patterns)))
    pattern_rows = [patterns.index(p) for p in term_patterns]
    return _stacked_layout(index, patterns, pattern_rows, owners=[], slots=[])


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
    return _stacked_layout(np.concatenate(index), layout.patterns,
                           np.concatenate(pattern_rows), owners, slots)


def _deterministic_grids(curve, plan: _Plan, rules: tuple) -> list:
    """(x, ends, w) per node source of ``plan``, a curve's :func:`_pass_plan`
    on ``rules``: every rule's x nodes joined, shaped (points, n), each
    rule's end in them after a leading 0, and the x weights.  Shift rules
    serve every point, each point's x nodes its centre plus the frame's
    offsets; the composite rule serves one point."""
    shift, sizes = rules
    if shift:
        offsets, ends, w = plan.frame
        d = np.array([family.d for family in curve])[:, None]
        return [(unit * d + offsets, ends, w) for unit, _smax, _eta_min in plan.nodes]
    (family,) = curve
    sigma = _variable_sigma(family.V)
    joined = [_join(_axis_rule(unit * family.d, sigma, smax, eta_min, order) for order in sizes)
              for unit, smax, eta_min in plan.nodes]
    return [(x[None], ends, w) for x, ends, w in joined]


@lru_cache(maxsize=_MOMENT_CACHE)
def _deterministic_moments(curve: tuple, detector: DetectorModel, rules: tuple,
                           patterns: tuple, stack_rows: tuple) -> tuple:
    """Memoized moments of a curve's points on one pass of :func:`_ladder`,
    in the stack order of a layout with ``patterns`` and ``stack_rows``.
    An optimizer's evaluations of one state share them.
    """
    plan = _pass_plan(curve[0].kind, curve[0].V, detector, rules, patterns, stack_rows)
    return _engine_pass(curve, detector, rules, patterns, stack_rows,
                        _deterministic_grids(curve, plan, rules))


def estimate_curve(
    curve: Sequence[StateFamily],
    theta: np.ndarray,
    phase: np.ndarray,
    layout: TermLayout,
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> list:
    """Correlation of outcome signs for each term of ``layout``, with an error
    estimate, at every point of a curve (see the module docstring): per
    point in order, the pair (each term's (value, err), the values of the
    layout's derivative rows), or the :class:`NonconvergenceError` of its
    first term whose ladder runs out.

    Row r measures mode m with rotation ``layout.index[r, m]`` of the
    ``theta`` and ``phase`` arrays (phases already reduced to [0, 2π)).
    Each term stops at its own first pass of :func:`_ladder` whose change
    from the previous rule meets ``rel_tol`` (relative, floored at one,
    since correlations are order one), and its derivative rows are read at
    that pass.  A single estimate is a curve of one point, which
    :func:`point_result` reads.
    """
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
    terms = len(layout.index) - len(layout.owners)
    # per point: None while every term is open, then each term's pair or None
    found = [None] * len(curve)
    derivatives = [None] * len(curve)
    pending = list(range(len(curve)))
    previous = None
    # Every variable of a family carries its V, and so its σ.
    for rules in _ladder(_variable_sigma(first.V)):
        # Shift rules serve every climbing point in one pass; the composite
        # rule's panels move with the centre, so there each point is alone.
        points = tuple(curve[p] for p in pending)
        shift, _sizes = rules
        groups = [points] if shift else [(family,) for family in points]
        parts = []
        for group in groups:
            moments = _deterministic_moments(group, detector, rules, layout.patterns,
                                             layout.stack_rows)
            num, den = _terms(moments, angles, layout)
            parts.append(num / den)
        values = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        # The first pass's last rule is checked against its first (a lone
        # rule against itself), a later pass's against the previous pass.
        if previous is None:
            previous = values[0]
        values = values[-1]
        errs = np.abs(values - previous)
        head_values, head_errs = values[:, :terms], errs[:, :terms]
        # One comparison tests every term against rel_tol: a point whose every
        # term meets it stops; the others read each term's verdict, as a term
        # that stopped stays put.
        ok = head_errs <= config.rel_tol * np.maximum(np.abs(head_values), 1.0)
        met = ok.all(axis=1)
        climbing = []
        for i, (p, point_values, point_errs, point_ok, all_met) in enumerate(zip(
                pending, head_values.tolist(), head_errs.tolist(), ok.tolist(), met.tolist())):
            point = found[p]
            # A derivative row takes each pass's value while its term is
            # open, so it keeps the one of the pass where the term stops.
            if point is None:
                derivatives[p] = values[i, terms:]
                if all_met:
                    found[p] = list(zip(point_values, point_errs))
                    continue
                point = found[p] = [None] * terms
            elif layout.owners.size:
                still = np.array([result is None for result in point])[layout.owners]
                derivatives[p] = np.where(still, values[i, terms:], derivatives[p])
            for t, (value, err, term_ok) in enumerate(zip(point_values, point_errs, point_ok)):
                if point[t] is None and term_ok:
                    point[t] = (value, err)
            if None in point:
                climbing.append(i)
        pending = [pending[i] for i in climbing]
        if not pending:
            break
        previous, errs = values[climbing], errs[climbing]
    for i, p in enumerate(pending):
        t = found[p].index(None)
        value, err = float(previous[i, t]), float(errs[i, t])
        found[p] = NonconvergenceError(
            f"correlation refinement stalled at {value!r} with error {err:.3g}",
            value=value, err_estimate=err)
    return [point if isinstance(point, NonconvergenceError) else (point, rows)
            for point, rows in zip(found, derivatives)]


def point_result(outcome):
    """One point's outcome of :func:`estimate_curve` or a function built on
    it: the point's result, or its :class:`NonconvergenceError` raised."""
    if isinstance(outcome, NonconvergenceError):
        raise outcome
    return outcome


def estimate_correlation(
    family: StateFamily,
    rotations: Sequence[EffectiveRotation | None],
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Correlation of outcome signs with an error estimate.

    ``rotations`` holds one entry per mode: its rotation, or None for a mode
    the correlation leaves unmeasured.  This is the one-term, one-point
    case of :func:`estimate_curve`.
    """
    modes = family.num_modes
    if len(rotations) != modes:
        raise ValueError(f"family has {modes} modes but got {len(rotations)} settings")
    position = itertools.count()
    index = [-1 if rotation is None else next(position) for rotation in rotations]
    measured = [rotation for rotation in rotations if rotation is not None]
    (result,), _derivatives = point_result(*estimate_curve(
        (family,), *rotation_angles(measured), term_layout([index]), detector, config))
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
