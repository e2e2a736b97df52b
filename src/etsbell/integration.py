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
for every term of a functional, and a small memo keeps the last few so that
an optimizer's evaluations of one state share them.  All terms' angle blocks
are then contracted with the shared moments in one pass over a stacked term
axis, by elementwise arithmetic in an order fixed by the family, so a term's
value is bit-identical whichever terms share its call and wherever it sits.

The moments come from deterministic per-axis rules (Gauss-Hermite, or a
windowed composite Gauss-Legendre rule for wide weights) refined level by
level, or, on request, from seeded Monte Carlo samples of the same weights.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import dawsn, erf

from .errors import NonconvergenceError
from .measurement import DetectorModel, PartySetting
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
_MC_BATCHES = 8
# Axis rules kept in memory: a few per state, so this spans many states.
_AXIS_RULE_CACHE = 256
# Moment sets kept in memory: one state's refinement levels, which an
# optimizer revisits at every evaluation.  A sweep moves to a new state at
# every point, so it finds nothing here and computes its own.
_MOMENT_CACHE = 4

# Per-mode 2x2 blocks over the (+,−) branch pair.  A rotated block is
# erf·A + e^{−2s²x²}·h(y)·B with A = M·_REFLECT·M and B = M·_TURN·M; a Gram
# block (also an unmeasured mode's) is δ + (1−δ)·e^{−2s²x²}·e^{−2s²y²}, the
# pair below.
_REFLECT = np.diag([1.0, -1.0])
_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
_GRAM_BLOCKS = np.array((np.eye(2), 1.0 - np.eye(2)))


class Method(enum.Enum):
    """Integration backend: deterministic rules (AUTO) or sampling."""

    MONTE_CARLO = "monte-carlo"
    AUTO = "auto"


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and tolerance knobs shared by all integration routines.

    ``nodes_per_axis`` seeds the deterministic ladders (refinement may double
    it up to 200 nodes per axis), ``mc_samples`` is the starting Monte Carlo
    budget, and estimates count as converged once the refinement difference
    drops below ``rel_tol`` relative to max(|value|, 1).
    """

    nodes_per_axis: int = 40
    mc_samples: int = 200_000
    mc_seed: int = 20260815
    method: Method = Method.AUTO
    rel_tol: float = 1e-7

    def __post_init__(self):
        if not (1 <= self.nodes_per_axis <= _MAX_AXIS_NODES):
            raise ValueError(
                f"nodes_per_axis must lie in [1, {_MAX_AXIS_NODES}], got {self.nodes_per_axis}")
        if self.mc_samples < _MC_BATCHES:
            raise ValueError(f"mc_samples must be at least {_MC_BATCHES}, got {self.mc_samples}")
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
    if sigma == 0.0:
        nodes, weights = np.array([mu]), np.array([1.0])
    elif sigma > _GH_SIGMA_MAX:
        order = _COMPOSITE_BASE_ORDER * (1 << min(level, 2))
        nodes, weights = _composite_axis(mu, sigma, order, smax, eta_min)
    elif level <= 2:
        n = min(nodes_per_axis * (1 << level), _MAX_AXIS_NODES)
        nodes, weights = _gauss_axis(mu, sigma, n)
    else:
        order = _COMPOSITE_BASE_ORDER * (1 << (level - 3))
        nodes, weights = _composite_axis(mu, sigma, order, smax, eta_min)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _variable_sigma(V: float) -> float:
    return math.sqrt(max(V - 1.0, 0.0) / 4.0)


@lru_cache(maxsize=None)
def _moment_subscripts(k: int) -> str:
    """einsum spec for a variable feeding k modes: it sums per-mode axis
    factors (u: numerator or Gram, one term letter per mode, x: node)
    against the axis weights into 2^k moments per u."""
    terms = "abcdefgh"[:k]
    return ",".join(f"u{t}x" for t in terms) + ",x->u" + terms


class _Moments(NamedTuple):
    """The angle-independent half of a pass over one state.

    ``weights`` holds the branch-pair coefficients conj(c_j)·c_i.
    ``variables`` holds, per mixture variable, its modes and each mode's
    branch rows (0 where the branch has +α, 1 where it has −α).
    ``numerators`` holds one array per variable, shaped (2,)*k + (patterns,
    2): for each pattern of unmeasured modes (True per mode a term leaves
    out), in the order the pass was given them, the 2^k numerator moments
    next to the Gram moments.
    """

    weights: np.ndarray
    variables: tuple
    numerators: tuple


def _engine_pass(coeffs, signs, variables, patterns, detector: DetectorModel,
                 grids) -> _Moments:
    """Per-variable moments of every pattern in ``patterns``.

    ``grids`` supplies (x, y, w) per variable: 1-D node arrays for the two
    axes and ``w``, the x weights followed by the y weights.  Deterministic
    rules and Monte Carlo samples alike enter as the product measure of the
    two axes.  Every per-mode block is a sum of two separable terms, so each
    variable needs only the 2^k products of per-mode axis factors (k modes),
    summed over x and over y separately.  A mode that a term leaves
    unmeasured takes the Gram factors in place of the detector's, so the
    numerator moments are formed once per pattern, each together with the
    Gram moments of the denominator.  Nothing here depends on the
    measurement angles.
    """
    measured = {m for p in patterns for m, off in enumerate(p) if not off}
    numerators = []
    structure = []
    for (_V, _center, scales), (x, y, w) in zip(variables, grids):
        wx = w[:x.size]
        wy = w[x.size:]
        modes = tuple(sorted(scales))
        factors = {}
        for m in modes:
            sx = scales[m] * x
            sy = scales[m] * y
            gauss_x = np.exp(-2.0 * sx * sx)
            factors[m, True] = ((np.ones_like(sx), gauss_x),
                                (np.ones_like(sy), np.exp(-2.0 * sy * sy)))
            if m in measured:
                eta = detector.eta_for(m)
                factors[m, False] = (
                    (erf(_SQRT2 * eta * sx), gauss_x),
                    (np.ones_like(sy),
                     (2j / _SQRT_PI) * np.exp(-2.0 * (1.0 - eta * eta) * sy * sy)
                     * dawsn(_SQRT2 * eta * sy)))
        axis_sum = _moment_subscripts(len(modes))
        # Only the variable's own modes matter, so patterns that agree on
        # them share one sum.
        local = [tuple(p[m] for m in modes) for p in patterns]
        by_local = dict.fromkeys(local)
        for offs in by_local:
            x_factors = [np.array((factors[m, off][0], factors[m, True][0]))
                         for m, off in zip(modes, offs)]
            y_factors = [np.array((factors[m, off][1], factors[m, True][1]))
                         for m, off in zip(modes, offs)]
            by_local[offs] = (np.einsum(axis_sum, *x_factors, wx)
                              * np.einsum(axis_sum, *y_factors, wy))
        stacked = np.ascontiguousarray(
            np.moveaxis(np.array([by_local[offs] for offs in local]), (0, 1), (-2, -1)))
        stacked.flags.writeable = False
        numerators.append(stacked)
        rows = tuple(np.array([(1 - sign[m]) // 2 for sign in signs]) for m in modes)
        structure.append((modes, rows))
    coeffs = np.array(coeffs)
    weights = np.multiply.outer(coeffs.conj(), coeffs)
    weights.flags.writeable = False
    return _Moments(weights, tuple(structure), tuple(numerators))


def _contract(moments: _Moments, blocks, pattern_rows) -> np.ndarray:
    """Unnormalized correlation and state trace of every term, shaped (terms, 2).

    ``blocks`` come from :func:`_term_blocks`, and ``pattern_rows`` picks
    each term's row of ``moments.numerators``.  Per variable, the moments
    are contracted with the blocks one mode at a time, for every term and
    branch pair at once, as a two-term multiply-and-add over the mode's two
    separable parts; the variables' results multiply, and the branch-pair
    weights sum the product into one number per term and u.  Only
    elementwise arithmetic in an order fixed by the family touches the term
    axis, so a term's bits do not depend on the rest of its stack.
    """
    product = 1.0
    for (modes, rows), numerators in zip(moments.variables, moments.numerators):
        acc = numerators[..., pattern_rows, :, None, None]
        for m, r in zip(modes, rows):
            pair = blocks[:, :, m][..., r[:, None], r]
            acc = acc[0] * pair[0] + acc[1] * pair[1]
        product = product * acc
    # Explicit additions in row-major pair order: a reduction picks its
    # order from the memory layout.
    weighted = (product * moments.weights).reshape(len(pattern_rows), 2, -1)
    total = weighted[..., 0]
    for k in range(1, weighted.shape[-1]):
        total = total + weighted[..., k]
    return total.real


def _term_blocks(family: StateFamily, term_settings, detector: DetectorModel):
    """Per-mode angle blocks of every term, and each term's unmeasured pattern.

    ``blocks[s, t, m, u]`` is a 2x2 block over the (+,−) branch pair: for
    u = 0 the s-th of the numerator pair (A, B), A = M·_REFLECT·M and
    B = M·_TURN·M, of term t's rotation M on mode m, or the s-th Gram block
    where the term leaves the mode unmeasured; for u = 1 the s-th Gram block
    of the denominator.  The pairs are computed once per distinct rotation
    into a table and gathered from it.
    """
    modes = family.num_modes
    for settings in term_settings:
        if len(settings) != modes:
            raise ValueError(f"family has {modes} modes but got {len(settings)} settings")
    if isinstance(detector.eta, tuple) and len(detector.eta) != modes:
        raise ValueError(
            f"family has {modes} modes but the detector gives "
            f"{len(detector.eta)} per-mode efficiencies")
    # Terms share each party's few settings, so each distinct rotation gets
    # one row of the table; unmeasured modes index its last row, -1.
    rows = {}
    index = np.array([[-1 if s.ignored else rows.setdefault(s.rotation, len(rows))
                       for s in settings] for settings in term_settings])
    a = np.array([rotation.matrix for rotation in rows], dtype=complex).reshape(-1, 2, 2)
    table = np.empty((2, len(rows) + 1, 2, 2, 2), dtype=complex)
    table[0, :-1, 0] = a @ _REFLECT @ a
    table[1, :-1, 0] = a @ _TURN @ a
    table[:, -1, 0] = _GRAM_BLOCKS
    table[:, :, 1] = _GRAM_BLOCKS[:, None]
    patterns = [tuple(row) for row in (index < 0).tolist()]
    return table[:, index], patterns


def _deterministic_grids(variables, detector: DetectorModel, level: int,
                         nodes_per_axis: int):
    grids = []
    for V, center, scales in variables:
        sigma = _variable_sigma(V)
        smax = max(abs(s) for s in scales.values())
        eta_min = min(detector.eta_for(m) for m in scales)
        x, wx = _axis_rule(center, sigma, smax, eta_min, level, nodes_per_axis)
        y, wy = _axis_rule(0.0, sigma, smax, eta_min, level, nodes_per_axis)
        grids.append((x, y, np.concatenate((wx, wy))))
    return grids


@lru_cache(maxsize=_MOMENT_CACHE)
def _deterministic_moments(family: StateFamily, detector: DetectorModel, level: int,
                           nodes_per_axis: int, patterns: tuple) -> _Moments:
    """Memoized moments of one state at one refinement level.

    They do not depend on the measurement angles, so every evaluation an
    optimizer makes on its state shares them.
    """
    coeffs, signs, variables = family_structure(family)
    grids = _deterministic_grids(variables, detector, level, nodes_per_axis)
    return _engine_pass(coeffs, signs, variables, patterns, detector, grids)


def _sampled_grids(variables, rng: np.random.Generator, count: int):
    grids = []
    for V, center, _scales in variables:
        sigma = _variable_sigma(V)
        if sigma == 0.0:
            x = np.full(count, center)
            y = np.zeros(count)
        else:
            x = rng.normal(center, sigma, size=count)
            y = rng.normal(0.0, sigma, size=count)
        grids.append((x, y, np.full(2 * count, 1.0 / count)))
    return grids


def _refinement_steps(family, detector, nodes_per_axis, blocks, pattern_rows, patterns):
    """Values of every term per refinement level, with the level-to-level change."""
    # Every variable of a family carries its V.  Wide weights are on the
    # composite rule from level 0 and have no levels past 2; narrow ones may
    # still need the composite tail.
    sigma = _variable_sigma(family.V)
    top_level = 4 if 0.0 < sigma <= _GH_SIGMA_MAX else 2
    previous = None
    for level in range(top_level + 1):
        moments = _deterministic_moments(family, detector, level, nodes_per_axis, patterns)
        num, den = _contract(moments, blocks, pattern_rows).T
        values = num / den
        if previous is None:
            yield values, np.full(values.shape, math.inf)
        else:
            yield values, np.abs(values - previous)
        previous = values


def _sampled_steps(family, detector, config, blocks, pattern_rows, patterns):
    """Values of every term per sampling attempt, with the batch spread.

    One seeded stream serves the whole stack, so every term sees the samples
    it would see alone; the budget doubles from one attempt to the next.
    """
    coeffs, signs, variables = family_structure(family)
    rng = np.random.default_rng(config.mc_seed)
    samples = config.mc_samples
    for _attempt in range(3):
        per_batch = max(1, samples // _MC_BATCHES)
        batch_values = []
        num_total = 0.0
        den_total = 0.0
        for _b in range(_MC_BATCHES):
            grids = _sampled_grids(variables, rng, per_batch)
            moments = _engine_pass(coeffs, signs, variables, patterns, detector, grids)
            num, den = _contract(moments, blocks, pattern_rows).T
            batch_values.append(num / den)
            num_total = num_total + num
            den_total = den_total + den
        batches = np.array(batch_values).T
        errs = np.array([np.std(np.ascontiguousarray(row), ddof=1) for row in batches])
        yield num_total / den_total, errs / math.sqrt(_MC_BATCHES)
        samples *= 2


def estimate_correlations(
    family: StateFamily,
    term_settings: Sequence[Sequence[PartySetting]],
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> list[tuple[float, float]]:
    """Correlation of outcome signs for each term, with an error estimate.

    ``term_settings`` holds one per-mode setting sequence per term; all terms
    share one pass per refinement step.  Each term stops at its own first
    step that meets ``rel_tol`` (relative, floored at one, since
    correlations are order one).  Deterministic quadrature refines the
    per-axis resolution and reports the change from the previous level; the
    Monte Carlo backend reports the batch spread and doubles the sample
    budget up to twice.  Raises :class:`NonconvergenceError` for the first
    term whose ladder is exhausted.
    """
    detector = detector or DetectorModel()
    config = config or QuadratureConfig()
    blocks, term_patterns = _term_blocks(family, term_settings, detector)
    patterns = tuple(sorted(set(term_patterns)))
    pattern_rows = np.array([patterns.index(p) for p in term_patterns])

    # Every mixture variable contributes an independent planar integral here,
    # so deterministic rules stay affordable at any party count; only an
    # explicit request routes the estimate through sampling.
    if config.method is Method.MONTE_CARLO:
        steps = _sampled_steps(family, detector, config, blocks, pattern_rows, patterns)
        stalled = "sampling stalled at {!r} with batch error {:.3g}"
    else:
        steps = _refinement_steps(family, detector, config.nodes_per_axis, blocks,
                                  pattern_rows, patterns)
        stalled = "correlation refinement stalled at {!r} with error {:.3g}"

    results = [None] * len(term_patterns)
    for values, errs in steps:
        for t, (value, err) in enumerate(zip(values.tolist(), errs.tolist())):
            if results[t] is None and err <= config.rel_tol * max(abs(value), 1.0):
                results[t] = (value, err)
        if None not in results:
            return results
    t = results.index(None)
    value, err = float(values[t]), float(errs[t])
    raise NonconvergenceError(stalled.format(value, err), value=value, err_estimate=err)


def estimate_correlation(
    family: StateFamily,
    settings: Sequence[PartySetting],
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> tuple[float, float]:
    """Correlation of outcome signs with an error estimate: the one-term case
    of :func:`estimate_correlations`."""
    return estimate_correlations(family, [settings], detector, config)[0]


def converged_correlation(
    family: StateFamily,
    settings: Sequence[PartySetting],
    detector: DetectorModel | None = None,
    config: QuadratureConfig | None = None,
) -> float:
    """Correlation of outcome signs, converged to the configured tolerance."""
    value, _err = estimate_correlation(family, settings, detector, config)
    return value
