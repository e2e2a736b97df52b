"""Dense 2-D reference for the correlation engine's per-variable integrals.

Every mixture variable is integrated over an explicit Gauss-Hermite tensor
grid: the per-mode 2x2 node matrices are formed as full n×n arrays and
multiplied branch pair by branch pair, the way the engine did before it
separated the two axes.  The family table, the rotation matrices and the
node functions are all written out here again, so nothing is shared with the
package's integration or state code; agreement on the same nodes checks the
separable algebra of the engine pass.  The node functions use scipy's erf and
Dawson's integral, not the engine's numpy kernels, so the comparison checks
those kernels too.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy.special import dawsn, erf

_R2 = 1.0 / math.sqrt(2.0)
_R3 = 1.0 / math.sqrt(3.0)
_GHZ3 = ((1, 1, 1), (-1, -1, -1))
_CLUSTER = ((1, 1, 1, 1), (1, 1, -1, -1), (-1, -1, 1, 1), (-1, -1, -1, -1))

# family -> (branch coefficients, branch sign patterns, variables), where a
# variable is (center per unit displacement, {mode: amplitude scale}).
FAMILIES = {
    "ghz3-cond": ((1, 1), _GHZ3, [(1.0, {m: 1.0}) for m in range(3)]),
    "ghz3-bs": ((1, 1), _GHZ3, [(math.sqrt(3.0), {0: _R3, 1: _R3, 2: _R3})]),
    "ghz3-kerr": ((1, 1j), _GHZ3, [(math.sqrt(3.0), {0: _R3, 1: _R3, 2: _R3})]),
    "w3": ((1, 1, 1), ((-1, 1, 1), (1, -1, 1), (1, 1, -1)),
           [(1.0, {0: 1.0, 1: 1.0, 2: 1.0})]),
    "ghz4-cond": ((1, 1), ((1, 1, 1, 1), (-1, -1, -1, -1)),
                  [(1.0, {m: 1.0}) for m in range(4)]),
    "cluster4-cond": ((0.5, 0.5, 0.5, -0.5), _CLUSTER,
                      [(1.0, {m: 1.0}) for m in range(4)]),
    "cluster4-xkerr": ((0.5, 0.5, 0.5, -0.5), _CLUSTER,
                       [(math.sqrt(2.0), {0: _R2, 1: _R2}),
                        (math.sqrt(2.0), {2: _R2, 3: _R2})]),
}


def axis(mu: float, V: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for N(mu, (V−1)/4); one node at V = 1."""
    sigma = math.sqrt((V - 1.0) / 4.0)
    if sigma == 0.0:
        return np.array([mu]), np.array([1.0])
    t, w = hermgauss(n)
    return mu + math.sqrt(2.0) * sigma * t, w / math.sqrt(math.pi)


def rotation(theta: float, phase: float) -> np.ndarray:
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    ph = complex(math.cos(phase), math.sin(phase))
    return np.array([[s, ph * c], [ph.conjugate() * c, -s]])


def correlation(family: str, V: float, d: float, angles, etas, n: int):
    """(numerator, denominator) summed over n×n Gauss-Hermite grids.

    ``angles`` holds one (θ, γ) pair per mode, or None for an unmeasured
    mode; ``etas`` holds one detector efficiency per mode.
    """
    coeffs, signs, variables = FAMILIES[family]
    nb = len(coeffs)
    num_f = np.ones((nb, nb), dtype=complex)
    den_f = np.ones((nb, nb), dtype=complex)
    for center, scales in variables:
        x, wx = axis(center * d, V, n)
        y, wy = axis(0.0, V, n)
        X, Y, W = x[:, None], y[None, :], wx[:, None] * wy[None, :]
        f_blocks, g_blocks = {}, {}
        for m, s in scales.items():
            eta = etas[m]
            e = erf(math.sqrt(2.0) * eta * s * X)
            ov = np.exp(-2.0 * (s * X) ** 2) * np.exp(-2.0 * (s * Y) ** 2)
            o = np.exp(-2.0 * (s * X) ** 2) * (
                1j * (2.0 / math.sqrt(math.pi))
                * np.exp(-2.0 * (1.0 - eta * eta) * (s * Y) ** 2)
                * dawsn(math.sqrt(2.0) * eta * s * Y))
            g_blocks[m] = ((1.0, ov), (ov, 1.0))
            if angles[m] is None:
                f_blocks[m] = g_blocks[m]
                continue
            mat = rotation(*angles[m])
            node = ((e, -o), (o, -e))
            f_blocks[m] = tuple(
                tuple(sum(mat[b, t] * node[t][tp] * mat[tp, k]
                          for t in (0, 1) for tp in (0, 1))
                      for k in (0, 1))
                for b in (0, 1))
        for j in range(nb):
            for i in range(nb):
                prod_f = W
                prod_g = W
                for m in scales:
                    b = (1 - signs[j][m]) // 2
                    k = (1 - signs[i][m]) // 2
                    prod_f = prod_f * f_blocks[m][b][k]
                    prod_g = prod_g * g_blocks[m][b][k]
                num_f[j, i] *= np.sum(prod_f)
                den_f[j, i] *= np.sum(prod_g)
    weights = np.outer(np.conj(coeffs), coeffs)
    return float(np.sum(weights * num_f).real), float(np.sum(weights * den_f).real)
