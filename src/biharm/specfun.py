"""Orthogonal-polynomial recurrence backing the higher-order potential kernels.

The kernels evaluate the generalized Laguerre polynomials on large sample
arrays, so the recurrence is array-valued and keeps scalar-in, scalar-out.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gen_laguerre"]


def gen_laguerre(k: int, gamma: float, y):
    """Generalized Laguerre polynomial L_k^{(gamma)}(y), gamma > -1.

    Uses the stable three-term recurrence
    (j+1) L_{j+1} = (2j + 1 + gamma - y) L_j - (j + gamma) L_{j-1}.
    """
    if k < 0:
        raise ValueError("gen_laguerre requires k >= 0")
    if not gamma > -1.0:
        raise ValueError("gen_laguerre requires gamma > -1")
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    l_prev = np.ones_like(y)
    if k == 0:
        return float(l_prev[()]) if scalar else l_prev
    l = 1.0 + gamma - y
    for j in range(1, k):
        l, l_prev = ((2.0 * j + 1.0 + gamma - y) * l - (j + gamma) * l_prev) / (j + 1.0), l
    return float(l[()]) if scalar else l
