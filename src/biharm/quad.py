"""Double-exponential quadrature of the one-dimensional kernel integrals and
the t-parameterized polynomial factors of the tensor-product basis.

The substitution t = Phi(u) maps the half-line integrals onto the real line
with doubly exponentially decaying integrands, so the plain trapezoidal rule
with a few hundred nodes reaches near machine accuracy.  Node tables are
immutable; log-magnitude companions of every node quantity are kept because
the high-dimensional assembly must form n-fold products in the log domain.
Every node sum of the package, here and in the engine, goes through
_node_sum, which refuses a rule whose last node still carries weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import QuadratureDivergence
from .kernels import dim_value, order_value

__all__ = [
    "DEQuadrature",
    "NodeTable",
    "qm_poly",
    "rm_poly",
    "integral_phi2",
    "tensor_weight",
]

# e^x is zero in binary64 below the cutoff and overflows above the clamp
_LOG_UNDERFLOW = -745.0
_LOG_FLOAT_MAX = 709.0

# Tail contributions are compared against this fraction of the accumulated sum.
_TAIL_TOL = 1e-16


def _log_transform(u, a: float, b: float):
    """Return (log Phi(u), log Phi'(u)) elementwise; never overflows.

    Phi(u) = exp(ab(u - e^{-u}) + a exp(b(u - e^{-u}))),
    Phi'(u) = Phi(u) ab (1 + e^{-u}) (1 + exp(b(u - e^{-u}))).
    """
    u = np.asarray(u, dtype=float)
    inner = b * (u - np.exp(-u))
    log_t = a * b * (u - np.exp(-u)) + a * np.exp(inner)
    # log(1 + e^inner) without overflow for large positive inner
    log_tprime = log_t + math.log(a * b) + np.log1p(np.exp(-u)) + np.logaddexp(0.0, inner)
    return log_t, log_tprime


def _log1p(t: np.ndarray, log_t: np.ndarray) -> np.ndarray:
    """log(1 + t) per node; where t overflowed to +inf the finite log t stands
    in, which equals log(1 + t) to working precision there."""
    out = np.log1p(t)
    inf = np.isinf(t)
    out[inf] = log_t[inf]
    return out


class NodeTable(NamedTuple):
    """Per-node arrays of a rule, in ascending node order.

    t = Phi(u) and weight = tau * Phi * Phi' may be +inf beyond the binary64
    range; log_t, log1pt = log(1 + t) and log_weight are always finite.
    """

    u: np.ndarray
    t: np.ndarray
    log_t: np.ndarray
    log1pt: np.ndarray
    log_weight: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class DEQuadrature:
    """Trapezoidal rule of step tau at nodes u_s = tau * s, s_begin <= s < s_end."""

    a: float = 6.0
    b: float = 5.0
    tau: float = 0.003
    s_begin: int = 0
    s_end: int = 300
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and self.b > 0.0 and self.tau > 0.0):
            raise ValueError("quadrature parameters a, b, tau must be positive")
        if self.s_begin >= self.s_end:
            raise ValueError("node index range must be nonempty")

    @property
    def node_count(self) -> int:
        return self.s_end - self.s_begin

    def arrays(self) -> NodeTable:
        """The node table.  Cached; treat the returned arrays as read-only."""
        if "arrays" not in self._cache:
            u = self.tau * np.arange(self.s_begin, self.s_end, dtype=float)
            log_t, log_tprime = _log_transform(u, self.a, self.b)
            log_weight = math.log(self.tau) + log_t + log_tprime
            with np.errstate(over="ignore"):
                t = np.exp(log_t)
                weight = np.exp(log_weight)
            self._cache["arrays"] = NodeTable(u, t, log_t, _log1p(t, log_t),
                                              log_weight, weight)
        return self._cache["arrays"]


DEFAULT_RULE = DEQuadrature()


def _poly_weights(M: int, t) -> tuple[np.ndarray, list]:
    """Common scaled argument and coefficients (-1)^k/(k! 4^k) (1+t)^{-k}."""
    t = np.asarray(t, dtype=float)
    coeffs = []
    c = np.ones_like(t)
    for k in range(M):
        coeffs.append(c.copy())
        c = -c / ((k + 1.0) * 4.0 * (1.0 + t))
    return t, coeffs


def qm_poly(M, x, t):
    """Q_M(x, t) = sum_{k<M} (-1)^k/(k! 4^k) (1+t)^{-k} H_{2k}(x / sqrt(1+t))."""
    M = order_value(M)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 and np.ndim(t) == 0
    t, coeffs = _poly_weights(M, t)
    y = x / np.sqrt(1.0 + t)
    h_prev = np.ones_like(y)  # H_0
    total = coeffs[0] * h_prev
    if M > 1:
        h = 2.0 * y
        for k in range(1, M):
            h, h_prev = 2.0 * y * h - 2.0 * (2 * k - 1) * h_prev, h  # -> H_2k
            total = total + coeffs[k] * h
            if k < M - 1:
                h, h_prev = 2.0 * y * h - 2.0 * (2 * k) * h_prev, h  # -> H_{2k+1}
    return float(total) if scalar else total


def rm_poly(M, x, t):
    """R_M(x, t) = sum_{k<M} (-1)^k/(k! 4^k) (1+t)^{-k} S_{2k}(x / sqrt(1+t))
    with S_k(y) = y^2 H_k(y) - 2k y H_{k-1}(y) + k(k-1) H_{k-2}(y)."""
    M = order_value(M)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 and np.ndim(t) == 0
    t, coeffs = _poly_weights(M, t)
    y = x / np.sqrt(1.0 + t)
    y2 = y * y
    # rolling window of H_{j-2}, H_{j-1}, H_j
    h2, h1, h = None, None, np.ones_like(y)
    total = coeffs[0] * y2  # S_0(y) = y^2
    j = 0
    for k in range(1, M):
        for _ in range(2):
            j += 1
            h2, h1, h = h1, h, 2.0 * y * h - 2.0 * (j - 1) * (h1 if h1 is not None else 0.0)
        s = y2 * h - 2.0 * j * y * h1 + j * (j - 1.0) * h2
        total = total + coeffs[k] * s
    return float(total) if scalar else total


def _exp_nodes(expo: np.ndarray, factor=1.0) -> np.ndarray:
    """factor * e^expo per node: zero below the underflow cutoff, the exponent
    clamped at the overflow limit."""
    return np.where(expo > _LOG_UNDERFLOW,
                    factor * np.exp(np.minimum(expo, _LOG_FLOAT_MAX)), 0.0)


def _node_sum(contribs, weights=(1.0,)) -> float:
    """Certified node sum fsum_p weights[p] * fsum_s contribs[p][s].

    The rule is trusted only if the last node's share of the combined sum
    sum_p weights[p] * contribs[p] stays within _TAIL_TOL; otherwise the
    integrand has not decayed by the end of the node range.
    """
    total = math.fsum(w * math.fsum(c) for w, c in zip(weights, contribs))
    tail = math.fsum(w * c[-1] for w, c in zip(weights, contribs))
    if abs(tail) > _TAIL_TOL * abs(total):
        raise QuadratureDivergence(
            f"final-node contribution {tail:.3e} exceeds {_TAIL_TOL:.0e} of the "
            f"accumulated value {total:.3e}; extend the node range"
        )
    return total


def integral_phi2(n, r: float, rule: DEQuadrature = DEFAULT_RULE) -> float:
    """Potential of the unit Gaussian at radius r via the one-dimensional
    integral representation, evaluated with the given quadrature rule.

    For n >= 5 this is (1/16) int_0^inf e^{-r^2/(1+t)} (1+t)^{-n/2} t dt;
    for n = 3 the two-term counterpart with an extra t r^2 (1+t)^{-5/2} piece.
    """
    n = dim_value(n)
    if n == 4:
        raise ValueError("the integral representation covers n = 3 and n >= 5 only")
    nodes = rule.arrays()
    log1pt = nodes.log1pt
    r2 = float(r) * float(r)
    if n >= 5:
        # tau * Phi * Phi' * e^{-r^2/(1+t)} (1+t)^{-n/2}, all in log form
        expo = nodes.log_weight - r2 * np.exp(-log1pt) - 0.5 * n * log1pt
        return _node_sum([_exp_nodes(expo)]) / 16.0
    # tau * Phi' * e^{-r^2/(1+t)} [(1+t)^{-3/2} + t r^2 (1+t)^{-5/2}]
    log_phiprime = nodes.log_weight - nodes.log_t  # log(tau * Phi')
    base = log_phiprime - r2 * np.exp(-log1pt)
    contrib = (_exp_nodes(base - 1.5 * log1pt)
               + _exp_nodes(base + nodes.log_t - 2.5 * log1pt, r2))
    return -_node_sum([contrib]) / 8.0


def tensor_weight(k, M, D: float, rule: DEQuadrature = DEFAULT_RULE, n=None) -> float:
    """Cubature weight of the tensor-product basis at lattice offset k.

    a_k^(M) = (pi D)^{-n/2} tau sum_s Phi Phi' (1+t)^{-n/2}
              prod_j e^{-k_j^2/(D(1+t))} Q_M(k_j / sqrt(D), t).
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 1:
        raise ValueError("k must be a flat index vector")
    n = dim_value(len(k) if n is None else n)
    if n < 5:
        raise ValueError("tensor weights are defined for n >= 5")
    if len(k) != n:
        raise ValueError("index vector length must equal the dimension")
    M = order_value(M)
    if not D > 0.0:
        raise ValueError("shape parameter D must be positive")
    nodes = rule.arrays()
    # per-node product over dimensions, in log-magnitude/sign form
    q = qm_poly(M, k[:, None] / math.sqrt(D), nodes.t[None, :])
    gauss_expo = -(k * k)[:, None] / D * np.exp(-nodes.log1pt)[None, :]
    sign = np.prod(np.sign(q), axis=0)
    with np.errstate(divide="ignore"):
        log_prod = np.sum(gauss_expo + np.log(np.abs(q)), axis=0)
    expo = nodes.log_weight - 0.5 * n * nodes.log1pt + log_prod
    return _node_sum([_exp_nodes(expo, sign)]) * (math.pi * D) ** (-0.5 * n)
