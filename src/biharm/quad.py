"""Double-exponential quadrature of the one-dimensional kernel integrals and
the t-parameterized polynomial factors of the tensor-product basis.

The substitution t = Phi(u) maps the half-line integrals onto the real line
with doubly exponentially decaying integrands, so the plain trapezoidal rule
with a few hundred nodes reaches near machine accuracy.  Node tables are
immutable; log-magnitude companions of every node quantity are kept because
the high-dimensional assembly must form n-fold products in the log domain.
Every node sum of the package, here and in the engine, goes through
_node_sum, which refuses a rule whose last node still carries weight and
returns the node rows' math.fsum sums bit for bit.
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
]

# e^x is zero in binary64 below the cutoff and overflows above the clamp
_LOG_UNDERFLOW = -745.0
_LOG_FLOAT_MAX = 709.0

# Tail contributions are compared against this fraction of the accumulated sum.
_TAIL_TOL = 1e-16

# node-row stacks with fewer rows are summed by math.fsum row by row: on rows
# of 300 nodes the vectorised pass of _row_sums costs about 60 us for 1 to 8
# rows, as much as math.fsum of 4 rows (15 us a row)
_FSUM_ROWS = 4


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
        if not all(0.0 < p < math.inf for p in (self.a, self.b, self.tau)):
            raise ValueError("quadrature parameters a, b, tau must be positive and finite")
        if self.s_begin >= self.s_end:
            raise ValueError("node index range must be nonempty")

    @property
    def node_count(self) -> int:
        return self.s_end - self.s_begin

    def arrays(self) -> NodeTable:
        """The node table.  Cached; treat the returned arrays as read-only."""
        if "arrays" not in self._cache:
            u = self.tau * np.arange(self.s_begin, self.s_end, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                log_t, log_tprime = _log_transform(u, self.a, self.b)
                log_weight = math.log(self.tau) + log_t + log_tprime
                t = np.exp(log_t)
                weight = np.exp(log_weight)
            log1pt = _log1p(t, log_t)
            # NodeTable promises finite logarithms; where a * b or the
            # transform overflows they are not, and the node sums of such a
            # rule come out as 0 or NaN
            if not all(np.all(np.isfinite(x)) for x in (log_t, log1pt, log_weight)):
                raise ValueError(f"quadrature rule a = {self.a}, b = {self.b}, "
                                 f"tau = {self.tau} has node logarithms beyond the "
                                 "binary64 range")
            self._cache["arrays"] = NodeTable(u, t, log_t, log1pt, log_weight, weight)
        return self._cache["arrays"]


DEFAULT_RULE = DEQuadrature()


def _node_polys(M: int, x, t, with_r: bool = False) -> tuple:
    """(Q_M(x, t),), or (Q_M(x, t), R_M(x, t)) when with_r, from one Hermite
    recurrence in y = x / sqrt(1+t):

    Q_M = sum_{k<M} c_k H_{2k}(y),  R_M = sum_{k<M} c_k S_{2k}(y),
    c_k = (-1)^k/(k! 4^k) (1+t)^{-k},
    S_j(y) = y^2 H_j(y) - 2j y H_{j-1}(y) + j(j-1) H_{j-2}(y).

    Only the rolling pair H_{2k-1}, H_{2k} is kept between steps.
    """
    t = np.asarray(t, dtype=float)
    y = x / np.sqrt(1.0 + t)
    c = np.ones_like(t)
    h_prev = np.ones_like(y)  # H_0
    q = c * h_prev
    if with_r:
        y2 = y * y
        r = c * y2  # S_0(y) = y^2
    if M > 1:
        h = 2.0 * y  # H_1
    for k in range(1, M):
        c = -c / (k * 4.0 * (1.0 + t))
        j = 2 * k
        h_even = 2.0 * y * h - 2.0 * (j - 1) * h_prev  # H_2k
        if with_r:
            r = r + c * (y2 * h_even - 2.0 * j * y * h + j * (j - 1.0) * h_prev)
        h, h_prev = h_even, h
        q = q + c * h
        if k < M - 1:
            h, h_prev = 2.0 * y * h - 2.0 * j * h_prev, h  # H_{2k+1}
    return (q, r) if with_r else (q,)


def _poly_view(M, x, t, which: int):
    poly = _node_polys(order_value(M), np.asarray(x, dtype=float), t, which == 1)[which]
    return float(poly) if poly.ndim == 0 else poly


def qm_poly(M, x, t):
    """Q_M(x, t) = sum_{k<M} (-1)^k/(k! 4^k) (1+t)^{-k} H_{2k}(x / sqrt(1+t))."""
    return _poly_view(M, x, t, 0)


def rm_poly(M, x, t):
    """R_M(x, t) = sum_{k<M} (-1)^k/(k! 4^k) (1+t)^{-k} S_{2k}(x / sqrt(1+t))
    with S_k(y) = y^2 H_k(y) - 2k y H_{k-1}(y) + k(k-1) H_{k-2}(y)."""
    return _poly_view(M, x, t, 1)


def _exp_nodes(expo: np.ndarray, factor=1.0) -> np.ndarray:
    """factor * e^expo per node: zero below the underflow cutoff, the exponent
    clamped at the overflow limit."""
    return np.where(expo > _LOG_UNDERFLOW,
                    factor * np.exp(np.minimum(expo, _LOG_FLOAT_MAX)), 0.0)


def _row_sums(rows, min_rows: int = _FSUM_ROWS) -> list:
    """math.fsum of each node row, bit for bit, from one vectorised pass.

    Stacks of fewer than min_rows rows, and rows of 2^26 or more values,
    are summed by math.fsum directly.
    Otherwise each row x_1..x_N (N < 2^26) is split without error (Rump,
    Ogita and Oishi's ExtractVector): with mu = max|x_i| < 2^e and
    sigma = 2^(e + ceil(log2(N + 2))), q_i = (sigma + x_i) - sigma and
    p_i = x_i - q_i are exact, every q_i is a multiple of u sigma
    (u = 2^-53) and sum |q_i| < sigma, so hi = fl(sum q_i) is exact in any
    summation order.  lo = fl(sum p_i) is off by at most
    gamma_{N-1} sum |p_i| <= 2 (N-1) u fl(sum |p_i|), gamma_k = k u / (1 - k u),
    in any order (Higham, ch. 4), so B = fl(2 N u fl(sum |p_i|)) + 2^-1074
    bounds it; the last term covers underflow of the product.  With
    r + err = hi + lo exactly (TwoSum), the exact sum lies within |err| + B
    of r.  r is accepted when fl(|err| + B) is strictly below h, half the
    smaller gap from r to its neighbouring doubles (a quarter of
    spacing(|r|) at a power of two): rounding is monotone and h is a double,
    so the exact sum is then strictly nearer to r than to any other double,
    and r is the correctly rounded sum that math.fsum returns.

    Every other row is summed by math.fsum, which also raises what it
    raises: rows holding inf or NaN, rows too large for a finite sigma (a
    finite sigma means (N + 2) mu < 2^1023, so no certified row comes near
    overflow), rows with |r| <= 2^-1021 (h rounds to 0; zero sums included),
    exact ties and rows whose cancellation leaves B above h.
    """
    if len(rows) < min_rows or len(rows[0]) >= 2 ** 26:
        return [math.fsum(row.tolist()) for row in rows]
    rows = np.asarray(rows)
    cols = rows.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        _, e = np.frexp(np.max(np.abs(rows), axis=1))
        sigma = np.ldexp(1.0, e + math.ceil(math.log2(cols + 2)))[:, None]
        q = sigma + rows
        q -= sigma
        p = rows - q
        hi = np.sum(q, axis=1)
        lo = np.sum(p, axis=1)
        bound = (2.0 * cols * 2.0 ** -53) * np.sum(np.abs(p, out=p), axis=1) + 2.0 ** -1074
        r = hi + lo
        back = r - hi
        err = (hi - (r - back)) + (lo - back)
        half = np.spacing(np.abs(r)) * np.where(np.abs(np.frexp(r)[0]) == 0.5, 0.25, 0.5)
        certified = np.abs(err) + bound < half
    sums = r.tolist()
    for i in np.flatnonzero(~certified).tolist():
        sums[i] = math.fsum(rows[i].tolist())
    return sums


def _node_sum(contribs, weights=(1.0,)) -> float:
    """Certified node sum fsum_p weights[p] * fsum_s contribs[p][s].

    contribs is a (terms, nodes) array or a list of node rows; its row sums
    are math.fsum's, bit for bit (_row_sums).  The rule is trusted only if
    the last node's share of the combined sum sum_p weights[p] * contribs[p]
    stays within _TAIL_TOL; otherwise the integrand has not decayed by the
    end of the node range.
    """
    total = math.fsum(w * s for w, s in zip(weights, _row_sums(contribs)))
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
