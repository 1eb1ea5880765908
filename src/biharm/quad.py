"""Double-exponential quadrature of the one-dimensional kernel integrals and
the t-parameterized polynomial factors of the tensor-product basis.

The substitution t = Phi(u) maps the half-line integrals onto the real line
with doubly exponentially decaying integrands, so the plain trapezoidal rule
with a few hundred nodes reaches near machine accuracy.  Node tables are
immutable and end where t or the weight leaves binary64, so every node
quantity is finite; log-magnitude companions of them are kept for the node
sums formed in the log domain: integral_phi2's and evaluate_symmetric's,
whose power a0^(n-1) leaves binary64 at large n.
Every node sum of the package, here and in the engine, goes through
_row_sums, which sums any number of node rows at once to math.fsum's results
bit for bit, and is then _checked: a rule whose last node still carries
weight is refused.  _point_sums does this for the terms of many points,
_node_sum for one row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import QuadratureDivergence, UnsupportedDimension
from .kernels import dim_value, order_value

__all__ = [
    "DEQuadrature",
    "NodeTable",
    "qm_poly",
    "rm_poly",
    "integral_phi2",
]

# Tail contributions are compared against this fraction of the accumulated sum.
_TAIL_TOL = 1e-16

# _row_sums splits its rows into column pieces of at most this many values,
# so its temporaries stay within 256 KiB; an engine stack (at most
# engine._CHUNK_VALUES = 2^15 values) is one piece.  The --verify check
# "tensor path vs direct summation" (three sums over 11^5 samples) took
# 12.6 ms and 2,201 minor page faults with each row in one piece against
# 9.3 ms and 1,157 in pieces of 2^15 (medians of 9 fresh processes, x86 Xeon,
# numpy 2.4)
_PIECE_VALUES = 1 << 15


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


class NodeTable(NamedTuple):
    """Per-node arrays of a rule, in ascending node order, all finite:
    u, t = Phi(u), log_t, log1pt = log(1 + t), log_weight and
    weight = tau * Phi * Phi', some of it positive.
    """

    u: np.ndarray
    t: np.ndarray
    log_t: np.ndarray
    log1pt: np.ndarray
    log_weight: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class DEQuadrature:
    """Trapezoidal rule of step tau at nodes u_s = tau * s, s_begin <= s < s_end.

    The node table ends just before the first node whose t or weight
    overflows binary64: past it the integrands have long decayed, and the
    tail check of every node sum still covers the last node kept.
    """

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
        """The length of the node table."""
        return len(self.arrays().t)

    def arrays(self) -> NodeTable:
        """The node table.  Cached; treat the returned arrays as read-only."""
        if "arrays" not in self._cache:
            u = self.tau * np.arange(self.s_begin, self.s_end, dtype=float)
            with np.errstate(over="ignore", invalid="ignore"):
                log_t, log_tprime = _log_transform(u, self.a, self.b)
                log_weight = math.log(self.tau) + log_t + log_tprime
                t = np.exp(log_t)
                weight = np.exp(log_weight)
            name = f"quadrature rule a = {self.a}, b = {self.b}, tau = {self.tau}"
            # where a * b or the transform overflows the node logarithms are
            # not finite, and the node sums of such a rule come out as 0 or NaN
            if not (np.all(np.isfinite(log_t)) and np.all(np.isfinite(log_weight))):
                raise ValueError(f"{name} has node logarithms beyond the binary64 range")
            over = np.flatnonzero(~(np.isfinite(t) & np.isfinite(weight)))
            end = int(over[0]) if over.size else len(u)
            u, t, log_t, log_weight, weight = (x[:end] for x in (u, t, log_t, log_weight, weight))
            # a rule whose weights all underflow or overflow sums every
            # integrand to 0
            if not np.any(weight > 0.0):
                raise ValueError(f"{name} has no node with a positive finite weight")
            self._cache["arrays"] = NodeTable(u, t, log_t, np.log1p(t), log_weight, weight)
        return self._cache["arrays"]


DEFAULT_RULE = DEQuadrature()


def _node_polys(M: int, x, t, with_r: bool = False) -> tuple:
    """(Q_M(x, t),), or (Q_M(x, t), R_M(x, t)) when with_r, from one Hermite
    recurrence in y = x / sqrt(1+t):

    Q_M = sum_{k<M} c_k H_{2k}(y),  R_M = sum_{k<M} c_k S_{2k}(y),
    c_k = (-1)^k/(k! 4^k) (1+t)^{-k},
    S_j(y) = y^2 H_j(y) - 2j y H_{j-1}(y) + j(j-1) H_{j-2}(y).

    Only the rolling pair H_{2k-1}, H_{2k} is kept between steps, and every
    step writes into buffers of the full shape made once: the products and
    sums are those of the plain expressions, in their order.
    """
    t = np.asarray(t, dtype=float)
    t1 = 1.0 + t
    y = x / np.sqrt(t1)
    two_y = 2.0 * y
    c = np.ones_like(t)
    h_prev = np.ones_like(y)  # H_0
    q = c * h_prev
    if with_r:
        y2 = y * y
        r = c * y2  # S_0(y) = y^2
    if M > 1:
        h, spare, tmp = (np.empty_like(y) for _ in range(3))
        np.copyto(h, two_y)  # H_1
        if with_r:
            term = np.empty_like(y)
    for k in range(1, M):
        c = -c / (k * 4.0 * t1)
        j = 2 * k
        # H_2k = 2 y H_{2k-1} - 2 (j - 1) H_{2k-2}
        h_even = np.multiply(two_y, h, out=spare)
        h_even -= np.multiply(2.0 * (j - 1), h_prev, out=tmp)
        if with_r:
            # r + c (y^2 H_2k - 2 j y H_{2k-1} + j (j - 1) H_{2k-2})
            np.multiply(y2, h_even, out=term)
            np.multiply(2.0 * j, y, out=tmp)
            term -= np.multiply(tmp, h, out=tmp)
            term += np.multiply(j * (j - 1.0), h_prev, out=tmp)
            r += np.multiply(c, term, out=term)
        h, h_prev, spare = h_even, h, h_prev
        q += np.multiply(c, h, out=tmp)
        if k < M - 1:
            # H_{2k+1} = 2 y H_2k - 2 j H_{2k-1}
            h_odd = np.multiply(two_y, h, out=spare)
            h_odd -= np.multiply(2.0 * j, h_prev, out=tmp)
            h, h_prev, spare = h_odd, h, h_prev
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
    """factor * e^expo per node; an exponent past the binary64 range raises
    FloatingPointError, one below it gives 0."""
    with np.errstate(over="raise"):
        return factor * np.exp(expo)


def _row_sums(rows: np.ndarray) -> list:
    """math.fsum of each node row, bit for bit, from one vectorised pass.

    Rows of 2^26 or more values are summed by math.fsum directly.
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

    A stack of one row takes the same split and the same test, with sigma,
    r and h as Python floats (math.frexp, math.ldexp, math.ulp) and hi, lo
    and fl(sum |p_i|) as scalars: on one node row of 300 values the array
    steps of a stack would cost more than math.fsum itself.
    The split runs over column pieces of at most _PIECE_VALUES values, one
    row included, so that a long row such as the direct lattice sum's keeps
    one piece-sized buffer for |x_i|, q_i and p_i, and adds up hi, lo and
    fl(sum |p_i|) piece by piece.  The pieces change no bit of the result:
    hi is exact under any grouping of the q_i, and the bound on lo (and on
    fl(sum |p_i|)) holds for any order of the additions.

    Every other row is summed by math.fsum, which also raises what it
    raises: rows holding inf or NaN, rows too large for a finite sigma (a
    finite sigma means (N + 2) mu < 2^1023, so no certified row comes near
    overflow), rows with |r| <= 2^-1021 (h rounds to 0; zero sums included),
    exact ties and rows whose cancellation leaves B above h.
    """
    count, cols = rows.shape
    if cols >= 2 ** 26:
        # a memoryview hands math.fsum the values as floats with no list
        return [math.fsum(memoryview(row)) for row in rows]
    width = max(1, _PIECE_VALUES // count)
    # one buffer takes |x|, then q, p and |p|, of each piece in turn; one row
    # is cut as a vector, so that its sums come back as scalars
    buf = np.empty((count, min(cols, width)))
    if count == 1:
        rows, buf = rows[0], buf[0]
    pieces = [(rows[..., start:start + width], buf[..., :min(width, cols - start)])
              for start in range(0, cols, width)] if cols > width else [(rows, buf)]  # one piece, unsliced
    mu = functools.reduce(np.maximum, [np.maximum.reduce(np.abs(piece, out=out), axis=-1)
                                       for piece, out in pieces])
    scale = math.ceil(math.log2(cols + 2))
    if count == 1:
        e = math.frexp(mu)[1] + scale
        if not (math.isfinite(mu) and e <= 1023):
            return [math.fsum(memoryview(rows))]
        r, slack = _split(pieces, math.ldexp(1.0, e), cols)
        half = math.ulp(r) * (0.25 if abs(math.frexp(r)[0]) == 0.5 else 0.5)
        return [float(r) if slack < half else math.fsum(memoryview(rows))]
    with np.errstate(over="ignore", invalid="ignore"):
        r, slack = _split(pieces, np.ldexp(1.0, np.frexp(mu)[1] + scale)[:, None], cols)
        half = np.spacing(np.abs(r)) * np.where(np.abs(np.frexp(r)[0]) == 0.5, 0.25, 0.5)
    sums = r.tolist()
    for i in np.flatnonzero(~(slack < half)).tolist():
        sums[i] = math.fsum(rows[i].tolist())
    return sums


def _split(pieces, sigma, cols: int) -> tuple:
    """(r, fl(|err| + B)) of _row_sums' split with the given sigma, over
    (piece, buffer) pairs that cut the rows into column pieces."""
    # -0.0 is the identity of IEEE addition, signed zeros included
    hi = lo = size = -0.0
    for piece, q in pieces:
        np.add(piece, sigma, out=q)
        q -= sigma
        hi = hi + np.add.reduce(q, axis=-1)
        p = np.subtract(piece, q, out=q)
        lo = lo + np.add.reduce(p, axis=-1)
        size = size + np.add.reduce(np.abs(p, out=p), axis=-1)
    bound = (2.0 * cols * 2.0 ** -53) * size + 2.0 ** -1074
    r = hi + lo
    back = r - hi
    err = (hi - (r - back)) + (lo - back)
    return r, abs(err) + bound


def _checked(total: float, tail: float) -> float:
    """total, once the last node's share tail of it is within _TAIL_TOL;
    otherwise the integrand has not decayed by the end of the node range."""
    if abs(tail) > _TAIL_TOL * abs(total):
        raise QuadratureDivergence(
            f"final-node contribution {tail:.3e} exceeds {_TAIL_TOL:.0e} of the "
            f"accumulated value {total:.3e}; extend the node range"
        )
    return total


def _point_sums(contribs: np.ndarray, weights) -> list:
    """Certified node sums fsum_p weights[p] * fsum_s contribs[i, p, s], one
    per point i of a (points, terms, nodes) array.

    The row sums of all points come from one _row_sums pass, math.fsum's bit
    for bit, and each point's total is _checked against its last node's
    share sum_p weights[p] * contribs[i, p, -1].
    """
    points, terms, cols = contribs.shape
    sums = _row_sums(contribs.reshape(points * terms, cols))
    return [_checked(math.fsum(w * s for w, s in zip(weights, sums[i * terms:(i + 1) * terms])),
                     math.fsum(w * c for w, c in zip(weights, last)))
            for i, last in enumerate(contribs[:, :, -1].tolist())]


def _node_sum(row) -> float:
    """The certified sum of one node row, _checked against its last node."""
    return _checked(_row_sums(row.reshape(1, -1))[0], float(row[-1]))


def integral_phi2(n, r: float, rule: DEQuadrature = DEFAULT_RULE) -> float:
    """Potential of the unit Gaussian at radius r via the one-dimensional
    integral representation, evaluated with the given quadrature rule.

    For n >= 5 this is (1/16) int_0^inf e^{-r^2/(1+t)} (1+t)^{-n/2} t dt;
    for n = 3 the two-term counterpart with an extra t r^2 (1+t)^{-5/2} piece.
    """
    n = dim_value(n)
    if n == 4:
        raise UnsupportedDimension("the integral representation covers n = 3 and n >= 5 only")
    nodes = rule.arrays()
    log1pt = nodes.log1pt
    r2 = float(r) * float(r)
    if n >= 5:
        # tau * Phi * Phi' * e^{-r^2/(1+t)} (1+t)^{-n/2}, all in log form
        expo = nodes.log_weight - r2 * np.exp(-log1pt) - 0.5 * n * log1pt
        return _node_sum(_exp_nodes(expo)) / 16.0
    # tau * Phi' * e^{-r^2/(1+t)} [(1+t)^{-3/2} + t r^2 (1+t)^{-5/2}]
    log_phiprime = nodes.log_weight - nodes.log_t  # log(tau * Phi')
    base = log_phiprime - r2 * np.exp(-log1pt)
    contrib = (_exp_nodes(base - 1.5 * log1pt)
               + _exp_nodes(base + nodes.log_t - 2.5 * log1pt, r2))
    return -_node_sum(contrib) / 8.0
