"""Double-exponential quadrature of the one-dimensional kernel integrals and
the t-parameterized polynomial factors of the tensor-product basis.

The substitution t = Phi(u) maps the half-line integrals onto the real line
with doubly exponentially decaying integrands, so the plain trapezoidal rule
with a few hundred nodes reaches near machine accuracy.  Node tables are
immutable and end where t or the weight leaves binary64, so every node
quantity is finite; log-magnitude companions of them are kept for the node
sums formed in the log domain: integral_phi2's and evaluate_symmetric's,
whose power a0^(n-1) leaves binary64 at large n.
Every exact sum of the package, here, in the engine and in the oracles, is
math.fsum's result bit for bit, from one certified split (no other module
calls math.fsum, but for specfun's short E1 series): _row_sums splits any
number of node rows at once, _one_row_sum one row with scalar bookkeeping
and _slab_sum one row formed slab by slab, as the direct lattice sum forms
its terms.  A row is certified in up to three stages: a static bound from
the split's scale sigma alone (for a stack, one sigma from the largest value
of all its rows; for slabs, from a bound on every value), then, for a row it
leaves, the row's own sigma and a bound measured from its low parts, then
math.fsum.  Each node sum is then _checked: a rule whose last node still
carries weight is refused.
_point_sums does this for the terms of many points, _node_sum for one row.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import QuadratureDivergence, UnsupportedDimension
from .kernels import dim_value, order_value

__all__ = [
    "qm_poly",
    "rm_poly",
    "integral_phi2",
]

# Tail contributions are compared against this fraction of the accumulated sum.
_TAIL_TOL = 1e-16

# the unit roundoff of binary64
_U = 2.0 ** -53

# integral_phi2 refuses radii above this.  Against kernels.phi2, wherever
# phi2 is a normal double, its relative error on a log grid of r (100 points
# a decade) stays within 1e-12 for every n in 3, 5..3000, 10^4 and 10^7 up to
# r = 7.41 and is 1.4e-12 at 7.59 (n = 63), 2.2e-4 at 16 (n = 173) and 0.18
# at 32 (n = 663): as n grows the integrand's peak in log t narrows below
# the node spacing of the rule
RESOLVED_RADIUS = 7.4

# _row_sums splits its rows into column pieces of at most this many values
# (_one_row_sum hands it every longer row), so its temporaries stay within
# 256 KiB; an engine stack (at most engine._CHUNK_VALUES = 2^15 values) is
# one piece, and so is a slab of the direct lattice sum's terms.  The
# --verify check "tensor path vs direct summation" (three sums over 11^5
# samples) took 11.8 ms in slabs against 14.0 ms with full term rows, and
# 490 minor page faults against 1,047; the three checks after it, with no
# freed rows to reuse, 266 against 29 (medians of 18 processes each, x86
# Xeon, numpy 2.4.6)
_PIECE_VALUES = 1 << 15

# _node_polys and engine._gauss_block build a kernel block in row pieces of
# at most this many values, straight into the stored array: the piece
# buffers of _node_polys (64 KiB each, 7 + M of them at most) fit in L2
# together, and each thread makes them once (_scratch), so a cold build
# faults in no page but those of its result.  A 130 x 300 Q_4 + R_4 block
# took 0.85-1.3 ms against 2.1-3.0 ms with full-size temporaries (x86 Xeon,
# numpy 2.4.6); pieces of 2^12 values were slower, 2^14 no faster
_BUILD_VALUES = 1 << 13


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
    u, t = Phi(u), log_t, log1pt = log(1 + t), inv1pt = 1/(1 + t) formed
    as exp(-log1pt), log_weight and weight = tau * Phi * Phi', some of it
    positive.
    """

    u: np.ndarray
    t: np.ndarray
    log_t: np.ndarray
    log1pt: np.ndarray
    inv1pt: np.ndarray
    log_weight: np.ndarray
    weight: np.ndarray


@dataclass(frozen=True)
class DEQuadrature:
    """Trapezoidal rule of step tau at nodes u_s = tau * s, s_begin <= s < s_end.

    Every value of the library is formed on one instance, DEFAULT_RULE, read
    at call time; no public callable takes a rule.  The node table ends just
    before the first node whose t or weight overflows binary64: past it the
    integrands have long decayed, and the tail check of every node sum still
    covers the last node kept.
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
            log1pt = np.log1p(t)
            self._cache["arrays"] = NodeTable(u, t, log_t, log1pt, np.exp(-log1pt), log_weight,
                                              weight)
        return self._cache["arrays"]


DEFAULT_RULE = DEQuadrature()


_SCRATCH = threading.local()

# _row_sums' buffer among those of _scratch: its rows may be views of
# engine._node_sums' stacks, the buffers before it.  _node_polys, which
# never runs inside a row sum, uses it too
_ROWS_BUFFER = 7


def _scratch(count: int, shape: tuple, first: int = 0) -> list:
    """count buffers of the given shape: views of this thread's buffers
    first .. first + count - 1, each made once and grown to the largest size
    asked of it, so that block builds, chunk assembly and row sums reuse the
    same pages call after call.  A shape of more than _PIECE_VALUES values
    gets fresh arrays."""
    size = math.prod(shape)
    if size > _PIECE_VALUES:
        return [np.empty(shape) for _ in range(count)]
    bufs = _SCRATCH.__dict__.setdefault("bufs", [])
    while len(bufs) < first + count:
        bufs.append(np.empty(0))
    for i in range(first, first + count):
        if bufs[i].size < size:
            bufs[i] = np.empty(max(size, _BUILD_VALUES))
    return [buf[:size].reshape(shape) for buf in bufs[first:first + count]]


def _row_pieces(shape: tuple) -> list:
    """Indices that cut an array of the given shape along its first axis into
    pieces of at most _BUILD_VALUES values, one row where a row alone holds
    more; [...] for a 0-d shape."""
    if not shape:
        return [...]
    rows = max(1, _BUILD_VALUES // max(math.prod(shape[1:]), 1))
    return [slice(start, start + rows) for start in range(0, shape[0], rows)]


def _node_polys(M: int, x, t, with_r: bool = False) -> tuple:
    """(Q_M(x, t),), or (Q_M(x, t), R_M(x, t)) when with_r, from one Hermite
    recurrence in y = x / sqrt(1+t):

    Q_M = sum_{k<M} c_k H_{2k}(y),  R_M = sum_{k<M} c_k S_{2k}(y),
    c_k = (-1)^k/(k! 4^k) (1+t)^{-k},
    S_j(y) = y^2 H_j(y) - 2j y H_{j-1}(y) + j(j-1) H_{j-2}(y).

    The results are made once at their full shape and built in row pieces
    (_row_pieces), each through the same piece-sized buffers (_scratch): y,
    then 2y in its place, H_{d-2}, H_{d-1}, H_d in turn and one scratch,
    plus y^2 and the S term for R_M.  sqrt(1+t) and the c_k are the same
    for every piece; one that would broadcast along the rows is formed at
    piece shape once per call, since numpy's buffered iterator takes
    np.getbufsize() values per broadcast operand on every ufunc call.
    The recurrence starts from the scalar H_0 = 1 and from H_1 = 2y itself,
    so the first step is H_2 = 2y 2y - 2.0, Q = 1.0 + c_1 H_2 and
    R = y^2 + c_1 (y^2 H_2 - 4y H_1 + 2.0): 2.0 * 1.0 and 1.0 * y^2 are
    exact, and every other product and sum is that of the plain expressions,
    in their order.  The S term takes 2j y as j (2y): 2y is exact, so both
    round the same product.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    t1 = 1.0 + t
    root = np.sqrt(t1)
    c = [1.0]
    for k in range(1, M):
        c.append(-c[-1] / (k * 4.0 * t1))
    shape = np.broadcast_shapes(x.shape, t.shape)
    q = np.empty(shape)
    r = np.empty(shape) if with_r else None
    pieces = _row_pieces(shape)
    piece = q[pieces[0]].shape if pieces else ()
    work = 7 if with_r else 5
    bufs = _scratch(work + M, piece)

    def spans(a):
        # an operand spanning the result's first axis is cut with it
        return shape and a.ndim == len(shape) and a.shape[0] == shape[0]

    def fixed(a, buf):
        if spans(a) or a.shape == piece:
            return a
        np.copyto(buf, a)
        return buf

    root, *c[1:] = map(fixed, [root, *c[1:]], bufs[work:])

    def part(a, rows, size):
        if spans(a):
            return a[rows]
        # one formed at piece shape is cut to the piece's rows
        return a[:size] if shape and a.shape == piece else a

    for rows in pieces:
        qv = q[rows]
        size = len(qv) if shape else None
        views = [buf[:size] if shape else buf for buf in bufs[:work]]
        two_y, tmp, *hs = views[:5]
        # y, then 2y in place once y^2 is formed
        np.copyto(two_y, part(x, rows, size))
        two_y /= part(root, rows, size)
        if with_r:
            rv = r[rows]
            y2, term = views[5:]
            np.multiply(two_y, two_y, out=rv if M == 1 else y2)
        if M == 1:
            qv.fill(1.0)
            continue
        two_y *= 2.0
        # H_d goes to hs[d % 3], never the buffer of H_{d-1} or H_{d-2}
        h_prev, h = 1.0, two_y
        for k in range(1, M):
            ck = part(c[k], rows, size)
            j = 2 * k
            # H_2k = 2 y H_{2k-1} - 2 (j - 1) H_{2k-2}
            h_even = np.multiply(two_y, h, out=hs[j % 3])
            h_even -= 2.0 if k == 1 else np.multiply(2.0 * (j - 1), h_prev, out=tmp)
            if with_r:
                # r + c (y^2 H_2k - 2 j y H_{2k-1} + j (j - 1) H_{2k-2})
                np.multiply(y2, h_even, out=term)
                np.multiply(float(j), two_y, out=tmp)
                term -= np.multiply(tmp, h, out=tmp)
                term += 2.0 if k == 1 else np.multiply(j * (j - 1.0), h_prev, out=tmp)
                term *= ck
                if k == 1:
                    np.add(y2, term, out=rv)
                else:
                    rv += term
            h_prev, h = h, h_even
            if k == 1:
                np.multiply(ck, h, out=qv)
                qv += 1.0
            else:
                qv += np.multiply(ck, h, out=tmp)
            if k < M - 1:
                # H_{2k+1} = 2 y H_2k - 2 j H_{2k-1}
                h_odd = np.multiply(two_y, h, out=hs[(j + 1) % 3])
                h_odd -= np.multiply(2.0 * j, h_prev, out=tmp)
                h_prev, h = h, h_odd
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


def _exp_nodes(expo: np.ndarray, factor=None) -> np.ndarray:
    """e^expo per node, times factor when one is given; an exponent past the
    binary64 range raises FloatingPointError, one below it gives 0."""
    with np.errstate(over="raise"):
        values = np.exp(expo)
    return values if factor is None else factor * values


def _one_row_sum(row: np.ndarray) -> float:
    """math.fsum of one node row, bit for bit, from one vectorised pass.

    The row x_1..x_N (N < 2^26) is split without error (Rump, Ogita and
    Oishi's ExtractVector, "Accurate floating-point summation I", SIAM J.
    Sci. Comput. 31(1), 2008): with mu = max|x_i| < 2^e and
    sigma = 2^(e + ceil(log2(N + 2))), q_i = (sigma + x_i) - sigma and
    p_i = x_i - q_i are exact, every q_i is a multiple of u sigma
    (u = 2^-53) and sum |q_i| < sigma, so hi = fl(sum q_i) is exact in any
    summation order.  And |p_i| <= u sigma: |x_i| < sigma / 4, so
    sigma + x_i lies where the doubles are u sigma apart (below sigma) or
    2 u sigma apart (above it), and p_i is the error of rounding it.
    lo = fl(sum p_i) is off by at most gamma_{N-1} sum |p_i| <=
    2 (N-1) u sum |p_i| in any order, gamma_k = k u / (1 - k u) (Higham,
    ch. 4), so two bounds B cover it:

    - static: sum |p_i| <= N u sigma gives B = fl(2 N^2 u^2 sigma) + 2^-1074,
      with no pass over the row (2 N^2 u^2 is exact for N < 2^26);
    - measured: B = fl(2 N u fl(sum |p_i|)) + 2^-1074, one more pass, for
      rows whose p_i are far below u sigma.  The static bound grows as N^2:
      a row of 98,309 values, one of them 2^40, needs the measured one.

    The last term of each covers underflow of the product.  With
    r + err = hi + lo exactly (TwoSum), the exact sum lies within |err| + B
    of r.  r is accepted when fl(|err| + B) is strictly below h, half the
    gap from |r| to the next double towards zero, the smaller of the two
    gaps around r (a quarter of spacing(|r|) at a power of two): rounding
    is monotone and h is a double, so the exact sum is then strictly nearer
    to r than to any other double, and r is the correctly rounded sum that
    math.fsum returns.

    So a row takes three stages (_row_split): the static bound, the
    measured bound when the static one fails, and math.fsum when both fail.
    sigma, hi, lo, r and h are Python floats and one buffer takes |x_i|,
    q_i, p_i and |p_i|: on a node row of 300 values, numpy scalars or the
    array steps of a stack would cost more than the split itself.  A row of
    more than _PIECE_VALUES values, such as a direct lattice sum that
    _slab_sum leaves unproven, goes to _row_sums as a stack of one, which
    splits it in pieces.

    math.fsum sums the rows neither bound certifies, and raises what it
    raises: rows holding inf or NaN, rows too large for a finite sigma (a
    finite sigma means (N + 2) mu < 2^1023, so no certified row comes near
    overflow), rows with |r| <= 2^-1021 (h rounds to 0; zero sums included),
    exact ties and rows whose cancellation leaves B above h.
    """
    if row.size > _PIECE_VALUES:
        return float(_row_sums(row.reshape(1, -1))[0])
    return _row_split(row)


def _row_split(row: np.ndarray) -> float:
    """_one_row_sum's three stages on one row of any length, in one buffer."""
    cols = row.size
    # one buffer takes |x|, then q, p and |p|
    q = np.empty(cols)
    sigma = _sigma(float(np.maximum.reduce(np.abs(row, out=q))), cols)
    if sigma is None:
        return math.fsum(memoryview(row))
    np.add(row, sigma, out=q)
    q -= sigma
    hi = float(np.add.reduce(q))
    p = np.subtract(row, q, out=q)
    lo = float(np.add.reduce(p))
    r = hi + lo
    back = r - hi
    err = abs((hi - (r - back)) + (lo - back))
    mag = abs(r)
    half = (mag - math.nextafter(mag, 0.0)) * 0.5
    if err + ((2.0 * cols * cols * _U * _U) * sigma + 2.0 ** -1074) < half:
        return r
    size = float(np.add.reduce(np.abs(p, out=p)))
    if err + ((2.0 * cols * _U) * size + 2.0 ** -1074) < half:
        return r
    return math.fsum(memoryview(row))


def _row_sums(rows: np.ndarray) -> np.ndarray:
    """math.fsum of each row of a stack, bit for bit: _one_row_sum's split
    and static bound, as array steps over the rows.

    One sigma serves the whole stack, from the largest |x_i| of all its
    rows: sigma is a float, so each split step is one scalar pass over the
    stack, and no pass forms sum |p_i|.  A row's split is exact, with
    |p_i| <= u sigma, under any sigma at least its own, so the proof holds
    row by row.  A row this does not certify, one far below the stack's
    largest among them, and every row of a stack holding inf or NaN or too
    large for a finite sigma, goes to _row_split: its own sigma and the
    static bound, then the measured bound, then math.fsum, which raises
    what it raises.  Its buffer is as long as the row, a quarter of the
    list of floats math.fsum would take.

    Rows of 2^26 or more values are summed by math.fsum directly.
    Otherwise the split (_split) runs over column pieces of at most
    _PIECE_VALUES values in all, one row included, so that a long row keeps
    one piece-sized buffer for |x_i|, q_i and p_i and adds up hi and lo
    piece by piece.  The pieces change no bit of the result: hi is exact
    under any grouping of the q_i, and the bound on lo holds for any order
    of the additions.
    """
    count, cols = rows.shape
    if cols >= 2 ** 26:
        # a memoryview hands math.fsum the values as floats with no list
        return np.array([math.fsum(memoryview(row)) for row in rows])
    width = max(1, _PIECE_VALUES // count)
    # one buffer takes |x|, then q and p, of each piece in turn
    buf = _scratch(1, (count, min(cols, width)), _ROWS_BUFFER)[0]
    pieces = [(rows[:, start:start + width], buf[:, :min(width, cols - start)])
              for start in range(0, cols, width)] if cols > width else [(rows, buf)]
    mu = float(functools.reduce(np.maximum, [np.maximum.reduce(np.abs(piece, out=q), axis=None)
                                             for piece, q in pieces]))
    sigma = _sigma(mu, cols)
    if sigma is None:
        return np.array([_row_split(row) for row in rows])
    sums, unproven = _split(pieces, sigma, cols)
    for i in unproven:
        sums[i] = _row_split(rows[i])
    return sums


def _sigma(mu: float, cols: int):
    """The split's sigma for cols values of magnitude at most mu; None where
    it is not finite or cols >= 2^26, where the static bound cannot hold."""
    e = math.frexp(mu)[1] + math.ceil(math.log2(cols + 2))
    if not (math.isfinite(mu) and e <= 1023 and cols < 2 ** 26):
        return None
    return math.ldexp(1.0, e)


def _split(pieces, sigma: float, cols: int) -> tuple:
    """(hi + lo of each row, the rows the static bound leaves unproven) of
    rows of cols values split under sigma, from pieces: pairs of a block of
    the rows' columns and a buffer of its shape, which takes q_i, then p_i."""
    # -0.0 is the identity of IEEE addition, signed zeros included
    hi = lo = -0.0
    for piece, q in pieces:
        np.add(piece, sigma, out=q)
        q -= sigma
        hi = hi + np.add.reduce(q, axis=1)
        p = np.subtract(piece, q, out=q)
        lo = lo + np.add.reduce(p, axis=1)
    sums = hi + lo
    back = sums - hi
    slack = np.abs((hi - (sums - back)) + (lo - back))
    slack += (2.0 * cols * cols * _U * _U) * sigma + 2.0 ** -1074
    mag = np.abs(sums)
    half = mag - np.nextafter(mag, 0.0)
    half *= 0.5
    return sums, np.flatnonzero(~(slack < half)).tolist()


def _slab_sum(slabs, bound: float, cols: int):
    """math.fsum of one row of cols values, bit for bit, from the arrays
    slabs yields, each formed when asked for, none above bound in magnitude:
    its sigma is at least the row's own, so each slab is split once.  None,
    with no math.fsum, where that sigma is None or the sum is unproven."""
    sigma = _sigma(bound, cols)
    if sigma is None:
        return None
    sums, unproven = _split(((slab.reshape(1, -1), _scratch(1, (1, slab.size), _ROWS_BUFFER)[0])
                             for slab in slabs), sigma, cols)
    return None if unproven else float(sums[0])


def _checked(total: float, tail: float) -> float:
    """total, once the last node's share tail of it is within _TAIL_TOL;
    otherwise the integrand has not decayed by the end of the node range."""
    if abs(tail) > _TAIL_TOL * abs(total):
        raise QuadratureDivergence(
            f"node sum refused: its final-node contribution {tail:.3e} exceeds "
            f"{_TAIL_TOL:.0e} of the accumulated value {total:.3e}")
    return total


def _point_sums(contribs: np.ndarray, weights) -> list:
    """Certified node sums fsum_p weights[p] * fsum_s contribs[i, p, s], one
    per point i of a (points, terms, nodes) array.

    The row sums of all points come from one _row_sums pass, math.fsum's bit
    for bit, and each point's total is _checked against its last node's
    share sum_p weights[p] * contribs[i, p, -1].  Both sets of products
    weights[p] * x are formed as one numpy product each, the same IEEE
    products, and summed by math.fsum as plain lists.
    """
    points, terms, cols = contribs.shape
    sums = _row_sums(contribs.reshape(points * terms, cols)).reshape(points, terms) * weights
    last = contribs[:, :, -1] * weights
    return [_checked(math.fsum(row), math.fsum(tail))
            for row, tail in zip(sums.tolist(), last.tolist())]


def _node_sum(row) -> float:
    """The certified sum of one node row, _checked against its last node."""
    return _checked(_one_row_sum(row), float(row[-1]))


def integral_phi2(n, r: float) -> float:
    """Potential of the unit Gaussian at radius r via the one-dimensional
    integral representation, evaluated on DEFAULT_RULE.

    For n >= 5 this is (1/16) int_0^inf e^{-r^2/(1+t)} (1+t)^{-n/2} t dt;
    for n = 3 the two-term counterpart with an extra t r^2 (1+t)^{-5/2} piece.
    A radius above RESOLVED_RADIUS, or NaN, raises QuadratureDivergence: the
    rule does not resolve the integrand there for every n.
    """
    n = dim_value(n)
    if n == 4:
        raise UnsupportedDimension("the library has no n = 4 path")
    r = float(r)
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    if not r <= RESOLVED_RADIUS:
        raise QuadratureDivergence(f"radius {r:.3e} refused: the quadrature rule resolves the "
                                   f"integral to 1e-12 only up to r = {RESOLVED_RADIUS}")
    return _phi2_integral(n, r, DEFAULT_RULE.arrays())


def _phi2_integral(n: int, r: float, nodes: NodeTable) -> float:
    """integral_phi2's node sum on a node table, for n = 3 or n >= 5 and r >= 0."""
    log1pt = nodes.log1pt
    r2 = r * r
    if n >= 5:
        # tau * Phi * Phi' * e^{-r^2/(1+t)} (1+t)^{-n/2}, all in log form
        expo = nodes.log_weight - r2 * nodes.inv1pt - 0.5 * n * log1pt
        return _node_sum(_exp_nodes(expo)) / 16.0
    # tau * Phi' * e^{-r^2/(1+t)} [(1+t)^{-3/2} + t r^2 (1+t)^{-5/2}]
    log_phiprime = nodes.log_weight - nodes.log_t  # log(tau * Phi')
    base = log_phiprime - r2 * nodes.inv1pt
    contrib = (_exp_nodes(base - 1.5 * log1pt)
               + _exp_nodes(base + nodes.log_t - 2.5 * log1pt, r2))
    return -_node_sum(contrib) / 8.0
