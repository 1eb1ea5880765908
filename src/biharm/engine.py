"""Separated-representation densities and assembly of the high-dimensional
cubature from one-dimensional discrete convolutions.

Every per-dimension convolution sum carries its own (pi D (1+t))^{-1/2}
normalization, so the n-fold per-node products of O(1) factors stay O(1):
evaluate forms them as plain products, with relative error near n u
(u = 2^-53; one that overflows raises FloatingPointError), and only
evaluate_symmetric, whose power a0^(n-1) leaves binary64 at large n, forms
its node values as exp of a log sum.  Node row sums are
correctly rounded, equal to math.fsum's bit for bit: a vectorised error-free
split with a proven bound, math.fsum where the bound cannot certify a row
(quad._row_sums for the stacks of evaluate, quad._one_row_sum for the one
row of evaluate_symmetric).  A stack of evaluate is split with one float
scale for all its rows, so each split step is one scalar pass over the
stack, and certified by a static bound that needs no pass of its own; a
row this leaves takes its own scale and then a measured bound.  They are
certified against the quadrature tail, and the product order over
dimensions is fixed, so results are reproducible bit for bit.
evaluate assembles each distinct point of a call once, in chunks of points
bounded by _CHUNK_VALUES: per chunk, one gather of table rows per dimension
forms the products, in stacks that are the thread's scratch buffers
(quad._scratch), and one quad._point_sums pass certifies all their row
sums, and a repeated point takes its value.

The convolution kernel e^{-d^2/(D(1+t))} Q_M(d/sqrt(D), t) depends on the
lattice offset d = k - m alone, not on h, n or the density.  Its rows are
built once per (D, M) for |d| in blocks of _BLOCK and kept in one
byte-bounded LRU.  Each block is built straight into its stored array in row
pieces of at most quad._BUILD_VALUES values: the Gaussian rows are
multiplied and exp'd in place, and quad._node_polys runs its recurrence
through piece-sized buffers that each thread keeps, so a cold build holds no
full-size temporary.  At small t the Gaussian of a large |d| is exactly 0 in
binary64, so the blocks are banded: each holds its rows from the block's
first node column on, the first where the exponent of its smallest |d|
reaches -746; before it every Gaussian row is exactly 0.  Each block also
has one pad row at each end: 1.0 in the Q_M and R_M blocks, scratch in the
Gaussian blocks.
A sigma table reads its rows by |d| in runs, one per block: rows with
d >= 1 downwards in |d|, rows with d <= 0 upwards, so that every run after
the first starts at the top or the bottom of its block, next to a pad.  Each
run is one np.einsum("m,ms,ms->s") pass over its block's columns, which
forms (vec gauss) poly and adds it to each column's sum row by row, the
order of numpy's sum over all rows at once.  einsum starts at +0, so a run
carries the sum so far in as its leading row: the sum is written into the
Gaussian pad, and the poly pad and the vector's entry are 1.0, so the row
adds (1 sum) 1 = sum exactly.  Q_1 = 1, so order 1 builds and caches no Q
block: its runs carry None for the Q rows, and each is one
np.einsum("m,ms->s") pass over the Gaussian rows alone, the same bits, since
(vec gauss) 1 = vec gauss; n = 3 still builds R_1 = y^2.  The pad write and
the einsum that reads it hold one module lock, since numpy releases the
interpreter lock inside einsum and every thread shares the cached pads.
The columns a block drops are exact zeros of all its rows, and a zero term
leaves a sum that is never -0 unchanged, so every table is the one-pass sum
over all rows and columns, bit for bit.
A support-checked sigma table depends only on its vector's samples, the
first offset k - m_lo, D and M, so the same LRU keeps it across calls as
its own entry, keyed by the exact sample bytes.
evaluate_symmetric reads its node arrays, which do not depend on n, from one
lru_cache per (grid, M, k1), _axis_nodes: on a miss one _sigma_tables call
forms the tables at offsets k1 and 0 from the grid's factor vectors, and the
offset-0 ones come from the table LRU once any k1 has built them.  A warm
call is then a few dozen ufunc calls on node-length arrays: it forms its
node row in place, in four arrays made per call and inside one np.errstate
block, and sums it with quad._one_row_sum.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# every node array is quad.DEFAULT_RULE's, read at call time; no cache key
# names the rule
from . import quad
from .errors import RankBudgetExceeded, SupportTruncated, UnsupportedDimension
from .kernels import GridSpec, PotentialSample, dim_value, int_value, order_value
from .quad import _node_polys, _node_sum, _point_sums, _row_pieces, _scratch, qm_poly

__all__ = [
    "SeparatedDensity",
    "IsotropicGaussianPolyDensity",
    "evaluate",
    "tensor_weight",
    "evaluate_symmetric",
    "saturation_epsilon0",
    "gaussian_potential_density",
    "separated_expansion",
    "build_test_density",
]

# boundary-sample contributions above this fraction of a convolution sum
# indicate that the sampled support cuts off a non-negligible density tail;
# legitimate radius-6.5 windows stay below ~3e-15 (the x^4-weighted factors
# at wide nodes), real truncation shows up at 1e-3 and above
_SUPPORT_TOL = 1e-13

# separated_expansion expands at most this many dimensions (rank ~ n^2 / 2)
RANK_DIM_CAP = 64

# saturation_epsilon0 sums the one-dimensional lattice series over |m| <= this
SATURATION_CUTOFF = 6

# kernel rows are cached in blocks of _BLOCK consecutive |d| values, in one
# least-recently-used cache shared by all (D, M) with the sigma tables.
# With banded blocks and no Q_1 blocks, 128 rows was the fastest of 32..512
# on Table 2 from empty caches (48.7 ms; 51-66 ms for the others) and tied
# with 64 on the tensor-batch benchmark's evaluate calls (55 ms; 60-69 ms for
# 32, 256 and 512), medians of 7 runs on a 2-CPU x86 Xeon with numpy 2.4.
# The 32 MiB bound holds the largest working set of Tables 1-4, banded blocks
# and tables together (11.7 MiB, Table 4): counted in one process per table,
# none of them rebuilds a block
_BLOCK = 128
_CACHE_BYTES = 32 << 20
# a vector of more sample bytes than this keeps no sigma tables across calls,
# so that one large density cannot crowd the kernel blocks out of the cache
_VECTOR_BYTES = _CACHE_BYTES // 64

# evaluate assembles its distinct points in chunks of at most this many
# (point, term, node) values; a point that alone holds more is one chunk
_CHUNK_VALUES = 1 << 15


class _ByteLRU:
    """Least-recently-used store bounded at _CACHE_BYTES, safe to share
    between threads.

    Each entry counts the bytes given when it is stored; the total is kept
    as entries come and go, and every addition evicts the least recently
    used entries until it is within the bound.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0

    def get(self, key):
        """The value under key, now the most recently used, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        """Store value under key, counted as nbytes, unless key holds an
        entry already: one that another thread stored since it was missed."""
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = (value, nbytes)
            self.nbytes += nbytes
            while self.nbytes > _CACHE_BYTES:
                _, (_, size) = self._entries.popitem(last=False)
                self.nbytes -= size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


_ROW_BLOCKS = _ByteLRU()

# held for each write of a pad row of a cached Gaussian block and the einsum
# that reads it (_sigma): the pads are scratch shared by every thread
_PAD_LOCK = threading.Lock()


@dataclass(frozen=True)
class SeparatedDensity:
    """Density as sum_p weights[p] * prod_j factors[p][j](x_j).

    factors[p][j] holds samples at x = h*m for consecutive lattice indices
    m = m_lo .. m_lo + len - 1; all vectors share the same index range.
    Factor vectors may be shared between terms (by reference), which the
    evaluator exploits to avoid recomputing convolutions.  The density
    indexes its vectors once, by identity: the distinct vectors in
    first-seen order and each (term, dimension) vector's position among
    them.  Their samples are read at each call, so an edited vector is
    summed as it is then.
    """

    weights: tuple
    factors: tuple
    m_lo: int
    _vectors: tuple = field(init=False, repr=False, compare=False)
    _vector_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.weights) < 1 or len(self.weights) != len(self.factors):
            raise ValueError("need one weight per factor tuple, at least one term")
        vectors = {id(v): v for term in self.factors for v in term}
        lengths = {len(v) if np.ndim(v) == 1 else 0 for v in vectors.values()}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError("factor vectors must be nonempty 1-D arrays on one index range")
        dims = {len(term) for term in self.factors}
        if len(dims) != 1:
            raise ValueError("all terms must have the same number of dimensions")
        positions, _ = _positions(id(v) for term in self.factors for v in term)
        object.__setattr__(self, "_vectors", tuple(vectors.values()))
        object.__setattr__(self, "_vector_positions", positions.reshape(len(self.factors), -1))

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def ndim(self) -> int:
        return len(self.factors[0])


@dataclass(frozen=True)
class IsotropicGaussianPolyDensity:
    """Isotropic density e^{-|x|^2} (c0 + c1 |x|^2 + c2 |x|^4) in dimension n:
    evaluate_symmetric takes it as it is, evaluate its separated_expansion."""

    c0: float
    c1: float
    c2: float
    n: int


def _padded(d: np.ndarray) -> np.ndarray:
    """d with a 0 at each end: the block rows built there become its pads."""
    return np.concatenate(([0.0], d, [0.0]))


def _gauss_block(d: np.ndarray, D: float) -> np.ndarray:
    """The Gaussian rows e^{-d^2/(D(1+t_s))} of offsets d from the block's
    first node column on: the number of columns where the exponent of the
    smallest |d|, the largest of the column, is below -746.  exp is exactly
    0 there in every row, and 1/(1+t) falls from column to column, so these
    are the leading columns.

    exp also costs far more on such arguments than on others, so it is
    taken only where the exponent reaches -746; the others are set to 0.
    The column is capped two before the end, so that no run has one column:
    numpy does not promise to add a one-column stack row by row (np.sum
    adds it pairwise).  The rows are a view of the rows 1..len(d) of a base
    whose first and last rows are scratch pads for the carried sums of
    _sigma.  The base is built in row pieces (quad._row_pieces), each
    multiplied and exp'd in place.
    """
    inv = quad.DEFAULT_RULE.arrays().inv1pt / D
    near = np.min(np.abs(d))
    start = min(np.count_nonzero(-(near * near) * inv < -746.0), max(len(inv) - 2, 0))
    padded = _padded(d)
    neg = -(padded * padded)
    block = np.empty((len(padded), len(inv) - start))
    for rows in _row_pieces(block.shape):
        piece = np.multiply(neg[rows, None], inv[start:], out=block[rows])
        dead = piece < -746.0
        np.exp(piece, out=piece, where=~dead)
        piece[dead] = 0.0
    block[0] = block[-1] = 0.0
    return block[1:-1]


def _poly_rows(d: np.ndarray, D: float, M: int, with_r: bool, start: int = 0) -> tuple:
    """(Q_M,), or (Q_M, R_M) when with_r, at x = d / sqrt(D) and the rule's
    nodes from column start on.

    Each is a read-only view of the rows 1..len(d) of its base, whose first
    and last rows hold 1.0.  The recurrence runs over the base's rows, pads
    included, so the rows are its results, not copies of them.
    """
    t = quad.DEFAULT_RULE.arrays().t[None, start:]
    x = _padded(d)[:, None] / math.sqrt(D)
    # Q alone goes through the public qm_poly, whose calls the benchmark's
    # tracer counts as kernel builds
    blocks = _node_polys(M, x, t, True) if with_r else (qm_poly(M, x, t),)
    for block in blocks:
        block[0] = block[-1] = 1.0
        block.flags.writeable = False
    return tuple(block[1:-1] for block in blocks)


def _row_block(keys: tuple, build) -> list:
    """The cached kernel blocks under keys; on a miss, build() gives one
    array per key in one pass and the missing ones are stored read-only,
    each counted as the bytes of its padded base.

    A block already cached is kept, not replaced: a rebuild equals it bit for
    bit.
    """
    blocks = [_ROW_BLOCKS.get(key) for key in keys]
    if any(block is None for block in blocks):
        for i, block in enumerate(build()):
            if blocks[i] is None:
                block.flags.writeable = False
                blocks[i] = block
                _ROW_BLOCKS.put(keys[i], block, block.base.nbytes)
    return blocks


def _block_offsets(b: int) -> np.ndarray:
    """The offsets |d| of block b: b B .. b B + B - 1 (B = _BLOCK)."""
    return b * _BLOCK + np.arange(_BLOCK, dtype=float)


def _kernel_runs(d0: int, L: int, D: float, M: int, with_r: bool) -> list:
    """The kernel rows d = d0, d0 - 1, ..., d0 - L + 1 as runs that each read
    one cached block: a list of (table row slice, the block's first node
    column c, Gaussian rows, poly rows), the rows holding the node columns
    c.. only, each led by the block row read just before the run's first.
    At M = 1 the Q rows are None: Q_1 = 1 has no block.

    Blocks hold the rows |d| = b B .. b B + B - 1 (B = _BLOCK) from c on.
    The kernel is even in d bit for bit, so the runs can follow the pads
    (module docstring).  Q_M rows have one key whether or not R_M is needed,
    so the n = 3 path and the n >= 5 paths share them.
    """
    cols = quad.DEFAULT_RULE.node_count
    runs = []
    i = 0
    while i < L:
        d = d0 - i
        b, r = divmod(abs(d), _BLOCK)
        # block rows lo..hi - 1 are the run's, at rows lo + 1..hi of the base
        if d >= 1:
            n = min(d - max(b * _BLOCK, 1) + 1, L - i)
            lo, hi = r - n + 1, r + 1
            rows = slice(hi + 1, lo, -1)
        else:
            n = min(_BLOCK - r, L - i)
            lo, hi = r, r + n
            rows = slice(lo, hi + 1)
        [gauss] = _row_block((("gauss", D, b),), lambda: (_gauss_block(_block_offsets(b), D),))
        c = cols - gauss.shape[1]
        skip = M == 1
        polys = _row_block((("Q", D, M, b), ("R", D, M, b))[skip:1 + with_r],
                           lambda: _poly_rows(_block_offsets(b), D, M, with_r, c)[skip:])
        runs.append((slice(i, i + n), c, gauss.base[rows],
                     (None,) * skip + tuple(p.base[rows] for p in polys)))
        i += n
    return runs


def _sigma(vec: np.ndarray, runs: list, which: int, norm: np.ndarray,
           out: np.ndarray) -> None:
    """out = norm * sum_m vec[m] gauss[m] poly[m] over the node columns,
    support-checked; a run whose poly rows are None (Q_1 = 1) sums
    vec[m] gauss[m].

    Each run is one einsum pass over its block's columns c.., and every run
    after the first carries the sum so far in through its leading pad row
    (module docstring).  The sum is never -0, so the exact zeros of the
    columns before c leave it unchanged bit for bit; at the first and last
    row they are boundary terms of 0.
    The support check raises SupportTruncated if, at some node, the boundary
    term, the larger |term| of the first and last sample rows, exceeds
    _SUPPORT_TOL times the larger of |sum| and the peak, the largest |term|
    of all rows: the sign-changing polynomial kernels can cancel a sum to
    near zero at isolated nodes without any truncation problem, and
    conversely a long positive sum can dwarf its own peak term.  Rounding is
    monotone, so the check is the |sum| test on every column, then the peak
    test on the columns that fail it, whose terms alone are formed again.
    """
    sums = np.zeros(len(out))
    boundary = np.zeros(len(out))
    # weights[m + 1] = vec[m]; weights[i] = 1.0 for the run that starts at
    # table row i, over vec[i - 1], which the run before has used
    weights = np.empty(len(vec) + 1)
    weights[1:] = vec
    # each run's kernel factors: its Gaussian rows, and its poly rows unless
    # they are Q_1 = 1, which leaves every term (w gauss) 1 = w gauss
    runs = [(rows, c, (gauss,) if polys[which] is None else (gauss, polys[which]))
            for rows, c, gauss, polys in runs]
    spec = "m" + ",ms" * len(runs[0][2]) + "->s"
    for rows, c, kernel in runs:
        if rows.start == 0:
            np.einsum(spec, weights[1:rows.stop + 1], *(k[1:] for k in kernel), out=sums[c:])
            np.abs(_terms(weights[1], kernel, 1), out=boundary[c:])
        else:
            weights[rows.start] = 1.0
            with _PAD_LOCK:
                kernel[0][0] = sums[c:]
                np.einsum(spec, weights[rows.start:rows.stop + 1], *kernel, out=sums[c:])
    np.maximum(boundary[c:], np.abs(_terms(weights[-1], kernel, -1)), out=boundary[c:])
    cols = np.flatnonzero(boundary > _SUPPORT_TOL * np.abs(sums))
    if cols.size:
        peak = np.zeros(cols.size)
        for rows, c, kernel in runs:
            i = np.searchsorted(cols, c)
            terms = _terms(vec[rows, None], kernel, (slice(1, None), cols[i:] - c))
            np.maximum(peak[i:], np.max(np.abs(terms), axis=0), out=peak[i:])
        if np.any(boundary[cols] > _SUPPORT_TOL * peak):
            raise SupportTruncated("density samples end inside the kernel support; "
                                   "enlarge the sample window")
    np.multiply(norm, sums, out=out)


def _terms(weight, kernel: tuple, index) -> np.ndarray:
    """weight times the kernel factors at index, in order: (w gauss) poly."""
    terms = weight * kernel[0][index]
    for factor in kernel[1:]:
        terms *= factor[index]
    return terms


def _sample_bytes(dtype: str, raw):
    """The cache's one bytes object of the samples raw, stored on first
    sight as its own entry ("samples", dtype, bytes) and counted as its
    length, and now the most recently used entry; None for raw None.

    _sigma_tables calls it again after its tables with the object it got,
    which stores that object again if the tables evicted it, so the entry
    ends every call newer than each table whose key holds its bytes: the
    LRU evicts those tables first, and no table holds uncounted bytes.
    """
    if raw is None:
        return None
    key = ("samples", dtype, raw)
    held = _ROW_BLOCKS.get(key)
    if held is None:
        _ROW_BLOCKS.put(key, raw, len(raw))
        held = raw
    return held


def _sigma_tables(pairs, m_lo: int, D: float, M: int, with_r: bool = False) -> list:
    """Normalized per-dimension convolution sums for (vector, offset) pairs.

    All vectors have one length on the index range starting at m_lo.  Returns
    one tuple per pair, in order: (sigma_Q,), or (sigma_Q, sigma_R) when
    with_r, where
    sigma_P(k, t_s) = (pi D (1+t_s))^{-1/2} *
        sum_m vec[m] e^{-(k-m)^2/(D(1+t_s))} P_M((k-m)/sqrt(D), t_s)
    at the rule's nodes t_s.  The kernel depends on d = k - m alone, so its
    rows come from the h-independent block cache; the pairs go in order of
    offset, the vectors at one offset share one gather of them, and the
    gather and the normalization are made only if a table is not cached.
    A table that passes its support check is cached, read-only, as its own
    entry keyed (Q or R, dtype, exact sample bytes, k - m_lo, D, M): a
    byte-equal vector finds it, an edited one does not, and a vector of more
    than _VECTOR_BYTES keeps none.  The sample bytes are the one object of
    their content that the cache holds (_sample_bytes), so every table of a
    content shares it and it is counted once.
    """
    contents: dict = {}
    norm = run_k = None
    tables = [None] * len(pairs)
    try:
        for i in sorted(range(len(pairs)), key=lambda i: pairs[i][1]):
            vec, k = pairs[i]
            if id(vec) not in contents:
                raw = vec.tobytes() if vec.nbytes <= _VECTOR_BYTES else None
                contents[id(vec)] = (vec.dtype.str, _sample_bytes(vec.dtype.str, raw))
            dtype, content = contents[id(vec)]
            found = []
            for which in range(1 + with_r):
                table_key = ("QR"[which], dtype, content, k - m_lo, D, M)
                table = _ROW_BLOCKS.get(table_key)
                if table is None:
                    if run_k != k:
                        run_k, runs = k, _kernel_runs(k - m_lo, len(vec), D, M, with_r)
                    if norm is None:
                        log1pt = quad.DEFAULT_RULE.arrays().log1pt
                        norm = np.exp(-0.5 * (math.log(math.pi * D) + log1pt))
                    table = np.empty(len(norm))
                    _sigma(vec, runs, which, norm, table)
                    table.flags.writeable = False
                    if content is not None:
                        _ROW_BLOCKS.put(table_key, table, table.nbytes)
                found.append(table)
            tables[i] = tuple(found)
    finally:
        # a refused call too leaves its contents newer than the tables it stored
        for dtype, content in contents.values():
            _sample_bytes(dtype, content)
    return tables


def _positions(keys) -> tuple:
    """(each key's position among the distinct keys, those keys in first-seen order)."""
    first: dict = {}
    return np.array([first.setdefault(key, len(first)) for key in keys]), list(first)


def _node_sums(density: SeparatedDensity, points, n: int, D: float, M: int) -> list:
    """(point, certified node sum) for each grid index vector, in order.

    The node sum is fsum_p weights[p] fsum_s c_ps with c_ps the n-fold product
    of the factor tables times the node weight for n >= 5, and the two-term
    n = 3 bracket times tau * Phi'; every node's t and weight is finite
    (DEQuadrature.arrays).  The plain product, where a log sum would lose
    accuracy as n grows, serves every n while its partial products stay in
    binary64, as those of O(1) normalized factors do: one that overflows
    raises FloatingPointError, one that underflows is summed as it is.  The
    points are validated and the tables of the call built up front, each
    (vector, offset) pair of a dimension once; a table reads only its own
    offset's kernel rows, so values do not depend on the rest of the
    batch.  Each distinct point is assembled once, and a repeat takes its
    value.  The distinct points go in chunks of at most _CHUNK_VALUES
    (point, term, node) values, or one point where a point alone holds more:
    one gather of table rows per dimension forms the chunk's contributions,
    multiplied in the order j = 0 .. n-1, and one quad._point_sums pass sums
    them exactly and checks every point's tail.  Every product keeps its
    operands and their order, so a value does not depend on its chunk.
    """
    points = [tuple(int_value(c, "grid index") for c in point) for point in points]
    if any(len(point) != n for point in points):
        raise ValueError(f"evaluation point must have {n} coordinates")
    if not points:
        return []
    order, distinct = _positions(points)
    nodes = quad.DEFAULT_RULE.arrays()
    kpos, ks = _positions(k for point in distinct for k in point)
    # codes[i, j, p] = v K + k: term p reads the pair (vector v, offset k) in
    # dimension j at point i, v and k positions among the distinct vectors
    # and the K distinct offsets; each pair used is one table row
    codes = density._vector_positions.T * len(ks) + kpos.reshape(len(distinct), n, 1)
    row_of = np.zeros(len(density._vectors) * len(ks), dtype=np.intp)
    row_of[codes] = 1
    used = np.flatnonzero(row_of)
    row_of[used] = np.arange(len(used))
    index = row_of[codes]
    pairs = [(density._vectors[c // len(ks)], ks[c % len(ks)]) for c in used.tolist()]
    sigma = np.stack(_sigma_tables(pairs, density.m_lo, D, M, n == 3), axis=1)
    q = sigma[0]
    if n == 3:
        # the n = 3 bracket needs tau * Phi' and Phi separately
        tau_phiprime = np.exp(nodes.log_weight - nodes.log_t)
        r = sigma[1]

    chunk = max(1, _CHUNK_VALUES // (density.rank * q.shape[1]))
    totals = []
    with np.errstate(over="raise"):
        for at in (index[i:i + chunk] for i in range(0, len(distinct), chunk)):
            # the chunk's stacks are this thread's scratch buffers; take's "clip"
            # mode writes straight into them ("raise" would copy through a
            # temporary), and every index is in range
            stacks = _scratch(6 if n == 3 else 2, at[:, 0].shape + q.shape[1:])
            if n == 3:
                # tau_phiprime * (q0 q1 q2 + t (r0 q1 q2 + q0 r1 q2 + q0 q1 r2)),
                # each product and sum of the plain expression in its order
                q0, q1, q2, contrib, r_sum, rows = stacks
                for j, out in enumerate((q0, q1, q2)):
                    q.take(at[:, j], axis=0, out=out, mode="clip")
                np.multiply(q0, q1, out=contrib)
                r.take(at[:, 0], axis=0, out=r_sum, mode="clip")
                r_sum *= q1
                r_sum *= q2
                np.multiply(q0, r.take(at[:, 1], axis=0, out=rows, mode="clip"), out=rows)
                rows *= q2
                r_sum += rows
                rows = r.take(at[:, 2], axis=0, out=rows, mode="clip")
                rows *= contrib
                r_sum += rows
                r_sum *= nodes.t
                contrib *= q2
                contrib += r_sum
                contrib *= tau_phiprime
            else:
                contrib, rows = stacks
                q.take(at[:, 0], axis=0, out=contrib, mode="clip")
                for j in range(1, n):
                    contrib *= q.take(at[:, j], axis=0, out=rows, mode="clip")
                contrib *= nodes.weight
            totals += _point_sums(contrib, density.weights)
    return [(point, totals[i]) for point, i in zip(points, order.tolist())]


def evaluate(density: SeparatedDensity, points, n, grid: GridSpec, M) -> list[PotentialSample]:
    """Potential of a separated density at the given grid index vectors.

    Covers n >= 5 and the special n = 3 assembly; n = 4 has no tensor path.
    """
    n = dim_value(n)
    if n == 4:
        raise UnsupportedDimension("the tensor path is defined for n = 3 and n >= 5")
    M = order_value(M)
    if density.ndim != n:
        raise ValueError(f"density has {density.ndim} factor dimensions, expected {n}")
    pref = (grid.h * math.sqrt(grid.delta)) ** 4 / 16.0
    if n == 3:
        pref = -(grid.h ** 4) * grid.delta ** 2 / 8.0
    return [PotentialSample(point=point, value=pref * total, method="tensor",
                            M=M, h=grid.h, delta=grid.delta)
            for point, total in _node_sums(density, points, n, grid.delta, M)]


def tensor_weight(k, M, D: float) -> float:
    """Cubature weight of the tensor-product basis at lattice offset k.

    a_k^(M) = (pi D)^{-n/2} tau sum_s Phi Phi' (1+t)^{-n/2}
              prod_j e^{-k_j^2/(D(1+t))} Q_M(k_j / sqrt(D), t),  n = len(k):
    the node sum of evaluate for a unit lattice delta at the origin.
    """
    k = np.asarray(k)
    if k.ndim != 1:
        raise ValueError("k must be a flat index vector")
    n = dim_value(len(k))
    if n < 5:
        raise UnsupportedDimension("tensor weights are defined for n >= 5")
    if not 0.0 < D < math.inf:
        raise ValueError("shape parameter D must be positive and finite")
    # zero ends keep the one-sample support inside the window
    delta = np.array([0.0, 1.0, 0.0])
    density = SeparatedDensity(weights=(1.0,), factors=((delta,) * n,), m_lo=-1)
    [(_, total)] = _node_sums(density, [k], n, D, order_value(M))
    return total


def _gaussian_factor_vectors(grid: GridSpec):
    m_hi = int(math.floor(grid.radius / grid.h))
    x = grid.h * np.arange(-m_hi, m_hi + 1, dtype=float)
    g0 = np.exp(-x * x)
    g2 = x * x * g0
    g4 = x ** 4 * g0
    return -m_hi, g0, g2, g4


def gaussian_potential_density(n) -> IsotropicGaussianPolyDensity:
    """4 e^{-|x|^2} (n(n+2) - 4(n+2)|x|^2 + 4|x|^4), the density whose
    potential in dimension n is exactly e^{-|x|^2}: the test problem of the
    tables."""
    n = dim_value(n)
    return IsotropicGaussianPolyDensity(c0=4.0 * n * (n + 2), c1=-16.0 * (n + 2), c2=16.0, n=n)


def separated_expansion(density: IsotropicGaussianPolyDensity, grid: GridSpec) -> SeparatedDensity:
    """density as a SeparatedDensity on the grid's samples.

    Expansion over the 1-D factors {e^{-x^2}, x^2 e^{-x^2}, x^4 e^{-x^2}} with
    |x|^4 = sum_j x_j^4 + 2 sum_{i<j} x_i^2 x_j^2, in the term order c0, the
    n terms c1 x_j^2, the n terms c2 x_j^4, then 2 c2 x_i^2 x_j^2 for i < j:
    rank 1 + n + n + n(n-1)/2.  Large n must use evaluate_symmetric instead.
    """
    n = dim_value(density.n)
    if n > RANK_DIM_CAP:
        raise RankBudgetExceeded(
            f"rank {1 + 2 * n + n * (n - 1) // 2} expansion at n = {n} exceeds the "
            f"cap n <= {RANK_DIM_CAP}; use evaluate_symmetric"
        )
    m_lo, g0, g2, g4 = _gaussian_factor_vectors(grid)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = [density.c0] + [density.c1] * n + [density.c2] * n + [2.0 * density.c2] * len(pairs)
    factors = [(g0,) * n]
    factors += [tuple(g2 if l == j else g0 for l in range(n)) for j in range(n)]
    factors += [tuple(g4 if l == j else g0 for l in range(n)) for j in range(n)]
    factors += [tuple(g2 if l in pair else g0 for l in range(n)) for pair in pairs]
    return SeparatedDensity(weights=tuple(weights), factors=tuple(factors), m_lo=m_lo)


def build_test_density(n, grid: GridSpec) -> SeparatedDensity:
    """separated_expansion of gaussian_potential_density(n) on the grid."""
    return separated_expansion(gaussian_potential_density(n), grid)


@lru_cache(maxsize=256)
def _axis_nodes(grid: GridSpec, M: int, k: int) -> tuple:
    """The node arrays of evaluate_symmetric at the axis offset k, which do
    not depend on n, so a sweep over n forms them once: (a1, b1, c1, beta,
    chi, log_a0, sign_a0), all read-only.

    a1, b1, c1 are the sigma tables of the factor vectors e^{-x^2},
    x^2 e^{-x^2}, x^4 e^{-x^2} at offset k, and a0, b0, c0 those at offset 0,
    all from one _sigma_tables call: the offset-0 tables come from the table
    cache once any k has built them.  beta = b0 / a0 and chi = c0 / a0 (0
    where a0 = 0), log|a0| (-inf there) and the sign of a0 (-1.0 where
    a0 < 0, else 1.0).
    """
    m_lo, *vecs = _gaussian_factor_vectors(grid)
    pairs = [(vec, offset) for offset in (k, 0) for vec in vecs]
    (a1,), (b1,), (c1,), (a0,), (b0,), (c0,) = _sigma_tables(pairs, m_lo, grid.delta, M)
    live = a0 != 0.0
    beta = np.zeros_like(a0)
    chi = np.zeros_like(a0)
    beta[live] = b0[live] / a0[live]
    chi[live] = c0[live] / a0[live]
    with np.errstate(divide="ignore"):
        log_a0 = np.log(np.abs(a0))
    sign_a0 = np.where(a0 < 0.0, -1.0, 1.0)
    for array in (beta, chi, log_a0, sign_a0):
        array.flags.writeable = False
    return a1, b1, c1, beta, chi, log_a0, sign_a0


def evaluate_symmetric(density: IsotropicGaussianPolyDensity, k1: int,
                       grid: GridSpec, M) -> PotentialSample:
    """Potential of an isotropic density at the axis point k1 * h * e_1, in O(nodes * line)
    time independent of the separation rank.

    All dimensions except the first contribute identical convolution sums, so
    the per-node rank-expanded product collapses to A0^{n-1} times a short
    combinatorial polynomial in the moment ratios; the n-th power is carried
    in log form with an explicit sign, which keeps n ~ 1e8 in range.
    A polynomial or a node value past the binary64 range raises
    FloatingPointError, and a node sum past it OverflowError.
    """
    n = int_value(density.n, "dimension")
    if n < 5:
        raise UnsupportedDimension(
            f"the symmetric fast path requires n >= 5, got n = {n}; n = 3 goes "
            "through evaluate, and the library has no n = 4 path")
    M = order_value(M)
    k1 = int_value(k1, "axis index k1")
    nodes = quad.DEFAULT_RULE.arrays()
    D = grid.delta
    a1, b1, c1v, beta, chi, log_a0, sign_a0 = _axis_nodes(grid, M, k1)
    big = float(n)  # n(n-1)-type coefficients round at ~1 ulp for n > 9e7
    n1 = big - 1.0
    # g = c0 a1 + c1 (b1 + (n-1) a1 beta)
    #     + c2 (c1v + (n-1) a1 chi + 2 (n-1) b1 beta + (n-1)(n-2) a1 beta^2)
    # and the node row sign(g) sign(a0)^(n-1) e^expo with
    # expo = log_weight + (n-1) log|a0| + log|g|, formed in place: every
    # product and sum has the operands and order of these expressions read
    # left to right, up to swapping the two operands of one IEEE + or x,
    # which is exact.  Dead nodes (a0 = 0 or g = 0) have expo = -inf and
    # contribute nothing
    with np.errstate(divide="ignore", invalid="ignore", over="raise"):
        g = np.multiply(density.c0, a1)
        na1 = np.multiply(n1, a1)
        term = np.multiply(na1, beta)
        term += b1
        term *= density.c1
        g += term
        inner = np.multiply(na1, chi, out=term)
        inner += c1v
        part = np.multiply(2.0 * n1, b1)
        part *= beta
        inner += part
        np.multiply(n1 * (big - 2.0), a1, out=part)
        part *= beta
        part *= beta
        inner += part
        inner *= density.c2
        g += inner
        expo = np.multiply(n1, log_a0, out=na1)
        expo += nodes.log_weight
        expo += np.log(np.abs(g, out=part), out=part)
        sign = np.sign(g, out=g)
        if (n - 1) % 2 == 1:
            sign *= sign_a0
        row = np.exp(expo, out=expo)
        row *= sign
    value = (grid.h * math.sqrt(D)) ** 4 / 16.0 * _node_sum(row)
    return PotentialSample(point=(k1,), value=value, method="symmetric",
                           M=M, h=grid.h, delta=grid.delta)


def saturation_epsilon0(M, D: float, n) -> float:
    """Saturation error estimate eps_0(D) = S^n - 1 of the order-2M tensor basis.

    S is the lattice sum over one dimension of g(sqrt(D) m) with
    g(xi) = e^{-pi^2 xi^2} sum_{k<M} (pi^2 xi^2)^k / k!, the Fourier transform
    of the tensor factor (g(0) = 1), truncated at |m| <= SATURATION_CUTOFF.
    g(sqrt(D) m) is the chance that a Poisson variable of mean pi^2 D m^2
    stays below M, so it falls with |m|, like a Gaussian once pi^2 D m^2
    passes M.  The truncation is refused unless the first term it drops, at
    |m| = SATURATION_CUTOFF + 1, is below the last bit of S - 1.  An S^n - 1
    past the binary64 range is refused too.

    eps_0 bounds the relative saturation error of any density, the part of
    the error that does not fall with h; one density can sit far below it.
    For gaussian_potential_density at n = 5 and D = 5 it is 1.0e-7 at
    M = 16, 10^7 times the observed relative error of 9.4e-15 at x = e_1,
    h = 1/40.
    """
    M = order_value(M)
    if not 0.0 < D < math.inf:
        raise ValueError("shape parameter D must be positive and finite")
    n = int_value(n, "dimension")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    m = np.arange(1, SATURATION_CUTOFF + 2, dtype=float)
    xi2 = math.pi ** 2 * D * m * m
    series = np.ones_like(xi2)
    term = np.ones_like(xi2)
    for k in range(1, M):
        term = term * xi2 / k
        series += term
    g = np.exp(-xi2) * series
    s_minus_1 = 2.0 * float(np.sum(g[:-1]))
    if 2.0 * g[-1] > 2.0 ** -53 * s_minus_1:
        raise ValueError(
            f"the lattice sum over |m| <= {SATURATION_CUTOFF} drops a term of "
            f"{2.0 * g[-1]:.3e} at |m| = {SATURATION_CUTOFF + 1}, against S - 1 = "
            f"{s_minus_1:.3e}; D = {D} is too small for this estimate")
    with np.errstate(over="ignore"):
        eps0 = float(np.expm1(n * np.log1p(s_minus_1)))
    if eps0 == math.inf:
        raise ValueError(f"S^n - 1 leaves the binary64 range at M = {M}, D = {D}, n = {n}")
    return eps0
