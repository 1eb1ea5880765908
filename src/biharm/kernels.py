"""Closed-form potentials of the radial generating functions and a
direct-summation cubature oracle for small dimensions.

phi2 is the potential of a unit Gaussian; phi2M extends it to the radial
Laguerre-weighted basis of order 2M through the incomplete-gamma ladder.
Both are vectorized over the radius argument since the direct cubature
evaluates them on multi-million-point lattices; their special functions
come from specfun, so a scalar and an array call agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge
from . import specfun

__all__ = [
    "GridSpec",
    "PotentialSample",
    "phi2",
    "phi2M",
    "direct_cubature",
]

# Below this radius the n = 4 formula switches to its series form.
_SERIES_RADIUS = 0.35

# caps of the direct lattice sum: the space dimension, and the number of
# kernel evaluations (samples, or shells times axis indices on the radial route)
MAX_DIRECT_DIM = 6
OP_BUDGET = 200_000_000


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of step h with shape parameter delta and a lattice-sum
    truncation radius (in length units; samples are taken for |hm| <= radius)."""

    h: float
    delta: float = 5.0
    radius: float = 6.5

    def __post_init__(self) -> None:
        if not 0.0 < self.h < math.inf:
            raise ValueError("grid step h must be positive and finite")
        if not 0.0 < self.delta < math.inf:
            raise ValueError("shape parameter delta must be positive and finite")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("truncation radius must be positive and finite")


@dataclass(frozen=True)
class PotentialSample:
    """One evaluated potential value with its provenance."""

    point: tuple
    value: float
    method: str
    M: int
    h: float
    delta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError("potential value must be finite")


def int_value(value, what: str) -> int:
    """value as an int; ValueError unless it is a whole number."""
    try:
        n = int(value)
    except (OverflowError, ValueError):  # inf, NaN
        n = None
    if n is None or n != value:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return n


def dim_value(n) -> int:
    n = int_value(n, "dimension")
    if n < 3:
        raise ValueError("dimension must be at least 3")
    return n


def order_value(M) -> int:
    M = int_value(M, "basis order M")
    if M < 1:
        raise ValueError("basis order M must be at least 1")
    return M


def _phi2_dim3(r: np.ndarray) -> np.ndarray:
    # -e^{-r^2}/8 - sqrt(pi) (2r^2+1) erf(r) / (16 r); erf(r)/r -> 2/sqrt(pi) at 0
    ratio = np.full_like(r, 2.0 / math.sqrt(math.pi))
    pos = r > 0.0
    ratio[pos] = specfun.erf(r[pos]) / r[pos]
    return -np.exp(-r * r) / 8.0 - math.sqrt(math.pi) / 16.0 * (2.0 * r * r + 1.0) * ratio


def _phi2_dim4(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    small = r <= _SERIES_RADIUS
    x = r[small] ** 2
    # (gamma - 1)/16 + (1/16) sum_k (-1)^k x^k (1/(k k!) - 1/(k+1)!)
    acc = np.full_like(x, specfun._EULER_GAMMA - 1.0)
    xk = np.ones_like(x)
    sign = 1.0
    fact = 1.0  # k!
    for k in range(1, 15):
        xk = xk * x
        sign = -sign
        fact *= k
        acc += sign * xk * (1.0 / (k * fact) - 1.0 / (fact * (k + 1)))
    out[small] = acc / 16.0
    big = ~small
    x = r[big] ** 2
    out[big] = (np.expm1(-x) / x - np.log(x) - specfun.exp1(x)) / 16.0
    return out


def _phi2_series(c: float, x: float) -> float:
    # 1F1(2; c; x) by its positive terms; e^{-x} times it is cancellation-free
    term = total = 1.0
    k = 0.0
    while term > 1e-17 * total:
        term = term * x * (k + 2.0) / ((c + k) * (k + 1.0))
        total += term
        k += 1.0
    return total


def _phi2_general(n: int, r: np.ndarray) -> np.ndarray:
    # phi2 = 1F1(a; a+2; -x) / (16 a (a+1)) with a = (n-4)/2 and x = r^2.
    # Up to x = a it is e^{-x} 1F1(2; a+2; x) / (16 a (a+1)) (Kummer's
    # transform), summed by its series.  Beyond, 1F1(a; a+2; -x) =
    # a (a+1) [g(a) - g(a+1)] with g(a) = gamma(a, x)/x^a, and
    # x g(a+1) = a g(a) - e^{-x} turns it into two positive terms
    a = 0.5 * n - 2.0
    x = r * r
    out = np.empty_like(x)
    low = x <= a
    xs = x[low]
    sums = np.array([_phi2_series(a + 2.0, v) for v in xs.tolist()], dtype=float)
    out[low] = np.exp(-xs) * sums / (4.0 * (n - 2.0) * (n - 4.0))
    high = ~low
    xs = x[high]
    out[high] = (specfun.gamma_quotient(a, xs) * (xs - a) + np.exp(-xs)) / (16.0 * xs)
    return out


def phi2(n, r):
    """Potential of the unit Gaussian e^{-|x|^2} at radius r, for n >= 3.

    Explicit erf / E1 formulas for n in {3, 4}; the hypergeometric series
    and the incomplete-gamma route for n >= 5.  Accepts scalar or ndarray r.
    """
    n = dim_value(n)
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r).astype(float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    if n == 3:
        out = _phi2_dim3(r)
    elif n == 4:
        out = _phi2_dim4(r)
    else:
        out = _phi2_general(n, r)
    return float(out[0]) if scalar else out


def phi2M(n, M, r):
    """Potential of the radial order-2M basis function at radius r.

    Ladder form: phi2 plus the incomplete-gamma correction plus the short
    Laguerre sum; M = 1 reduces exactly to phi2.
    """
    n = dim_value(n)
    M = order_value(M)
    if M == 1:
        return phi2(n, r)
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r).astype(float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    x = r * r
    a = 0.5 * n - 1.0
    out = phi2(n, r) + specfun.gamma_quotient(a, x) / 16.0
    if M >= 3:
        decay = np.exp(-x) / 16.0
        ladder = np.zeros_like(x)
        for j in range(M - 2):
            ladder += specfun.gen_laguerre(j, a, x) / ((j + 1.0) * (j + 2.0))
        out = out + decay * ladder
    return float(out[0]) if scalar else out


def _shell_counts(dim: int, vmax: int) -> np.ndarray:
    """Number of lattice points of Z^dim with squared norm v, for v = 0..vmax.

    Exact int64 counts, built by convolving dim times with the one-dimensional
    counts (1 at v = 0, 2 at each nonzero square): one shifted add per square,
    O(vmax^1.5) per dimension.
    """
    counts = np.zeros(vmax + 1, dtype=np.int64)
    counts[0] = 1
    for _ in range(dim):
        nxt = counts.copy()
        for root in range(1, math.isqrt(vmax) + 1):
            sq = root * root
            nxt[sq:] += 2 * counts[: vmax + 1 - sq]
        counts = nxt
    return counts


def _direct_dense(samples: np.ndarray, grid: GridSpec, n: int, M: int,
                  x: np.ndarray) -> float:
    if samples.ndim != n:
        raise ValueError(f"samples must be an {n}-dimensional array, got {samples.ndim}")
    if any(length % 2 == 0 for length in samples.shape):
        raise ValueError("sample axes must have odd length, index 0 at the centre")
    if samples.size > OP_BUDGET:
        raise DimensionTooLarge(
            f"{samples.size} lattice samples exceed the operation budget {OP_BUDGET}"
        )
    # squared distances |x - h m|^2 summed axis by axis, in axis order, kept as
    # their distinct values: the leading n - 1 coordinates of sample i give
    # distinct distance index[i] of their level, and that distance j plus the
    # last axis's distinct square k gives dist2[pair_index[j, k]]
    dist2 = np.zeros(1)
    index = np.zeros((), dtype=np.intp)
    for axis, length in enumerate(samples.shape):
        m = np.arange(-(length // 2), length // 2 + 1, dtype=float)
        step, step_index = np.unique((x[axis] - grid.h * m) ** 2, return_inverse=True)
        pairs = np.add.outer(dist2, step)
        dist2, pair_index = np.unique(pairs, return_inverse=True)
        pair_index = pair_index.reshape(pairs.shape)
        if axis < n - 1:
            index = pair_index[index[..., None], step_index]
    # row j holds the kernel at every last-axis sample from leading distance
    # j; at a lattice point the table is small and the terms are the one
    # full-size array
    kernel = phi2M(n, M, np.sqrt(dist2) / (grid.h * math.sqrt(grid.delta)))
    table = kernel[pair_index[:, step_index]]
    terms = np.take(table, index.ravel(), axis=0)
    terms *= samples.reshape(terms.shape)
    # exactly rounded, so independent of the term order: bitwise invariant
    # under permutations and sign flips of the coordinates
    from .quad import _row_sums

    return _row_sums(terms.reshape(1, -1))[0]


def _direct_radial(profile, grid: GridSpec, n: int, M: int, x: np.ndarray) -> float:
    nonzero = np.nonzero(x)[0]
    if len(nonzero) > 1:
        raise ValueError("the radial-profile route requires an axis-aligned point")
    x1 = float(x[nonzero[0]]) if len(nonzero) else 0.0
    radius_idx = int(math.floor(grid.radius / grid.h))
    vmax = radius_idx * radius_idx
    if (2 * radius_idx + 1) * (vmax + 1) > OP_BUDGET:
        raise DimensionTooLarge(
            f"lattice sum of ~{(2 * radius_idx + 1) * (vmax + 1)} terms exceeds "
            f"the operation budget {OP_BUDGET}"
        )
    counts = _shell_counts(n - 1, vmax)
    h2 = grid.h * grid.h
    scale = grid.h * math.sqrt(grid.delta)
    partials = []
    for m1 in range(-radius_idx, radius_idx + 1):
        vcap = vmax - m1 * m1
        v = np.arange(vcap + 1)
        fvals = profile(h2 * (m1 * m1 + v))
        dist2 = (x1 - grid.h * m1) ** 2 + h2 * v
        terms = counts[: vcap + 1] * fvals * phi2M(n, M, np.sqrt(dist2) / scale)
        partials.append(float(np.sum(terms)))
    return math.fsum(partials)


def direct_cubature(f_samples, grid: GridSpec, M, x, n) -> PotentialSample:
    """Full lattice-sum cubature of the potential; the oracle for the tensor engine.

    ``f_samples`` is either an n-dimensional array of samples on a centred
    box (every axis of odd length, index 0 at its centre: entry i is f(h m)
    with m = i - shape // 2) or a callable profile of the squared radius,
    f(x) = profile(|x|^2), taking an ndarray (dense radial densities, summed
    shell by shell at axis-aligned points).  The value is

        (h sqrt(delta))^4 / (pi delta)^{n/2} * sum_m f(hm) Phi_2M((x - hm)/(h sqrt(delta)))
    """
    n = dim_value(n)
    M = order_value(M)
    if n > MAX_DIRECT_DIM:
        raise DimensionTooLarge(
            f"direct cubature is capped at n <= {MAX_DIRECT_DIM}, got n = {n}")
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"evaluation point must have {n} coordinates")
    if callable(f_samples):
        total = _direct_radial(f_samples, grid, n, M, x)
    else:
        total = _direct_dense(np.asarray(f_samples, dtype=float), grid, n, M, x)
    prefactor = (grid.h * math.sqrt(grid.delta)) ** 4 / (math.pi * grid.delta) ** (0.5 * n)
    return PotentialSample(
        point=tuple(float(c) for c in x),
        value=prefactor * total,
        method="direct",
        M=M,
        h=grid.h,
        delta=grid.delta,
    )
