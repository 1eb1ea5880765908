"""Closed-form potentials of the radial generating functions and a
direct-summation cubature oracle over an array of samples for small
dimensions.

phi2 is the potential of a unit Gaussian; phi2M extends it to the radial
Laguerre-weighted basis of order 2M through the incomplete-gamma ladder.
Both take a 0-d radius (a Python or numpy number, a 0-d array), which they
evaluate as a Python float by the one branch it falls in and return as a
float, or an array, over which they are vectorised since the direct
cubature evaluates them on multi-million-point lattices.  Each branch is one
body for both (specfun._branches): basic arithmetic rounds alike on floats
and arrays, the transcendental steps are numpy ufuncs, whose float calls
round as their array loops do, or specfun's functions, so a scalar and an
array call agree bit for bit.  Past r = 3.4e153, where the formulas' r^2
terms overflow, each profile is its leading term in r; at r = inf its limit.
"""

from __future__ import annotations

import functools
import math
import sys
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

# caps of the direct lattice sum: the space dimension and the number of samples
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


# 2/sqrt(pi), the limit of erf(r)/r at r = 0
_ERF_SLOPE = 2.0 / math.sqrt(math.pi)


def _least_root(bound: float) -> float:
    """The least double r whose rounded square r * r reaches bound."""
    r = math.sqrt(min(bound, sys.float_info.max))
    while r * r < bound:
        r = math.nextafter(r, math.inf)
    below = math.nextafter(r, 0.0)
    while below * below >= bound:
        r, below = below, math.nextafter(below, 0.0)
    return r


# the profiles' formulas in x = r^2 overflow from these radii on: 2 x
# (n = 3) from r = 9.5e153, 16 x (n >= 5) from 3.4e153 and x itself (n = 4)
# from 1.35e154.  From there on each profile is its leading term in r, to
# the last bit; comparing r, not x, keeps the split itself from overflowing
_DIM3_FAR = _least_root(2.0 ** 1023)
_GENERAL_FAR = _least_root(2.0 ** 1020)
_SQUARE_INF = _least_root(math.inf)


def _phi2_dim3(r):
    # -e^{-r^2}/8 - sqrt(pi) (2r^2+1) erf(r) / (16 r); past r = 9.5e153,
    # where 2r^2 overflows, e^{-r^2} = 0, erf(r) = 1 and 1/(2r^2) is below
    # an ulp: -sqrt(pi) r / 8, -inf at r = inf
    return specfun._branches(r, r >= _DIM3_FAR, lambda r: -(math.sqrt(math.pi) / 8.0) * r,
                             _dim3_closed)


def _dim3_closed(r):
    # erf(r)/r -> 2/sqrt(pi) at 0
    ratio = specfun._branches(r, r > 0.0, lambda r: specfun.erf(r) / r, lambda r: _ERF_SLOPE)
    return -np.exp(-r * r) / 8.0 - math.sqrt(math.pi) / 16.0 * (2.0 * r * r + 1.0) * ratio


def _phi2_dim4(r):
    return specfun._branches(r, r <= _SERIES_RADIUS, _dim4_series, _dim4_log)


def _dim4_series(r):
    x = r * r
    # (gamma - 1)/16 + (1/16) sum_k (-1)^k x^k (1/(k k!) - 1/(k+1)!)
    acc = specfun._EULER_GAMMA - 1.0
    xk = 1.0
    sign = 1.0
    fact = 1.0  # k!
    for k in range(1, 15):
        xk = xk * x
        sign = -sign
        fact *= k
        acc = acc + sign * xk * (1.0 / (k * fact) - 1.0 / (fact * (k + 1)))
    return acc / 16.0


def _dim4_log(r):
    # (expm1(-x)/x - log x - E1(x)) / 16 with x = r^2; where x overflows
    # (r >= 1.35e154) only -log(x)/16 = -log(r)/8 is left, -inf at r = inf
    return specfun._branches(r, r >= _SQUARE_INF, lambda r: np.log(r) / -8.0, _dim4_closed)


def _dim4_closed(r):
    x = r * r
    return (np.expm1(-x) / x - np.log(x) - specfun.exp1(x)) / 16.0


def _phi2_series(c: float, x: float) -> float:
    # 1F1(2; c; x) by its positive terms; e^{-x} times it is cancellation-free
    term = total = 1.0
    k = 0.0
    while term > 1e-17 * total:
        term = term * x * (k + 2.0) / ((c + k) * (k + 1.0))
        total += term
        k += 1.0
    return total


def _phi2_general(n: int, r):
    # phi2 = 1F1(a; a+2; -x) / (16 a (a+1)) with a = (n-4)/2 and x = r^2.
    # Up to x = a it is e^{-x} 1F1(2; a+2; x) / (16 a (a+1)) (Kummer's
    # transform), summed by its series.  Beyond, 1F1(a; a+2; -x) =
    # a (a+1) [g(a) - g(a+1)] with g(a) = gamma(a, x)/x^a, and
    # x g(a+1) = a g(a) - e^{-x} turns it into two positive terms.  From
    # x = 2^1020 on, where 16 x overflows, it is Gamma(a) r^-2a / 16 to the
    # last bit: a subnormal or 0 for n = 6, and 0 for every n > 6
    a = 0.5 * n - 2.0
    series = specfun._each(functools.partial(_phi2_series, a + 2.0))

    def low(r):
        x = r * r
        return np.exp(-x) * series(x) / (4.0 * (n - 2.0) * (n - 4.0))

    def high(r):
        x = r * r
        return (specfun.gamma_quotient(a, x) * (x - a) + np.exp(-x)) / (16.0 * x)

    def far(r):
        return math.gamma(a) / 16.0 * np.power(r, -a) * np.power(r, -a) if a <= 1.0 else 0.0

    return specfun._branches(
        r, r >= _GENERAL_FAR, far, lambda r: specfun._branches(r, r * r <= a, low, high))


def _radius(r):
    """r as an operand of the profiles (specfun._operand), refused when negative."""
    r = specfun._operand(r)
    if specfun._any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    return r


def phi2(n, r):
    """Potential of the unit Gaussian e^{-|x|^2} at radius r, for n >= 3.

    Explicit erf / E1 formulas for n in {3, 4}; the hypergeometric series
    and the incomplete-gamma route for n >= 5.  A 0-d r gives a float, any
    other r an array of its shape.
    """
    n = dim_value(n)
    r = _radius(r)
    if n == 3:
        return _phi2_dim3(r)
    if n == 4:
        return _phi2_dim4(r)
    return _phi2_general(n, r)


def phi2M(n, M, r):
    """Potential of the radial order-2M basis function at radius r.

    Ladder form: phi2 plus the incomplete-gamma correction plus the short
    Laguerre sum; M = 1 reduces exactly to phi2.
    """
    n = dim_value(n)
    M = order_value(M)
    if M == 1:
        return phi2(n, r)
    r = _radius(r)
    if isinstance(r, float):
        x = r * r
    else:
        # x is inf from r = 1.35e154 on, where both rungs are 0
        with np.errstate(over="ignore"):
            x = r * r
    a = 0.5 * n - 1.0
    out = phi2(n, r) + specfun.gamma_quotient(a, x) / 16.0
    if M >= 3:
        decay = np.exp(-x) / 16.0

        def ladder(x):
            total = 0.0
            for j in range(M - 2):
                total = total + specfun.gen_laguerre(j, a, x) / ((j + 1.0) * (j + 2.0))
            return total

        # where e^{-x} underflows every rung is 0; the Laguerre values, which
        # overflow at large x (from x = 1.9e154 for j = 2) and would give
        # 0 * inf = NaN, are not formed there
        out = out + decay * specfun._branches(x, decay == 0.0, lambda x: 0.0, ladder)
    return float(out) if isinstance(r, float) else out


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
    from .quad import _one_row_sum

    return _one_row_sum(terms.ravel())


def direct_cubature(f_samples, grid: GridSpec, M, x, n) -> PotentialSample:
    """Full lattice-sum cubature of the potential; the oracle for the tensor engine.

    ``f_samples`` is an n-dimensional array of samples on a centred box
    (every axis of odd length, index 0 at its centre: entry i is f(h m) with
    m = i - shape // 2) of at most OP_BUDGET samples.  The value is

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
        raise TypeError("direct_cubature takes an n-dimensional sample array, not a callable")
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
