"""Closed-form potentials of the radial generating functions and a
direct-summation cubature oracle for small dimensions.

phi2 is the potential of a unit Gaussian; phi2M extends it to the radial
Laguerre-weighted basis of order 2M through the incomplete-gamma ladder.
Both are vectorized over the radius argument since the direct cubature
evaluates them on multi-million-point lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as _sp

from .errors import DimensionTooLarge, NonConvergence
from . import specfun

__all__ = [
    "GridSpec",
    "PotentialSample",
    "RadialProfile",
    "phi2",
    "phi2M",
    "direct_cubature",
]

_EULER_GAMMA = float(np.euler_gamma)

# Below this radius the removable-singularity formulas switch to series forms.
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
        if not self.h > 0.0:
            raise ValueError("grid step h must be positive")
        if not self.delta > 0.0:
            raise ValueError("shape parameter delta must be positive")
        if not self.radius > 0.0:
            raise ValueError("truncation radius must be positive")


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


@dataclass(frozen=True)
class RadialProfile:
    """Radial density given by a profile of the squared radius: f(x) = profile(|x|^2).

    The profile callable must accept an ndarray of squared radii."""

    profile: Callable[[np.ndarray], np.ndarray]


def dim_value(n) -> int:
    n = int(n)
    if n < 3:
        raise ValueError("dimension must be at least 3")
    return n


def order_value(M) -> int:
    M = int(M)
    if M < 1:
        raise ValueError("basis order M must be at least 1")
    return M


def _phi2_dim3(r: np.ndarray) -> np.ndarray:
    # -e^{-r^2}/8 - sqrt(pi) (2r^2+1) erf(r) / (16 r); erf(r)/r -> 2/sqrt(pi) at 0
    ratio = np.full_like(r, 2.0 / math.sqrt(math.pi))
    pos = r > 0.0
    ratio[pos] = _sp.erf(r[pos]) / r[pos]
    return -np.exp(-r * r) / 8.0 - math.sqrt(math.pi) / 16.0 * (2.0 * r * r + 1.0) * ratio


def _phi2_dim4(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    small = r <= _SERIES_RADIUS
    x = r[small] ** 2
    # (gamma - 1)/16 + (1/16) sum_k (-1)^k x^k (1/(k k!) - 1/(k+1)!)
    acc = np.full_like(x, _EULER_GAMMA - 1.0)
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
    out[big] = (np.expm1(-x) / x - np.log(x) - _sp.exp1(x)) / 16.0
    return out


def _phi2_dim5(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    small = r <= _SERIES_RADIUS
    out[small] = _phi2_series(5, r[small])
    big = ~small
    rb = r[big]
    x = rb * rb
    out[big] = (
        np.exp(-x) / x + math.sqrt(math.pi) * _sp.erf(rb) * (2.0 * x - 1.0) / (2.0 * x * rb)
    ) / 16.0
    return out


def _phi2_dim6(r: np.ndarray) -> np.ndarray:
    out = np.empty_like(r)
    small = r <= _SERIES_RADIUS
    x = r[small] ** 2
    # sum_j (-1)^j x^j / (j+2)! / 16
    acc = np.full_like(x, 0.5)
    xk = np.ones_like(x)
    sign = 1.0
    fact = 2.0  # (j+2)!
    for j in range(1, 15):
        xk = xk * x
        sign = -sign
        fact *= j + 2
        acc += sign * xk / fact
    out[small] = acc / 16.0
    big = ~small
    x = r[big] ** 2
    out[big] = (np.expm1(-x) + x) / (16.0 * x * x)
    return out


def _phi2_series(n: int, r: np.ndarray, max_terms: int = 500) -> np.ndarray:
    # e^{-r^2}/(4(n-2)(n-4)) * 1F1(2, n/2, r^2); the transformed series has
    # positive terms only, so it is cancellation-free for every r.
    x = r * r
    c = 0.5 * n
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(max_terms):
        term = term * x * (k + 2.0) / ((c + k) * (k + 1.0))
        total += term
        if np.all(term <= 1e-17 * total):
            return np.exp(-x) * total / (4.0 * (n - 2.0) * (n - 4.0))
    raise NonConvergence(f"phi2 series for n={n} did not converge at r up to {x.max()}")


def phi2(n, r):
    """Potential of the unit Gaussian e^{-|x|^2} at radius r, for n >= 3.

    Explicit erf / E1 / elementary formulas for n in {3, 4, 5, 6}; the
    hypergeometric route for general n >= 5.  Accepts scalar or ndarray r.
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
    elif n == 5:
        out = _phi2_dim5(r)
    elif n == 6:
        out = _phi2_dim6(r)
    else:
        out = _phi2_series(n, r)
    return float(out[0]) if scalar else out


def _gamma_quotient(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized quotient gamma(a, x) / x^a, continuous at x = 0 (value 1/a)."""
    out = np.empty_like(x)
    small = x <= 0.25
    xs = x[small]
    # sum_k (-1)^k x^k / (k! (a+k))
    acc = np.full_like(xs, 1.0 / a)
    xk = np.ones_like(xs)
    sign = 1.0
    fact = 1.0
    for k in range(1, 17):
        xk = xk * xs
        sign = -sign
        fact *= k
        acc += sign * xk / (fact * (a + k))
    out[small] = acc
    big = ~small
    xb = x[big]
    out[big] = _sp.gammainc(a, xb) * np.exp(_sp.gammaln(a) - a * np.log(xb))
    return out


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
    out = phi2(n, r) + _gamma_quotient(a, x) / 16.0
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
    # squared distances |x - h m|^2 by per-axis broadcasting
    dist2 = 0.0
    for axis, length in enumerate(samples.shape):
        m = np.arange(-(length // 2), length // 2 + 1, dtype=float)
        shape = [1] * n
        shape[axis] = length
        dist2 = dist2 + ((x[axis] - grid.h * m) ** 2).reshape(shape)
    scaled = np.sqrt(dist2) / (grid.h * math.sqrt(grid.delta))
    terms = samples * phi2M(n, M, scaled)
    # exactly rounded, so independent of the term order: bitwise invariant
    # under permutations and sign flips of the coordinates
    return math.fsum(terms.ravel())


def _direct_radial(density: RadialProfile, grid: GridSpec, n: int, M: int,
                   x: np.ndarray) -> float:
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
        fvals = density.profile(h2 * (m1 * m1 + v))
        dist2 = (x1 - grid.h * m1) ** 2 + h2 * v
        terms = counts[: vcap + 1] * fvals * phi2M(n, M, np.sqrt(dist2) / scale)
        partials.append(float(np.sum(terms)))
    return math.fsum(partials)


def direct_cubature(f_samples, grid: GridSpec, M, x, n) -> PotentialSample:
    """Full lattice-sum cubature of the potential; the oracle for the tensor engine.

    ``f_samples`` is either an n-dimensional array of samples on a centred
    box (every axis of odd length, index 0 at its centre: entry i is f(h m)
    with m = i - shape // 2) or a :class:`RadialProfile` (dense radial
    densities, summed shell-by-shell at axis-aligned points).  The value is

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
    if isinstance(f_samples, RadialProfile):
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
