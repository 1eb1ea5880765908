"""Tensor-product engine: 1-D convolutions, n-dim assembly, the symmetric
axis-point fast path, and the saturation estimate.

The heavyweight oracle is the direct lattice cubature from the kernels
module, which shares no summation code with the engine. The radial and
tensor generating functions coincide only at first order, so every
direct-vs-tensor comparison here is pinned at M = 1; higher orders are
validated through frozen accuracy anchors of the Gaussian test density and
through internal path equivalence.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm import engine
from biharm.engine import (IsotropicGaussianPolyDensity, SeparatedDensity,
                           build_test_density, conv1d, evaluate, evaluate_symmetric,
                           saturation_epsilon0, tensor_weight)
from biharm.errors import (QuadratureDivergence, RankBudgetExceeded,
                           SupportTruncated, UnsupportedDimension)
from biharm.kernels import GridSpec, direct_cubature
from biharm.quad import DEQuadrature, qm_poly


def _padded_random_vectors(rng, count, m_half):
    """Factor vectors with one exact-zero guard sample at each end."""
    vecs = []
    for _ in range(count):
        v = np.zeros(2 * m_half + 3)
        v[1:-1] = rng.uniform(0.5, 1.5, 2 * m_half + 1)
        vecs.append(v)
    return vecs, -(m_half + 1)


def _dense_samples(dens):
    """The separated density as one n-dimensional array on its centred box."""
    total = None
    for w, vecs in zip(dens.weights, dens.factors):
        term = np.asarray(w, dtype=float)
        for v in vecs:
            term = np.multiply.outer(term, v)
        total = term if total is None else total + term
    return total


# --- 1-D convolutions ---


def test_conv1d_zero_samples(rule):
    t = rule.arrays().t[80]
    assert conv1d(np.zeros(9), t, 5.0, 2, 0) == 0.0


def test_conv1d_unit_sample(rule):
    t = rule.arrays().t[120]
    samples = np.zeros(21)
    samples[10 + 3] = 1.0
    want = 1.0 / math.sqrt(math.pi * 5.0 * (1.0 + t))
    assert conv1d(samples, t, 5.0, 1, 3) == pytest.approx(want, rel=1e-15)


def test_conv1d_matches_brute_force(rule):
    h, D, k = 0.1, 5.0, 0
    m = np.arange(-65, 66)
    samples = np.exp(-(h * m) ** 2)
    for s in (40, 120, 260):
        t = float(rule.arrays().t[s])
        for M in (1, 3):
            got = conv1d(samples, t, D, M, k)
            brute = math.fsum(
                float(samples[i]) * math.exp(-(k - mi) ** 2 / (D * (1.0 + t)))
                * float(qm_poly(M, (k - mi) / math.sqrt(D), t))
                for i, mi in enumerate(m)) / math.sqrt(math.pi * D * (1.0 + t))
            assert got == pytest.approx(brute, rel=1e-14), (s, M)


def test_conv1d_index_origin(rule):
    t = rule.arrays().t[100]
    # zero ends keep the window legitimate for the truncation guard
    samples = np.zeros(13)
    samples[3:10] = np.exp(-np.linspace(-1.5, 1.5, 7) ** 2)
    centered = conv1d(samples, t, 5.0, 2, 1)
    explicit = conv1d(samples, t, 5.0, 2, 1, m_lo=-6)
    assert centered == explicit
    with pytest.raises(ValueError):
        conv1d(samples[:-1], t, 5.0, 2, 1)


def test_conv1d_flags_truncated_support(rule):
    # the window ends right at the kernel center, so the boundary term is
    # the largest one
    t = rule.arrays().t[100]
    with pytest.raises(SupportTruncated):
        conv1d(np.ones(11), t, 5.0, 1, 5)


# --- tensor assembly ---


def test_evaluate_rejects_bad_inputs():
    grid = GridSpec(0.1)
    dens = build_test_density(5, grid)
    with pytest.raises(UnsupportedDimension):
        evaluate(dens, [(0, 0, 0, 0)], 4, grid, 1)
    with pytest.raises(ValueError):
        evaluate(dens, [(0, 0, 0)], 5, grid, 1)
    with pytest.raises(ValueError):
        evaluate(dens, [(0, 0, 0)], 3, grid, 1)
    # dimensions, orders and indices must be whole numbers, not truncated
    with pytest.raises(ValueError):
        evaluate(dens, [(0, 0, 0, 0, 0)], 5.5, grid, 1)
    with pytest.raises(ValueError):
        evaluate(dens, [(0, 0, 0, 0, 0)], 5, grid, 2.5)
    with pytest.raises(ValueError):
        evaluate(dens, [(0, 0.5, 0, 0, 0)], 5, grid, 1)
    with pytest.raises(ValueError):
        tensor_weight((0, 0, 1.5, 0, 0), 1, 5.0)
    with pytest.raises(ValueError):
        evaluate_symmetric(IsotropicGaussianPolyDensity(1.0, 0.0, 0.0, 5), 0.5, grid, 1)
    with pytest.raises(ValueError):
        saturation_epsilon0(1, 5.0, 5.7)


def test_evaluate_accuracy_five_dims():
    # frozen: the order-8 error of the shipped test density at x = e_1 with
    # h = 1/20 measures 7.0e-9 under the default rule
    grid = GridSpec(1.0 / 20.0)
    dens = build_test_density(5, grid)
    value = evaluate(dens, [(20, 0, 0, 0, 0)], 5, grid, 4)[0].value
    err = abs(value - math.exp(-1.0))
    assert 3.5e-9 < err < 1.4e-8


def test_evaluate_accuracy_three_dims():
    # frozen: 2.36e-7 at x = (1,1,1) with h = 1/10; this pins the sign and
    # the derived constant of the three-dimensional assembly
    grid = GridSpec(1.0 / 10.0)
    dens = build_test_density(3, grid)
    value = evaluate(dens, [(10, 10, 10)], 3, grid, 4)[0].value
    err = abs(value - math.exp(-3.0))
    assert 1.2e-7 < err < 4.8e-7


def test_evaluate_matches_direct_cubature_five_dims():
    rng = np.random.default_rng(314)
    for h in (0.2, 0.1):
        grid = GridSpec(h)
        vecs, m_lo = _padded_random_vectors(rng, 5, 5)
        dens = SeparatedDensity((1.0,), (tuple(vecs),), m_lo)
        samples = _dense_samples(dens)
        points = [tuple(rng.integers(-3, 4, 5)) for _ in range(5)]
        got = evaluate(dens, points, 5, grid, 1)
        for pt, sample in zip(points, got):
            x = tuple(h * c for c in pt)
            want = direct_cubature(samples, grid, 1, x, 5).value
            assert sample.value == pytest.approx(want, rel=1e-10), pt


def test_evaluate_matches_direct_cubature_three_dims():
    # same cross-oracle for the separate n = 3 assembly
    grid = GridSpec(0.5)
    dens = build_test_density(3, grid)
    samples = _dense_samples(dens)
    for pt in ((1, 1, 1), (0, 0, 0), (2, -1, 0)):
        got = evaluate(dens, [pt], 3, grid, 1)[0].value
        want = direct_cubature(samples, grid, 1, tuple(0.5 * c for c in pt), 3).value
        assert got == pytest.approx(want, rel=1e-10), pt


def test_evaluate_convergence_rates():
    # empirical orders h^{2M} on the test density before the error floor
    exact = math.exp(-1.0)
    for M in (1, 2, 3, 4):
        errs = []
        for h_inv in (10, 20, 40, 80):
            grid = GridSpec(1.0 / h_inv)
            dens = build_test_density(5, grid)
            value = evaluate(dens, [(h_inv, 0, 0, 0, 0)], 5, grid, M)[0].value
            errs.append(abs(value - exact))
        assert errs == sorted(errs, reverse=True)
        rates = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert abs(max(rates) - 2 * M) <= 0.15, (M, rates)


def test_evaluate_error_floor():
    # with the default shape parameter the order-8 error stalls below 5e-13
    # once h reaches 1/160, so the measured rate collapses
    exact = math.exp(-1.0)
    errs = []
    for h_inv in (80, 160):
        grid = GridSpec(1.0 / h_inv)
        dens = build_test_density(5, grid)
        value = evaluate(dens, [(h_inv, 0, 0, 0, 0)], 5, grid, 4)[0].value
        errs.append(abs(value - exact))
    assert errs[1] < 5e-13
    assert math.log2(errs[0] / errs[1]) < 7.5


def test_evaluate_permutation_and_sign_invariance():
    rng = np.random.default_rng(7)
    grid = GridSpec(0.1)
    vecs, m_lo = _padded_random_vectors(rng, 5, 5)
    dens = SeparatedDensity((1.0,), (tuple(vecs),), m_lo)
    pt = (2, 5, -3, 1, 0)
    base = evaluate(dens, [pt], 5, grid, 2)[0].value

    perm = (3, 0, 4, 1, 2)
    dens_p = SeparatedDensity((1.0,), (tuple(vecs[j] for j in perm),), m_lo)
    pt_p = tuple(pt[j] for j in perm)
    assert evaluate(dens_p, [pt_p], 5, grid, 2)[0].value == base

    flipped = list(vecs)
    flipped[2] = vecs[2][::-1].copy()
    dens_s = SeparatedDensity((1.0,), (tuple(flipped),), m_lo)
    pt_s = (2, 5, 3, 1, 0)
    assert evaluate(dens_s, [pt_s], 5, grid, 2)[0].value == base


def test_three_dims_long_rule_matches_default(rule):
    # a 500-node rule runs t past the binary64 range; those dead nodes must
    # add nothing (inf * 0 once made the n = 3 bracket NaN)
    long_rule = DEQuadrature(s_end=500)
    assert np.isinf(long_rule.arrays().t[-1])
    grid = GridSpec(1.0 / 20)
    dens = build_test_density(3, grid)
    points = [(20, 20, 20), (0, 5, -10)]
    want = evaluate(dens, points, 3, grid, 4, rule)
    got = evaluate(dens, points, 3, grid, 4, long_rule)
    for a, b in zip(got, want):
        assert a.value == pytest.approx(b.value, rel=1e-14)


def test_sigma_tables_built_once_per_offset(monkeypatch):
    # one _sigma_tables call serves every factor vector that shares an offset
    calls = []
    build = engine._sigma_tables

    def counted(vecs, m_lo, k, D, M, t, log1pt, with_r=False):
        calls.append((len(vecs), k, with_r))
        return build(vecs, m_lo, k, D, M, t, log1pt, with_r)

    monkeypatch.setattr(engine, "_sigma_tables", counted)
    engine._axis_sigma_tables.cache_clear()
    grid = GridSpec(0.1)
    for n in (5, 50, 5000):
        dens = IsotropicGaussianPolyDensity(*_test_density_coeffs(n), n)
        for M in (2, 4):
            evaluate_symmetric(dens, 10, grid, M)
    engine._axis_sigma_tables.cache_clear()
    # offsets 10 and 0 at two orders; all three factor vectors per call, no R
    assert sorted(calls) == [(3, 0, False)] * 2 + [(3, 10, False)] * 2

    calls.clear()
    dens = build_test_density(3, grid)
    points = [(10, 10, 0), (0, 10, 10), (3, -2, 10)]
    evaluate(dens, points, 3, grid, 4)
    pairs = {(id(vecs[j]), pt[j]) for vecs in dens.factors for pt in points
             for j in range(3)}
    assert len(calls) == len(pairs)
    assert all(count == 1 and with_r for count, _, with_r in calls)


def test_evaluate_flags_truncated_support():
    # sampling window cut at |x| = 2 while the density is still 1.8e-2 there
    grid = GridSpec(0.1, radius=2.0)
    dens = build_test_density(5, grid)
    with pytest.raises(SupportTruncated):
        evaluate(dens, [(18, 0, 0, 0, 0)], 5, grid, 4)


# --- symmetric axis-point fast path ---


def test_symmetric_requires_five_dims():
    dens = IsotropicGaussianPolyDensity(60.0, -80.0, 16.0, 3)
    with pytest.raises(UnsupportedDimension):
        evaluate_symmetric(dens, 0, GridSpec(0.1), 1)


def _test_density_coeffs(n):
    return 4.0 * n * (n + 2), -16.0 * (n + 2), 16.0


def test_symmetric_matches_generic_path():
    h = 0.1
    grid = GridSpec(h)
    for n in (5, 6, 8):
        dens_rank = build_test_density(n, grid)
        c0, c1, c2 = _test_density_coeffs(n)
        dens_iso = IsotropicGaussianPolyDensity(c0, c1, c2, n)
        for M in (2, 4):
            for k1 in (0, 10):
                point = (k1,) + (0,) * (n - 1)
                want = evaluate(dens_rank, [point], n, grid, M)[0].value
                got = evaluate_symmetric(dens_iso, k1, grid, M).value
                assert got == pytest.approx(want, rel=1e-12), (n, M, k1)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 8), M=st.integers(1, 4), k1=st.integers(-12, 12),
       coeffs=st.tuples(*[st.floats(0.1, 10.0)] * 3), sign=st.sampled_from((1.0, -1.0)))
def test_symmetric_matches_generic_path_on_random_densities(n, M, k1, coeffs, sign):
    # any isotropic e^{-|x|^2} (c0 + c1 |x|^2 + c2 |x|^4), expanded over the
    # factors {e^{-x^2}, x^2 e^{-x^2}, x^4 e^{-x^2}}; one-signed coefficients
    # keep the potential away from zero so the relative gate is meaningful
    c0, c1, c2 = (sign * c for c in coeffs)
    grid = GridSpec(0.2)
    m_lo, g0, g2, g4 = engine._gaussian_factor_vectors(grid)
    weights, factors = [c0], [(g0,) * n]
    for j in range(n):
        weights += [c1, c2]
        factors += [tuple(g2 if l == j else g0 for l in range(n)),
                    tuple(g4 if l == j else g0 for l in range(n))]
        for i in range(j):
            weights.append(2.0 * c2)
            factors.append(tuple(g2 if l in (i, j) else g0 for l in range(n)))
    dens = SeparatedDensity(tuple(weights), tuple(factors), m_lo)
    want = evaluate(dens, [(k1,) + (0,) * (n - 1)], n, grid, M)[0].value
    iso = IsotropicGaussianPolyDensity(c0, c1, c2, n)
    got = evaluate_symmetric(iso, k1, grid, M).value
    assert got == pytest.approx(want, rel=1e-12)


def test_symmetric_tables_shared_across_dimensions():
    # the axis sigma tables do not depend on n: a sweep over n reuses them,
    # and values from reused tables equal values from fresh ones bit for bit
    grid = GridSpec(0.05)
    dims = (5, 50, 10 ** 6)

    def value(n):
        dens = IsotropicGaussianPolyDensity(*_test_density_coeffs(n), n)
        return evaluate_symmetric(dens, 20, grid, 3).value

    engine._axis_sigma_tables.cache_clear()
    shared = [value(n) for n in dims]
    assert engine._axis_sigma_tables.cache_info().misses == 2
    fresh = []
    for n in dims:
        engine._axis_sigma_tables.cache_clear()
        fresh.append(value(n))
    assert shared == fresh
    tables = engine._axis_sigma_tables(grid, 3, 20, DEQuadrature())
    assert not any(table.flags.writeable for table in tables)


def test_short_rule_is_refused():
    # half the default node range stops while the integrand is still large:
    # the values would be ~100% wrong, so neither path may return them
    short = DEQuadrature(s_end=150)
    grid = GridSpec(1.0 / 20)
    for n, point in ((3, (20, 20, 20)), (5, (20, 0, 0, 0, 0))):
        dens = build_test_density(n, grid)
        with pytest.raises(QuadratureDivergence):
            evaluate(dens, [point], n, grid, 4, short)
    dens = IsotropicGaussianPolyDensity(*_test_density_coeffs(5), 5)
    with pytest.raises(QuadratureDivergence):
        evaluate_symmetric(dens, 20, grid, 4, short)


def test_symmetric_sample_metadata():
    c0, c1, c2 = _test_density_coeffs(6)
    dens = IsotropicGaussianPolyDensity(c0, c1, c2, 6)
    out = evaluate_symmetric(dens, 4, GridSpec(0.25), 2)
    assert out.point == (4,)
    assert out.method == "symmetric"
    assert out.M == 2
    assert out.h == 0.25


# --- saturation estimate ---


def _lattice_epsilon0(M, D, n, reach=3):
    # direct sum over the n-dim integer lattice without the tensor-product
    # factorization used by the implementation
    def g(m):
        y = math.pi ** 2 * D * m * m
        return math.exp(-y) * math.fsum(y ** k / math.factorial(k) for k in range(M))

    total = 0.0
    for nu in itertools.product(range(-reach, reach + 1), repeat=n):
        if any(nu):
            total += math.prod(g(m) for m in nu)
    return total


def test_saturation_epsilon0_matches_lattice_sum():
    for M in (1, 4):
        got = saturation_epsilon0(M, 5.0, 5)
        want = _lattice_epsilon0(M, 5.0, 5)
        assert got == pytest.approx(want, rel=1e-6), M
    assert saturation_epsilon0(1, 5.0, 5) < 1e-19


def test_saturation_epsilon0_one_dim_base_case():
    got = saturation_epsilon0(2, 5.0, 1)
    want = _lattice_epsilon0(2, 5.0, 1, reach=6)
    assert got == pytest.approx(want, rel=1e-12)


def test_saturation_epsilon0_vanishes_for_large_shape():
    assert saturation_epsilon0(1, 500.0, 5) == 0.0


# --- test density construction ---


def test_build_test_density_rank():
    grid = GridSpec(0.25)
    assert build_test_density(3, grid).rank == 10
    assert build_test_density(5, grid).rank == 21


def _point_value(dens, idx):
    lo = dens.m_lo
    return math.fsum(
        w * math.prod(float(v[i - lo]) for v, i in zip(vecs, idx))
        for w, vecs in zip(dens.weights, dens.factors))


def test_build_test_density_pointwise_values():
    grid = GridSpec(0.25)
    dens = build_test_density(5, grid)
    # 4 e^{-1} (n(n+2) - 4(n+2) + 4) at |x| = 1 for n = 5
    want = 4.0 * math.exp(-1.0) * (35.0 - 28.0 + 4.0)
    assert _point_value(dens, (4, 0, 0, 0, 0)) == pytest.approx(want, rel=1e-12)
    assert _point_value(dens, (0, 0, 0, 0, 0)) == pytest.approx(140.0, rel=1e-12)


def test_build_test_density_rank_budget(monkeypatch):
    grid = GridSpec(0.25)
    with pytest.raises(RankBudgetExceeded):
        build_test_density(65, grid)
    monkeypatch.setattr(engine, "RANK_DIM_CAP", 65)
    dens = build_test_density(65, grid)
    assert dens.rank == 1 + 65 + 65 + 65 * 64 // 2


def test_separated_density_validation():
    with pytest.raises(ValueError):
        SeparatedDensity((1.0,), ((np.ones(3), np.ones(4)),), 0)
    with pytest.raises(ValueError):
        SeparatedDensity((), (), 0)
    dens = SeparatedDensity((2.0,), ((np.ones(3), np.ones(3)),), -1)
    assert dens.rank == 1
    assert dens.ndim == 2
