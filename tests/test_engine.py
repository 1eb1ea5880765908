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
import sys
import threading
import tracemalloc
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biharm import engine, quad
from biharm.engine import (IsotropicGaussianPolyDensity, SeparatedDensity,
                           build_test_density, evaluate, evaluate_symmetric,
                           gaussian_potential_density, saturation_epsilon0,
                           separated_expansion, tensor_weight)
from biharm.errors import (QuadratureDivergence, RankBudgetExceeded,
                           SupportTruncated, UnsupportedDimension)
from biharm.kernels import GridSpec, direct_cubature
from biharm.quad import DEFAULT_RULE, DEQuadrature, qm_poly


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


def _conv(samples, k, m_lo, D, M, rule):
    """The normalized convolution sum of one vector at offset k, per node."""
    [(table,)] = engine._sigma_tables([(samples, k)], m_lo, D, M, rule)
    return table


def test_conv1d_zero_samples(rule):
    assert np.all(_conv(np.zeros(9), 0, -4, 5.0, 2, rule) == 0.0)


def test_conv1d_unit_sample(rule):
    t = rule.arrays().t[120]
    samples = np.zeros(21)
    samples[10 + 3] = 1.0
    want = 1.0 / math.sqrt(math.pi * 5.0 * (1.0 + t))
    assert _conv(samples, 3, -10, 5.0, 1, rule)[120] == pytest.approx(want, rel=1e-15)


def test_conv1d_matches_brute_force(rule):
    h, D, k = 0.1, 5.0, 0
    m = np.arange(-65, 66)
    samples = np.exp(-(h * m) ** 2)
    for M in (1, 3):
        table = _conv(samples, k, -65, D, M, rule)
        for s in (40, 120, 260):
            t = float(rule.arrays().t[s])
            brute = math.fsum(
                float(samples[i]) * math.exp(-(k - mi) ** 2 / (D * (1.0 + t)))
                * float(qm_poly(M, (k - mi) / math.sqrt(D), t))
                for i, mi in enumerate(m)) / math.sqrt(math.pi * D * (1.0 + t))
            assert table[s] == pytest.approx(brute, rel=1e-14), (s, M)


def test_conv1d_index_origin(rule):
    # the table depends on the offset relative to the window start only
    samples = np.zeros(13)
    samples[3:10] = np.exp(-np.linspace(-1.5, 1.5, 7) ** 2)
    centered = _conv(samples, 1, -6, 5.0, 2, rule)
    # the table cache keys on k - m_lo, so empty it to build the second anew
    engine._ROW_BLOCKS.clear()
    shifted = _conv(samples, 7, 0, 5.0, 2, rule)
    assert centered.tobytes() == shifted.tobytes()


def test_conv1d_flags_truncated_support(rule):
    # the window ends right at the kernel center, so the boundary term is
    # the largest one
    with pytest.raises(SupportTruncated):
        _conv(np.ones(11), 5, -5, 5.0, 1, rule)


@settings(max_examples=40, deadline=None)
@given(d=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8),
       D=st.floats(0.5, 20.0), M=st.integers(1, 4))
def test_kernel_rows_are_even_in_the_offset(d, D, M):
    # the row cache stores |d| only: the Gaussian, Q_M and R_M rows at -d must
    # be those at +d bit for bit
    d = np.array(d, dtype=float)
    rule = DEQuadrature()
    assert engine._gauss_block(d, D, rule).tobytes() == engine._gauss_block(-d, D, rule).tobytes()
    for plus, minus in zip(engine._poly_rows(d, D, M, rule, True),
                           engine._poly_rows(-d, D, M, rule, True)):
        assert plus.tobytes() == minus.tobytes()


# --- tensor assembly ---


def test_evaluate_rejects_bad_inputs():
    grid = GridSpec(0.1)
    dens = build_test_density(5, grid)
    with pytest.raises(UnsupportedDimension):
        evaluate(dens, [(0, 0, 0, 0)], 4, grid, 1)
    with pytest.raises(UnsupportedDimension):
        tensor_weight((0,) * 4, 1, 5.0)
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
    # an infinite shape parameter is refused, not summed to 0.0
    with pytest.raises(ValueError, match="finite"):
        tensor_weight((0,) * 5, 1, math.inf)


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
    # a 500-node rule runs t past the binary64 range at its far nodes; its
    # table ends before them, and the n = 3 bracket over the nodes it keeps
    # must agree with the default rule's
    long_rule = DEQuadrature(s_end=500)
    assert long_rule.node_count == 376
    grid = GridSpec(1.0 / 20)
    dens = build_test_density(3, grid)
    points = [(20, 20, 20), (0, 5, -10)]
    want = evaluate(dens, points, 3, grid, 4, rule)
    got = evaluate(dens, points, 3, grid, 4, long_rule)
    for a, b in zip(got, want):
        assert a.value == pytest.approx(b.value, rel=1e-14)


def test_long_rule_matches_default(rule):
    # the n >= 5 products over the long rule's kept nodes must agree with
    # the default rule's, and a batch must equal its one-point calls
    long_rule = DEQuadrature(s_end=500)
    grid = GridSpec(1.0 / 20)
    dens = build_test_density(5, grid)
    points = [(20, 20, 20, 0, -4), (0, 5, -10, 3, 3), (1, -1, 0, 2, 7)]
    want = evaluate(dens, points, 5, grid, 4, rule)
    got = evaluate(dens, points, 5, grid, 4, long_rule)
    for point, a, b in zip(points, got, want):
        assert a.value == pytest.approx(b.value, rel=1e-14)
        assert a.value == evaluate(dens, [point], 5, grid, 4, long_rule)[0].value


def test_products_match_symmetric_path_at_large_n(rule):
    # every n >= 5 forms its per-node contributions as plain n-fold products;
    # on e^{-|x|^2} as a rank-1 product of e^{-x_j^2} factors they must agree
    # with the symmetric path's log-domain collapse far past n = 1000, where
    # a log sum of the factors was off by up to 2.4e-12 at n = 5000
    grid = GridSpec(0.1)
    m_lo, g0, _, _ = engine._gaussian_factor_vectors(grid)
    for n, M in itertools.product((1001, 5000), (1, 4)):
        dens = SeparatedDensity((1.0,), ((g0,) * n,), m_lo)
        [got] = evaluate(dens, [(10,) + (0,) * (n - 1)], n, grid, M, rule)
        want = evaluate_symmetric(IsotropicGaussianPolyDensity(1.0, 0.0, 0.0, n),
                                  10, grid, M, rule)
        # relative: pytest.approx's default absolute tolerance of 1e-12
        # would pass any pair of values as small as these (down to 4.5e-62)
        assert abs(got.value / want.value - 1.0) < 1e-13
    # a batch equals its one-point calls
    n = 1001
    dens = SeparatedDensity((1.0,), ((g0,) * n,), m_lo)
    points = [(10,) + (0,) * (n - 1), (0,) * n, (3, -5) + (1,) * (n - 2)]
    batch = evaluate(dens, points, n, grid, 2, rule)
    for point, sample in zip(points, batch):
        assert sample.value == evaluate(dens, [point], n, grid, 2, rule)[0].value


def _empty_caches():
    """Empty the kernel row and sigma table cache and the axis node and
    factor vector caches."""
    engine._ROW_BLOCKS.clear()
    engine._axis_nodes.cache_clear()
    engine._axis_vectors.cache_clear()


def _check_banded(keys, blocks):
    """Check one build's blocks: _BLOCK rows each, all of one width, each
    the rows 1.._BLOCK of a base with one pad row at each end.  A Gaussian
    block holds the block's rows from its first live column on: every row is
    exactly zero before it and, unless it is capped two columns before the
    end, some row is nonzero at it; its pads are scratch.  Q_M and R_M pads
    hold 1.0 and their bases are read-only."""
    widths = set()
    for key, block in zip(keys, blocks):
        if key[0] == "gauss":
            _, D, rule, b = key
            full = _gauss_rows(b * engine._BLOCK + np.arange(engine._BLOCK, dtype=float),
                               D, rule)
            c0 = rule.node_count - block.shape[1]
            assert not full[:, :c0].any()
            assert full[:, c0].any() or c0 == rule.node_count - 2
            assert block.tobytes() == full[:, c0:].tobytes()
        else:
            assert np.all(block.base[[0, -1]] == 1.0)
            assert not block.base.flags.writeable
        assert len(block) == engine._BLOCK and len(block.base) == engine._BLOCK + 2
        assert block.base[1:-1].tobytes() == block.tobytes()
        widths.add(block.shape[1])
    assert len(widths) == 1


@pytest.fixture
def row_blocks(monkeypatch):
    """Start from empty kernel row and sigma table caches and record the key
    of every block stored, checking that a build happens only when one of its
    blocks is missing and that every block has the banded layout."""
    _empty_caches()
    builds = []
    row_block = engine._row_block

    def counted(keys, build):
        def logged():
            missing = [key for key in keys if key not in engine._ROW_BLOCKS._entries]
            assert missing
            builds.extend(missing)
            blocks = build()
            assert len(blocks) == len(keys)
            _check_banded(keys, blocks)
            return blocks
        return row_block(keys, logged)

    monkeypatch.setattr(engine, "_row_block", counted)
    yield builds
    _empty_caches()


def _held_bytes():
    """The cache's running byte total, checked against its entries: each
    holds one read-only array, counted as the bytes of the array its view
    fills (a kernel block's padded base) plus, for a sigma table, the sample
    bytes in its key."""
    cache = engine._ROW_BLOCKS
    for key, (value, size) in cache._entries.items():
        owner = value if value.base is None else value.base
        assert size == owner.nbytes + (len(key[2]) if _is_table_key(key) else 0)
        assert not value.flags.writeable
    assert cache.nbytes == sum(size for _, size in cache._entries.values())
    return cache.nbytes


def _is_table_key(key):
    """Whether a cache key is a sigma table's (Q or R, dtype, sample bytes,
    k - m_lo, D, M, rule) rather than a kernel block's."""
    return isinstance(key[2], bytes)


def test_sigma_tables_built_once_per_offset(row_blocks):
    # kernel row blocks do not depend on h, n, the offset or the call: a sweep
    # over two grids, two orders and three dimensions builds each block of
    # |d| <= 130 + 20 (blocks 0 and 1) once, the Gaussian ones shared by both orders
    rule = DEQuadrature()
    assert 130 + 20 < 2 * engine._BLOCK
    for grid, k1 in ((GridSpec(0.1), 10), (GridSpec(0.05), 20)):
        for n in (5, 50, 5000):
            dens = gaussian_potential_density(n)
            for M in (2, 4):
                evaluate_symmetric(dens, k1, grid, M, rule)
    assert sorted(row_blocks, key=repr) == sorted(
        [("gauss", 5.0, rule, b) for b in (0, 1)]
        + [("Q", 5.0, M, rule, b) for M in (2, 4) for b in (0, 1)], key=repr)

    # the n = 3 tensor path reads Q and R blocks; Q is the block the n >= 5
    # paths use, so two n = 3 calls after the sweep build one R block in all
    row_blocks.clear()
    grid = GridSpec(0.1)
    points = [(10, 10, 0), (0, 10, 10), (3, -2, 10)]
    for _ in range(2):
        evaluate(build_test_density(3, grid), points, 3, grid, 4, rule)
    assert row_blocks == [("R", 5.0, 4, rule, 0)]
    assert _held_bytes() <= engine._CACHE_BYTES

    # and the other way round: after an n = 3 call has stored Q and R, the
    # n = 5 path builds nothing
    _empty_caches()
    row_blocks.clear()
    evaluate(build_test_density(3, grid), points, 3, grid, 4, rule)
    assert sorted(row_blocks, key=repr) == sorted(
        [("gauss", 5.0, rule, 0), ("Q", 5.0, 4, rule, 0), ("R", 5.0, 4, rule, 0)], key=repr)
    evaluate(build_test_density(5, grid), [(10, 0, 10, -3, 2)], 5, grid, 4, rule)
    assert len(row_blocks) == 3


@settings(max_examples=20, deadline=None)
@given(d=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=8),
       D=st.floats(0.5, 20.0))
def test_q_rows_do_not_depend_on_r(d, D):
    # the n = 3 path stores the Q rows of its Q-and-R pass under the Q-only
    # key, so they must equal the Q-only rows bit for bit
    d = np.array(d, dtype=float)
    rule = DEQuadrature()
    for M in (1, 2, 3, 4):
        q, _ = engine._poly_rows(d, D, M, rule, True)
        (q_only,) = engine._poly_rows(d, D, M, rule, False)
        assert q.tobytes() == q_only.tobytes(), M


def _positive_density(n, grid):
    """e^{-|x|^2} (1 + x_1^2 + x_n^4): its terms do not cancel, so the
    potential stays far above the rounding noise of the node sums."""
    m_lo, g0, g2, g4 = engine._gaussian_factor_vectors(grid)
    factors = ((g0,) * n, (g2,) + (g0,) * (n - 1), (g0,) * (n - 1) + (g4,))
    return SeparatedDensity((1.0, 1.0, 1.0), factors, m_lo)


def test_far_apart_batch_keeps_tables_small(row_blocks, monkeypatch):
    # offsets 10^5 apart read only the blocks around |d| = 0 and 10^5, each
    # of _BLOCK rows, those near 10^5 only from their first live node column
    # on (past column 200); under a bound of three full-width blocks, plus
    # room for the batch's 10 distinct sigma tables, each counted with the
    # samples of its vector (65), the cache evicts, stays within the bound,
    # and the batch still gives the values of one-point calls
    rule = DEQuadrature()
    block_bytes = engine._BLOCK * rule.node_count * 8
    table_bytes = 10 * (rule.node_count + 65) * 8
    monkeypatch.setattr(engine, "_CACHE_BYTES", 3 * block_bytes + table_bytes)
    grid = GridSpec(0.2)
    # at n = 6 the rule still resolves the far-field potential
    dens = _positive_density(6, grid)
    points = [(0, 3, -2, 0, 1, 0), (10 ** 5, 10 ** 5 + 7, 0, 0, 10 ** 5 - 5, 0)]
    batch = evaluate(dens, points, 6, grid, 3, rule)
    # |d| <= 32 + 7 and 10^5 - 5 - 32 <= |d| <= 10^5 + 7 + 32: blocks 0, 780, 781
    assert sorted(row_blocks, key=repr) == sorted(
        [("gauss", 5.0, rule, b) for b in (0, 780, 781)]
        + [("Q", 5.0, 3, rule, b) for b in (0, 780, 781)], key=repr)
    assert not all(key in engine._ROW_BLOCKS._entries for key in row_blocks)
    assert _held_bytes() <= engine._CACHE_BYTES
    for point, sample in zip(points, batch):
        assert sample.value == evaluate(dens, [point], 6, grid, 3, rule)[0].value
        assert _held_bytes() <= engine._CACHE_BYTES


@pytest.fixture
def sigma_calls(row_blocks, monkeypatch):
    """Count the sigma table builds (engine._sigma calls), on top of
    row_blocks."""
    calls = []
    sigma = engine._sigma

    def counted(vec, *args):
        calls.append(vec)
        return sigma(vec, *args)

    monkeypatch.setattr(engine, "_sigma", counted)
    return calls


@pytest.mark.parametrize("n", (3, 5))
def test_repeat_calls_read_cached_tables(n, row_blocks, sigma_calls):
    # a second call, on the same density or on a byte-equal copy of it,
    # builds no table and no block and gives the cold call's values bit for bit
    grid = GridSpec(0.1)
    dens = build_test_density(n, grid)
    points = [(10,) + (0,) * (n - 1), tuple(range(-1, n - 1)), (3,) * n]
    cold = [s.value for s in evaluate(dens, points, n, grid, 4)]
    assert sigma_calls and row_blocks
    copy = SeparatedDensity(dens.weights, tuple(tuple(v.copy() for v in term)
                                                for term in dens.factors), dens.m_lo)
    for again in (dens, copy):
        sigma_calls.clear()
        row_blocks.clear()
        assert [s.value for s in evaluate(again, points, n, grid, 4)] == cold
        assert sigma_calls == [] and row_blocks == []
        assert _held_bytes() <= engine._CACHE_BYTES


def test_edited_samples_miss_the_table_cache(row_blocks, sigma_calls):
    # an in-place edit of a sample array changes the key of its tables: the
    # next call builds them again and gives the value of a cold call
    grid = GridSpec(0.2)
    dens = _positive_density(5, grid)
    point = [(2, 0, -1, 0, 3)]
    before = evaluate(dens, point, 5, grid, 3)[0].value
    dens.factors[1][0][40] *= 1.5
    sigma_calls.clear()
    edited = evaluate(dens, point, 5, grid, 3)[0].value
    assert sigma_calls and all(vec is dens.factors[1][0] for vec in sigma_calls)
    assert edited != before
    _empty_caches()
    assert edited == evaluate(dens, point, 5, grid, 3)[0].value


def test_refused_tables_are_not_cached(row_blocks, sigma_calls):
    # a table that fails its support check is never stored: every repeat call
    # builds it again and is refused again
    grid = GridSpec(0.1, radius=2.0)
    dens = build_test_density(5, grid)
    for _ in range(3):
        sigma_calls.clear()
        with pytest.raises(SupportTruncated):
            evaluate(dens, [(18, 0, 0, 0, 0)], 5, grid, 4)
        assert sigma_calls
        assert _held_bytes() <= engine._CACHE_BYTES


def test_table_cache_stays_within_its_bound(sigma_calls, monkeypatch):
    # under a bound of two kernel blocks and room for 20 of the 54 distinct
    # tables, repeated calls over many offsets evict tables and build them again,
    # the running total stays within the bound after every call, and the
    # values are those of an unbounded cache
    rule = DEQuadrature()
    grid = GridSpec(0.1)
    dens = build_test_density(5, grid)
    points = [(k, -k, k // 2, 0, 1) for k in range(-20, 21, 4)]
    want = [evaluate(dens, [point], 5, grid, 4, rule)[0].value for point in points]
    table_bytes = (rule.node_count + len(dens.factors[0][0])) * 8
    _empty_caches()
    monkeypatch.setattr(engine, "_CACHE_BYTES",
                        2 * engine._BLOCK * rule.node_count * 8 + 20 * table_bytes)
    for _ in range(2):
        sigma_calls.clear()
        for point, value in zip(points, want):
            assert evaluate(dens, [point], 5, grid, 4, rule)[0].value == value
            assert _held_bytes() <= engine._CACHE_BYTES
        assert sigma_calls


def test_large_vectors_keep_no_tables(sigma_calls, row_blocks, monkeypatch):
    # a vector above _VECTOR_BYTES stores no table: a repeat call builds its
    # tables again but no kernel block, and gives the same values
    grid = GridSpec(0.1)
    dens = _positive_density(5, grid)
    monkeypatch.setattr(engine, "_VECTOR_BYTES", dens.factors[0][0].nbytes - 8)
    points = [(2, 0, -1, 0, 3), (0, 0, 0, 0, 0)]
    cold = [s.value for s in evaluate(dens, points, 5, grid, 3)]
    assert row_blocks
    sigma_calls.clear()
    row_blocks.clear()
    assert [s.value for s in evaluate(dens, points, 5, grid, 3)] == cold
    assert sigma_calls and row_blocks == []
    assert not any(_is_table_key(key) for key in engine._ROW_BLOCKS._entries)
    _held_bytes()


def test_table_4_working_set_is_banded():
    # Tables 2 and 4 (M = 4..1) from empty caches keep no Q block of order 1,
    # since Q_1 = 1; Table 4 (n = 3) keeps its R_1 blocks.  After Table 4
    # (Q and R blocks, h down to 1/160) the cache holds 11.74 MiB: 27.4 MiB
    # with full-width blocks, 13.08 MiB with ten blocks of Q_1 as well; the
    # count is exact, so it does not vary between runs
    from biharm import cli

    for table in ("2", "4"):
        _empty_caches()
        cli.run_table(cli.RunConfig(table=table, dims=cli._TABLE_DIMS[table],
                                    orders=cli._TABLE_ORDERS[table],
                                    steps=cli._TABLE_STEPS[table]))
        orders = {key[:3] for key in engine._ROW_BLOCKS._entries if not _is_table_key(key)}
        assert ("Q", 5.0, 1) not in orders and ("Q", 5.0, 2) in orders
        assert (("R", 5.0, 1) in orders) == (table == "4")
    assert _held_bytes() < 12 * 2 ** 20
    _empty_caches()


def test_block_builds_hold_one_piece_of_temporaries():
    # a full Gaussian block and a Q_4 + R_4 block are built in row pieces
    # straight into their stored arrays, in a new thread, so that _node_polys
    # makes its piece buffers too: the peak holds the stored arrays, its
    # seven work buffers, sqrt(1 + t) and c_1..c_3 at piece shape, and one
    # piece for the small arrays and objects around them; no full-size
    # temporary and no ufunc buffer (np.getbufsize() values per broadcast
    # operand)
    _empty_caches()
    tracemalloc.start()
    try:
        build = threading.Thread(target=engine._kernel_runs,
                                 args=(0, 1, 5.0, 4, DEFAULT_RULE, True))
        build.start()
        build.join(timeout=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not build.is_alive()
    stored = engine._ROW_BLOCKS.nbytes
    assert stored == 3 * (engine._BLOCK + 2) * DEFAULT_RULE.node_count * 8
    piece = quad._BUILD_VALUES * 8
    assert peak < stored + (7 + 4 + 1) * piece, (peak - stored) / piece
    _empty_caches()


def test_byte_lru_counts_only_held_values(monkeypatch):
    # an evicted value is no longer counted, even once an equal key holds a
    # new value; an entry larger than the bound evicts everything, itself too
    monkeypatch.setattr(engine, "_CACHE_BYTES", 100)
    cache = engine._ByteLRU()
    new = []
    cache.put("a", [], 60)
    cache.put("b", [], 30)
    cache.put("c", [], 30)
    assert "a" not in cache._entries and cache.nbytes == 60
    cache.put("a", new, 10)
    assert cache.nbytes == 70 and cache.get("a") is new
    cache.put("d", [], 101)
    assert cache.nbytes == 0 and "d" not in cache._entries


def _full_width_terms(vec, runs, which, node_count):
    """The terms vec[m] gauss[m] poly[m] of banded runs, with the exact zeros
    before each run's first live column written out; a run's views are led
    by the row read before its first, and None stands for poly = Q_1 = 1."""
    terms = np.zeros((len(vec), node_count))
    for rows, c, gauss, polys in runs:
        poly = 1.0 if polys[which] is None else polys[which][1:]
        terms[rows, c:] = vec[rows, None] * gauss[1:] * poly
    return terms


def _eager_support_refusal(vec, runs, which, node_count):
    """(refused, sums) by the eager rule: every |term| formed over all node
    columns and a column refused where its boundary term exceeds
    _SUPPORT_TOL max(|sum|, peak)."""
    terms = _full_width_terms(vec, runs, which, node_count)
    # a sum over axis 0 adds the rows in order, as _sigma's carried runs do
    sums = np.sum(terms, axis=0)
    mags = np.abs(terms)
    boundary = np.maximum(mags[0], mags[-1])
    scale = np.maximum(np.abs(sums), np.max(mags, axis=0))
    return bool(np.any(boundary > engine._SUPPORT_TOL * scale)), sums


@settings(max_examples=100, deadline=None)
@given(L=st.integers(1, 300), D=st.floats(0.5, 20.0), M=st.integers(1, 4),
       which=st.sampled_from((0, 1)), shape=st.sampled_from(("noise", "clipped", "cancel")),
       data=st.data())
def test_lazy_support_check_matches_eager_rule(L, D, M, which, shape, data):
    # _sigma forms the peak only for columns whose boundary term exceeds
    # _SUPPORT_TOL |sum|; it must refuse exactly where the eager rule does and
    # otherwise return the same sums bit for bit.  Clipped windows put a
    # Gaussian's tail anywhere from inside the tolerance to far above it.  A
    # "cancel" vector lies under a centred envelope that ends at 1e-28..1e-15
    # of its peak and is made orthogonal to one node's kernel column, so that
    # node's sum cancels below its boundary term while the peak stays large
    rule = DEQuadrature()
    d0 = data.draw(st.integers(-40, L + 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    runs = engine._kernel_runs(d0, L, D, M, rule, True)
    m = np.arange(L)
    if shape == "noise":
        vec = rng.normal(size=L)
    elif shape == "clipped":
        width = data.draw(st.floats(1.0, 60.0))
        vec = np.exp(-((m - rng.uniform(0, L)) / width) ** 2)
    else:
        half = max(L - 1, 1) / 2.0
        decades = data.draw(st.floats(15.0, 28.0))
        envelope = np.exp(-decades * math.log(10.0) * ((m - half) / half) ** 2)
        kernel = _full_width_terms(np.ones(L), runs, which, rule.node_count)
        column = kernel[:, data.draw(st.integers(0, rule.node_count - 1))]
        vec = envelope * rng.normal(size=L)
        basis = envelope * envelope
        if basis @ column != 0.0:
            vec -= (vec @ column) / (basis @ column) * basis
    refused, sums = _eager_support_refusal(vec, runs, which, rule.node_count)
    out = np.empty(rule.node_count)
    try:
        engine._sigma(vec, runs, which, np.ones(rule.node_count), out)
    except SupportTruncated:
        assert refused
    else:
        assert not refused
        assert out.tobytes() == sums.tobytes()


def _gauss_rows(d, D, rule):
    """e^{-d^2/(D(1+t_s))} for offsets d at every node of the rule."""
    inv = np.exp(-rule.arrays().log1pt) / D
    return np.exp(-(d * d)[:, None] * inv[None, :])


def _full_width_table(vec, k, m_lo, D, M, rule, which):
    """sigma_Q (which = 0) or sigma_R of one vector with no cache and no
    banding: the row-order sum of vec[m] gauss[m] poly[m] over all node
    columns, from kernel rows built at d = k - m directly."""
    d = (k - m_lo - np.arange(len(vec))).astype(float)
    terms = vec[:, None] * _gauss_rows(d, D, rule)
    terms *= engine._poly_rows(d, D, M, rule, True)[which]
    norm = np.exp(-0.5 * (math.log(math.pi * D) + rule.arrays().log1pt))
    return norm * np.sum(terms, axis=0)


def test_banded_tables_keep_every_bit(rule):
    # banded blocks skip only exact zeros, so every table equals the
    # full-width sum bit for bit, signed zeros included: the h = 1/160 factor
    # vectors at offsets inside the window (runs across many blocks, d of
    # both signs), the same vectors with zero ends, which pass the support
    # check, at offsets wholly on one side of the window, and the 3-sample
    # lattice delta of tensor_weight at offsets that straddle block
    # boundaries or lie so far out that the low-t node columns are dead in
    # every row
    D = 5.0
    m_lo, *vecs = engine._gaussian_factor_vectors(GridSpec(1.0 / 160, delta=D))
    delta = np.array([0.0, 1.0, 0.0])
    offsets = (-500, 0, 127, 160, 700)
    cases = [(vecs[i % 3], k, m_lo) for i, k in enumerate(offsets)]
    ends = [np.concatenate(([0.0], vec[1:-1], [0.0])) for vec in vecs]
    offsets = (3000, -3000, 1500, -2000)
    cases += [(ends[i % 3], k, m_lo) for i, k in enumerate(offsets)]
    cases += [(delta, k, -1) for k in (0, 3, 127, 128, -128, -256, 3000, -3000)]
    # at k = 1500 the last run, at k = -2000 the first, lacks its block's
    # smallest |d| and is still zero in the block's first live column: those
    # runs sum zero columns before their own rows' first live one
    for k, run in ((1500, -1), (-2000, 0)):
        _, _, gauss, _ = engine._kernel_runs(k - m_lo, len(vecs[0]), D, 1, rule, False)[run]
        assert not gauss[1:, 0].any()
    for M in (1, 2, 3, 4):
        for vec, k, lo in cases:
            _empty_caches()
            [tables] = engine._sigma_tables([(vec, k)], lo, D, M, rule, True)
            for which, table in enumerate(tables):
                want = _full_width_table(vec, k, lo, D, M, rule, which)
                assert table.tobytes() == want.tobytes(), (M, k, which)
    _empty_caches()


def test_banded_tables_keep_every_bit_when_one_column_is_live():
    # on a 180-node rule the last node column is the first live one of the
    # rows |d| = 288..324, and numpy sums a one-column stack pairwise, not
    # row by row; terms of one magnitude and random sign make the two orders
    # round differently, so only a band of two columns keeps the table's bits
    short = DEQuadrature(s_end=180)
    d = np.arange(330.0, 287.0, -1.0)
    last = _gauss_rows(d, 5.0, short)[:, -1]
    assert np.count_nonzero(last) == 37
    for seed in range(3):
        rng = np.random.default_rng(seed)
        # zero ends keep the boundary terms inside the support check
        vec = np.zeros(len(d))
        vec[1:-1] = np.where(last[1:-1] > 1e-300,
                             rng.normal(size=len(d) - 2) / np.maximum(last[1:-1], 1e-300), 0.0)
        _empty_caches()
        [tables] = engine._sigma_tables([(vec, 330)], 0, 5.0, 2, short, True)
        for which, table in enumerate(tables):
            want = _full_width_table(vec, 330, 0, 5.0, 2, short, which)
            assert table.tobytes() == want.tobytes(), (seed, which)
    _empty_caches()


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, engine._BLOCK + 1), cols=st.integers(1, 300),
       descending=st.booleans(), carried=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_einsum_adds_rows_in_order(rows, cols, descending, carried, seed):
    # _sigma's one einsum pass per run must add (vec gauss) poly to each
    # column row by row, as a loop over the rows does, on the views
    # _kernel_runs hands it: rows of a padded block read downwards or upwards
    # from a pad, from any first column, into a slice of the sums.  When the
    # run is carried, the pad row holds the sum so far and 1.0s, and enters
    # the sum exactly.  Magnitudes over 26 decades and both signs make a
    # reordered sum round differently somewhere.  Order-1 runs add vec gauss
    # alone, by the two-operand einsum, over a band of at least two columns
    # like every run (_gauss_block)
    rng = np.random.default_rng(seed)
    shape = (engine._BLOCK + 2, 300)
    gauss = rng.normal(size=shape) * np.exp(rng.uniform(-30.0, 30.0, shape))
    poly = rng.normal(size=shape)
    weights = rng.normal(size=rows)
    c = 300 - cols
    pad = engine._BLOCK + 1 if descending else 0
    if carried:
        gauss[pad] = rng.normal(size=300) * 1e10
        poly[pad] = weights[0] = 1.0
    view = (slice(pad, pad - rows, -1) if descending else slice(0, rows), slice(c, None))
    sums = np.zeros(300)
    np.einsum("m,ms,ms->s", weights, gauss[view], poly[view], out=sums[c:])
    want = np.zeros(cols)
    for w, g, p in zip(weights, gauss[view], poly[view]):
        want = want + (w * g) * p
    assert sums[c:].tobytes() == want.tobytes()
    assert not sums[:c].any()
    if cols >= 2:
        sums = np.zeros(300)
        np.einsum("m,ms->s", weights, gauss[view], out=sums[c:])
        want = np.zeros(cols)
        for w, g in zip(weights, gauss[view]):
            want = want + w * g
        assert sums[c:].tobytes() == want.tobytes()
        assert not sums[:c].any()


def test_concurrent_evaluate_calls_match_serial_ones(monkeypatch):
    # threads share the cached kernel blocks and carry their sums through
    # the same pad rows; with no table cached across calls, every call runs
    # _sigma over 521 samples, 5 blocks, and eight threads on a short switch
    # interval interleave there, each building blocks from empty caches
    # through its own piece buffers.  Every value must be the serial call's
    # bit for bit, and the cache's byte count must stay exact
    monkeypatch.setattr(engine, "_VECTOR_BYTES", 0)
    grid = GridSpec(1.0 / 40)
    dens = _positive_density(5, grid)
    jobs = [[((3 * t + i, -i, 2 * t, 0, i - t),) for i in range(3)] for t in range(8)]

    def run(points):
        return [evaluate(dens, point, 5, grid, M)[0].value for point in points for M in (2, 4)]

    _empty_caches()
    want = [run(points) for points in jobs]
    got = [None] * len(jobs)
    failures = []

    def worker(t):
        try:
            got[t] = run(jobs[t])
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            _empty_caches()
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert got == want
    finally:
        sys.setswitchinterval(interval)
    _held_bytes()
    _empty_caches()


@pytest.mark.parametrize("side", ("first", "last"))
def test_window_cut_inside_a_live_column_is_refused(side, rule):
    # the window of e^{-x^2} at h = 1/160 is cut on one side at |x| = 1.875,
    # where the sample is 3% of the peak, and ends at |x| = 6.5 on the other;
    # the cut row lies in a run whose first live column is well past 0, and
    # at the wide nodes after it its term is a large share of the sum
    grid = GridSpec(1.0 / 160)
    m_lo, g0, _, _ = engine._gaussian_factor_vectors(grid)
    lo, hi = (-300, -m_lo) if side == "first" else (m_lo, 300)
    vec = g0[lo - m_lo:hi - m_lo + 1]
    runs = engine._kernel_runs(-lo, len(vec), grid.delta, 4, rule, False)
    assert runs[0 if side == "first" else -1][1] > 100
    _empty_caches()
    with pytest.raises(SupportTruncated):
        engine._sigma_tables([(vec, 0)], lo, grid.delta, 4, rule)
    _empty_caches()


def test_empty_batch_gives_no_samples():
    grid = GridSpec(0.2)
    for n in (3, 5):
        assert evaluate(build_test_density(n, grid), [], n, grid, 2) == []


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from((3, 5)), M=st.integers(1, 4), data=st.data())
def test_batch_values_do_not_depend_on_the_batch(n, M, data):
    # a call builds the tables of all its points together; every value must
    # still equal the one-point call bit for bit, with tables built anew
    grid = GridSpec(0.2)
    # coordinates stay inside the sample window, where the support check
    # passes; the batch draws from a few points, so it often repeats one
    pool = data.draw(st.lists(st.tuples(*[st.integers(-20, 20)] * n),
                              min_size=1, max_size=4))
    batch = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=6))
    dens = _positive_density(n, grid)
    got = evaluate(dens, batch, n, grid, M)
    for point, sample in zip(batch, got):
        engine._ROW_BLOCKS.clear()
        assert sample.value == evaluate(dens, [point], n, grid, M)[0].value, point


@pytest.mark.parametrize("n", (3, 5))
@pytest.mark.parametrize("per_chunk", (1, 2, 3))
def test_chunked_batch_matches_one_point_calls(n, per_chunk):
    # a batch of 7 distinct points, with repeats, that spans several chunks:
    # each distinct point is assembled once, its repeats take its value, and
    # every value is the one-point call's bit for bit
    grid = GridSpec(0.2)
    dens = build_test_density(n, grid)
    distinct = [tuple((3 * i + 5 * j) % 11 - 5 for j in range(n)) for i in range(7)]
    batch = distinct[:4] + distinct[1::2] + distinct[3:] + distinct[:1]
    want = [evaluate(dens, [point], n, grid, 3)[0].value for point in batch]
    chunk = per_chunk * dens.rank * DEQuadrature().node_count
    with mock.patch.object(engine, "_CHUNK_VALUES", chunk), \
            mock.patch.object(engine, "_point_sums", wraps=engine._point_sums) as sums:
        got = evaluate(dens, batch, n, grid, 3)
    assert [s.point for s in got] == batch
    assert [s.value for s in got] == want
    assert [call.args[0].shape[0] for call in sums.call_args_list] == \
        [per_chunk] * (7 // per_chunk) + [7 % per_chunk] * (7 % per_chunk > 0)


@pytest.mark.parametrize("n, s_end", ((3, 250), (5, 230)))
def test_batch_with_one_divergent_point_is_refused(n, s_end):
    # the rule has decayed at the near points but not at the far one: the
    # whole call is refused, whichever chunk the far point falls in
    short = DEQuadrature(s_end=s_end)
    grid = GridSpec(1.0 / 20)
    dens = build_test_density(n, grid)
    near = [(c,) + (0,) * (n - 1) for c in (0, 5, 10)]
    far = (30,) + (0,) * (n - 1)
    evaluate(dens, near, n, grid, 4, short)
    with pytest.raises(QuadratureDivergence):
        evaluate(dens, [far], n, grid, 4, short)
    for chunk in (1, engine._CHUNK_VALUES):
        with mock.patch.object(engine, "_CHUNK_VALUES", chunk), \
                pytest.raises(QuadratureDivergence):
            evaluate(dens, near[:2] + [far] + near[2:], n, grid, 4, short)


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from((3, 5, 8)), M=st.integers(1, 4), data=st.data())
def test_test_density_permutation_and_sign_invariance(n, M, data):
    # the test density is isotropic: permuting and mirroring the coordinates
    # of a point changes only the rounding
    grid = GridSpec(0.2)
    point = data.draw(st.tuples(*[st.integers(-5, 5)] * n))
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * n))
    moved = tuple(s * point[j] for s, j in zip(signs, perm))
    base, other = evaluate(build_test_density(n, grid), [point, moved], n, grid, M)
    assert other.value == pytest.approx(base.value, rel=1e-13)


def test_evaluate_flags_truncated_support():
    # sampling window cut at |x| = 2 while the density is still 1.8e-2 there
    grid = GridSpec(0.1, radius=2.0)
    dens = build_test_density(5, grid)
    with pytest.raises(SupportTruncated):
        evaluate(dens, [(18, 0, 0, 0, 0)], 5, grid, 4)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from((3, 5)), M=st.integers(1, 4),
       side=st.sampled_from(("left", "right", "both")), data=st.data())
def test_clipped_window_is_refused(n, M, side, data):
    # a random one-signed density whose sample window is cut where it is still
    # above 1e-6 of its peak (|x| < 3.7, |m| <= 148 at h = 1/40): at the wide
    # nodes the kernel is 1 over the window, so a boundary term is a visible
    # share of the sum.  The window is longer than a block, and a right clip
    # puts the largest boundary term in the last block, not the first
    grid = GridSpec(1.0 / 40)
    m_lo, g0, _, _ = engine._gaussian_factor_vectors(grid)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    vec = data.draw(st.sampled_from((1.0, -1.0))) * g0 * rng.uniform(0.5, 1.5, len(g0))
    lo = data.draw(st.integers(-148, -1)) if side != "right" else m_lo
    hi = data.draw(st.integers(1, 148)) if side != "left" else -m_lo
    if side == "right":
        assert hi - lo + 1 > engine._BLOCK
    clipped = vec[lo - m_lo:hi - m_lo + 1]
    dens = SeparatedDensity((data.draw(st.floats(0.1, 10.0)),), ((clipped,) * n,), lo)
    point = data.draw(st.tuples(*[st.integers(lo, hi)] * n))
    with pytest.raises(SupportTruncated):
        evaluate(dens, [point], n, grid, M)


# --- symmetric axis-point fast path ---


def test_symmetric_requires_five_dims():
    # the refusal names the dimension it got and the path that covers n = 3
    for n in (3, 4):
        dens = gaussian_potential_density(n)
        with pytest.raises(UnsupportedDimension, match=f"n = {n};.*n = 3 goes through evaluate"):
            evaluate_symmetric(dens, 0, GridSpec(0.1), 1)


def test_symmetric_refuses_fractional_dimension():
    # a fractional n is not a dimension, not a value between two of them
    with pytest.raises(ValueError, match="dimension must be an integer, got 5.5"):
        evaluate_symmetric(IsotropicGaussianPolyDensity(1.0, 0.0, 0.0, 5.5), 3, GridSpec(0.1), 2)


def test_symmetric_matches_generic_path():
    h = 0.1
    grid = GridSpec(h)
    for n in (5, 6, 8):
        dens_rank = build_test_density(n, grid)
        dens_iso = gaussian_potential_density(n)
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
    # any isotropic e^{-|x|^2} (c0 + c1 |x|^2 + c2 |x|^4) and its separated
    # expansion; one-signed coefficients keep the potential away from zero so
    # the relative gate is meaningful
    grid = GridSpec(0.2)
    iso = IsotropicGaussianPolyDensity(*(sign * c for c in coeffs), n)
    want = evaluate(separated_expansion(iso, grid), [(k1,) + (0,) * (n - 1)], n, grid, M)[0].value
    got = evaluate_symmetric(iso, k1, grid, M).value
    assert got == pytest.approx(want, rel=1e-12)


def test_symmetric_tables_shared_across_dimensions():
    # the axis node arrays do not depend on n: a sweep over n forms them
    # once, values from shared arrays equal values from fresh ones bit for
    # bit, and every array is read-only
    grid = GridSpec(0.05)
    dims = (5, 50, 10 ** 6)

    def value(n):
        return evaluate_symmetric(gaussian_potential_density(n), 20, grid, 3).value

    _empty_caches()
    shared = [value(n) for n in dims]
    assert engine._axis_nodes.cache_info().misses == 1
    fresh = []
    for n in dims:
        _empty_caches()
        fresh.append(value(n))
    assert [v.hex() for v in shared] == [v.hex() for v in fresh]
    arrays = engine._axis_nodes(grid, 3, 20, DEQuadrature())
    assert len(arrays) == 7
    assert not any(array.flags.writeable for array in arrays)


def test_axis_vectors_are_built_once_per_grid(monkeypatch):
    # a sweep over M at one grid samples its factor vectors once, into
    # read-only arrays; separated_expansion still gets writable ones of its own
    grid = GridSpec(0.1)
    calls = []
    real = engine._gaussian_factor_vectors

    def counted(grid):
        calls.append(grid)
        return real(grid)

    monkeypatch.setattr(engine, "_gaussian_factor_vectors", counted)
    _empty_caches()
    dens = gaussian_potential_density(6)
    for M in (1, 2, 3, 4):
        evaluate_symmetric(dens, 10, grid, M)
    assert calls == [grid]
    m_lo, *vecs = engine._axis_vectors(grid)
    assert not any(vec.flags.writeable for vec in vecs)
    density = build_test_density(5, grid)
    assert density.m_lo == m_lo
    assert all(vec.flags.writeable for term in density.factors for vec in term)
    assert not any(vec is cached for term in density.factors for vec in term
                   for cached in vecs)
    _empty_caches()


def test_symmetric_offset_order_does_not_matter():
    # at k1 = 0 the offset-0 tables are asked for twice in one call, and at
    # k1 = 20 they come from the table cache if k1 = 0 ran first: either
    # order of the two calls from empty caches gives the same bits
    grid = GridSpec(0.05)
    dens = gaussian_potential_density(7)
    values = []
    for ks in ((20, 0), (0, 20)):
        _empty_caches()
        values.append({k: evaluate_symmetric(dens, k, grid, 3).value.hex() for k in ks})
    assert values[0] == values[1]


def _plain_symmetric(density, k1, grid, M):
    """evaluate_symmetric's value from its node row formed by the plain
    expressions."""
    nodes = DEFAULT_RULE.arrays()
    n = density.n
    a1, b1, c1v, beta, chi, log_a0, sign_a0 = engine._axis_nodes(grid, M, k1, DEFAULT_RULE)
    big = float(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (density.c0 * a1
             + density.c1 * (b1 + (big - 1.0) * a1 * beta)
             + density.c2 * (c1v + (big - 1.0) * a1 * chi + 2.0 * (big - 1.0) * b1 * beta
                             + (big - 1.0) * (big - 2.0) * a1 * beta * beta))
        sign = np.sign(g) * (sign_a0 if (n - 1) % 2 == 1 else 1.0)
        expo = nodes.log_weight + (big - 1.0) * log_a0 + np.log(np.abs(g))
    return (grid.h * math.sqrt(grid.delta)) ** 4 / 16.0 * quad._node_sum(sign * np.exp(expo))


def test_symmetric_node_row_keeps_every_bit():
    # the node row formed in place gives the value of the plain expressions
    # bit for bit, for both parities of n - 1 and for a density whose g
    # changes sign across the nodes
    for steps in (10, 40):
        grid = GridSpec(1.0 / steps)
        for M, k1, n in itertools.product((1, 2, 4), (0, steps, 4 * steps),
                                          (5, 6, 10 ** 4, 10 ** 4 + 1, 10 ** 8)):
            for dens in (gaussian_potential_density(n), IsotropicGaussianPolyDensity(1.0, -3.5, 0.25, n)):
                got = evaluate_symmetric(dens, k1, grid, M).value
                want = _plain_symmetric(dens, k1, grid, M)
                assert got.hex() == want.hex(), (steps, M, k1, dens)


@pytest.mark.parametrize("coeffs, error", [
    ((1e308, 0.0, 0.0), FloatingPointError),   # e^expo past the binary64 range
    ((1e306, 0.0, 0.0), OverflowError),        # every node finite, their sum not
    ((1e308, 0.0, 1e308), FloatingPointError),  # g itself past the range
])
def test_symmetric_overflow_is_refused(coeffs, error):
    dens = IsotropicGaussianPolyDensity(*coeffs, 5)
    with pytest.raises(error):
        evaluate_symmetric(dens, 10, GridSpec(0.1), 2)


def test_short_rule_is_refused():
    # half the default node range stops while the integrand is still large:
    # the values would be ~100% wrong, so neither path may return them
    short = DEQuadrature(s_end=150)
    grid = GridSpec(1.0 / 20)
    for n, point in ((3, (20, 20, 20)), (5, (20, 0, 0, 0, 0))):
        dens = build_test_density(n, grid)
        with pytest.raises(QuadratureDivergence):
            evaluate(dens, [point], n, grid, 4, short)
    dens = gaussian_potential_density(5)
    with pytest.raises(QuadratureDivergence):
        evaluate_symmetric(dens, 20, grid, 4, short)


def test_symmetric_sample_metadata():
    dens = gaussian_potential_density(6)
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


def test_saturation_epsilon0_refuses_a_cutoff_that_drops_terms():
    # at D = 1e-6 every term up to |m| = 6 is about 1, so the truncated sum
    # gave S = 13 and 13^5 - 1 where S is near 1000; at D = 0.01 the term at
    # |m| = 7 is still 1.6e-2 of S - 1 = 4.6
    for M, D, n in ((1, 1e-6, 5), (4, 1e-6, 5), (1, 0.01, 10 ** 7)):
        with pytest.raises(ValueError, match="too small for this estimate"):
            saturation_epsilon0(M, D, n)


@pytest.mark.parametrize("D", (0.0, -1.0, math.nan, math.inf))
def test_saturation_epsilon0_refuses_bad_shape(D):
    # an infinite D gave nan with only a RuntimeWarning
    with pytest.raises(ValueError, match="positive and finite"):
        saturation_epsilon0(2, D, 5)


def test_saturation_epsilon0_refuses_overflow():
    # at M = 1, D = 1 the cutoff drops nothing (e^{-49 pi^2} is 0 in
    # binary64) and S - 1 = 2 e^{-pi^2}, so S^n leaves binary64 past
    # n = 6.9e6 instead of returning inf
    assert saturation_epsilon0(1, 1.0, 10 ** 6) == pytest.approx(
        math.expm1(10 ** 6 * math.log1p(2.0 * math.exp(-math.pi ** 2))), rel=1e-9)
    with pytest.raises(ValueError, match="binary64 range"):
        saturation_epsilon0(1, 1.0, 10 ** 8)


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
    # build_test_density, and separated_expansion of random isotropic
    # densities, give e^{-|x|^2} (c0 + c1 |x|^2 + c2 |x|^4) at random lattice
    # points x = h m, within 2 rank ulps of the sum of the terms' magnitudes
    # e^{-|x|^2} (|c0| + |c1| |x|^2 + |c2| |x|^4); the worst seen is 0.24 of that
    grid = GridSpec(0.1)
    rng = np.random.default_rng(28)
    for n in (3, 5, 8):
        cases = [(build_test_density(n, grid), gaussian_potential_density(n))]
        for _ in range(3):
            iso = IsotropicGaussianPolyDensity(*rng.uniform(-10.0, 10.0, 3), n)
            cases.append((separated_expansion(iso, grid), iso))
        for dens, iso in cases:
            for _ in range(40):
                m = rng.integers(-30, 31, n)
                r2 = mp.fsum(mp.mpf(grid.h * float(k)) ** 2 for k in m)
                want = mp.e ** -r2 * (iso.c0 + iso.c1 * r2 + iso.c2 * r2 ** 2)
                scale = mp.e ** -r2 * (abs(iso.c0) + abs(iso.c1) * r2 + abs(iso.c2) * r2 ** 2)
                err = abs(_point_value(dens, m) - want)
                assert err <= 2.0 * dens.rank * 2.0 ** -53 * scale, (iso, m.tolist())


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
    # empty and two-dimensional factor vectors are refused up front, not by
    # a failure inside evaluate
    with pytest.raises(ValueError):
        SeparatedDensity((1.0,), ((np.zeros(0),) * 5,), 0)
    with pytest.raises(ValueError):
        SeparatedDensity((1.0,), ((np.ones((3, 1)),) * 5,), 0)
    dens = SeparatedDensity((2.0,), ((np.ones(3), np.ones(3)),), -1)
    assert dens.rank == 1
    assert dens.ndim == 2
