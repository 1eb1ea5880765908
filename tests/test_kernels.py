"""Closed-form kernels and the direct lattice cubature.

The primary oracle is a 40-digit mpmath transcription of the kernel profile.
For dimensions where the confluent hypergeometric route exists the oracle is
mpmath's hyp1f1; the n = 4 logarithmic profile has no such route, so its
transcription is validated in-test against the defining property that the
radial bilaplacian of the profile returns the unit Gaussian.
"""

import itertools
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import biharm
from biharm import kernels
from biharm.errors import DimensionTooLarge
from biharm.kernels import GridSpec, _shell_counts, direct_cubature, phi2, phi2M

EULER_GAMMA = 0.5772156649015329


def _phi2_mp(n, r):
    """Independent high-precision profile evaluation."""
    r = mp.mpf(r)
    if n == 4:
        if r == 0:
            return (mp.euler - 1) / 16
        return (mp.expm1(-r ** 2) / r ** 2 - 2 * mp.log(r) - mp.e1(r ** 2)) / 16
    n = mp.mpf(n)
    return mp.hyp1f1((n - 4) / 2, n / 2, -r ** 2) / (4 * (n - 2) * (n - 4))


def _radial_bilap(f, n, r):
    def lap(rr):
        return mp.diff(f, rr, 2) + (n - 1) / rr * mp.diff(f, rr)

    return mp.diff(lap, r, 2) + (n - 1) / r * mp.diff(lap, r)


def test_profile_oracle_satisfies_defining_equation():
    # the transcription used as oracle below must solve lap(lap(u)) = e^{-r^2};
    # checked here so the n = 4 branch is not merely compared against itself
    for n in (3, 4, 6):
        r = mp.mpf("0.7")
        got = _radial_bilap(lambda rr: _phi2_mp(n, rr), n, r)
        want = mp.e ** (-r ** 2)
        assert abs(got - want) / want < mp.mpf("1e-25")


def test_phi2_values_at_zero():
    assert phi2(3, 0.0) == pytest.approx(-0.25, rel=1e-14)
    assert phi2(4, 0.0) == pytest.approx((EULER_GAMMA - 1.0) / 16.0, rel=1e-14)
    assert phi2(5, 0.0) == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert phi2(6, 0.0) == pytest.approx(1.0 / 32.0, rel=1e-14)
    assert phi2(10, 0.0) == pytest.approx(1.0 / 192.0, rel=1e-14)


def test_phi2_explicit_three_dim():
    # -e^{-r^2}/8 - (sqrt(pi)/16) (erf r / r) (2 r^2 + 1)
    r = 1.0
    want = -math.exp(-1.0) / 8.0 - math.sqrt(math.pi) / 16.0 * math.erf(1.0) * 3.0
    assert phi2(3, r) == pytest.approx(want, rel=1e-14)


def test_phi2_explicit_six_dim():
    r = 2.0
    want = (math.exp(-4.0) - 1.0 + 4.0) / (16.0 * 16.0)
    assert phi2(6, r) == pytest.approx(want, rel=1e-14)


def test_phi2_matches_oracle_across_dimensions():
    # includes points on both sides of the small-argument series switch
    rs = [0.0, 1e-3, 5e-3, 0.02, 0.1, 0.3, 0.34, 0.36, 0.5, 1.0, 2.0, 3.0, 4.0]
    for n in (3, 4, 5, 6, 10, 100):
        for r in rs:
            want = float(_phi2_mp(n, r))
            assert phi2(n, r) == pytest.approx(want, rel=1e-12), (n, r)


def test_phi2_vectorized_matches_scalar():
    rs = np.linspace(0.0, 4.0, 17)
    vec = phi2(5, rs)
    for r, v in zip(rs, vec):
        assert v == phi2(5, float(r))


def test_phi2M_order_one_is_base_profile():
    for n in (3, 5, 6, 10):
        for r in (0.0, 0.5, 1.0, 2.0):
            assert phi2M(n, 1, r) == phi2(n, r)


def test_phi2M_second_order_anchor():
    # the first rung adds the regularized incomplete-gamma term
    want = phi2(5, 1.0) + float(mp.gammainc(mp.mpf(3) / 2, 0, 1)) / 16.0
    assert phi2M(5, 2, 1.0) == pytest.approx(want, rel=1e-13)


def test_phi2M_ladder_differences():
    # consecutive orders differ by e^{-r^2} L_{M-2}^{(n/2-1)}(r^2) / (16 (M-1) M)
    for n in (3, 5, 6, 10):
        for M in (2, 3):
            for r in (0.0, 0.5, 1.0, 2.0):
                got = phi2M(n, M + 1, r) - phi2M(n, M, r)
                want = float(
                    mp.e ** (-mp.mpf(r) ** 2)
                    * mp.laguerre(M - 2, mp.mpf(n) / 2 - 1, mp.mpf(r) ** 2)
                    / (16 * (M - 1) * M))
                assert abs(got - want) < 1e-13, (n, M, r)


def test_phi2M_explicit_three_dim_order_four():
    # closed form at n = 3, M = 4, r = 1:
    # -e^{-1}/8 - (sqrt(pi)/8) erf(1) + (e^{-1}/16) sum_{j<2} L_j^{(1/2)}(1)/((j+1)(j+2))
    want = float(
        -mp.e ** -1 / 8 - mp.sqrt(mp.pi) / 8 * mp.erf(1)
        + mp.e ** -1 / 16 * mp.fsum(
            mp.laguerre(j, mp.mpf(1) / 2, 1) / ((j + 1) * (j + 2)) for j in (0, 1)))
    assert phi2M(3, 4, 1.0) == pytest.approx(want, rel=1e-13)


def test_phi2M_vectorized_matches_scalar():
    rs = np.array([0.0, 0.3, 0.7, 1.5])
    vec = phi2M(5, 3, rs)
    for r, v in zip(rs, vec):
        assert v == phi2M(5, 3, float(r))


def _gaussian_box(h, m_max):
    """e^{-|x|^2} sampled at x = h m on the centred box |m_i| <= m_max of Z^3."""
    ax = h * np.arange(-m_max, m_max + 1)
    x, y, z = np.meshgrid(ax, ax, ax, indexing="ij", sparse=True)
    return np.exp(-(x * x + y * y + z * z))


@pytest.mark.parametrize("field", ("h", "delta", "radius"))
@pytest.mark.parametrize("value", (0.0, -1.0, math.nan, math.inf))
def test_grid_spec_refuses_bad_parameters(field, value):
    params = {"h": 0.1, field: value}
    with pytest.raises(ValueError, match="positive and finite"):
        GridSpec(**params)


def test_direct_cubature_zero_density():
    grid = GridSpec(0.5)
    out = direct_cubature(np.zeros((3, 3, 3)), grid, 2, (0.5, 0.0, 0.0), 3)
    assert out.value == 0.0
    assert out.method == "direct"


def test_direct_cubature_single_sample():
    grid = GridSpec(0.1)
    pref = (grid.h * math.sqrt(grid.delta)) ** 4 / (math.pi * grid.delta) ** 2.5
    out = direct_cubature(np.ones((1,) * 5), grid, 1, (0.0,) * 5, 5)
    assert out.value == pytest.approx(pref * phi2(5, 0.0), rel=1e-15)


def test_direct_cubature_radial_agrees_with_sparse():
    # the axis-point shell path and the generic sample-array path are
    # independent summation strategies and must land on the same value
    grid = GridSpec(0.5)
    dense = direct_cubature(_gaussian_box(0.5, 13), grid, 2, (0.5, 0.0, 0.0), 3)
    shell = direct_cubature(lambda r2: np.exp(-r2), grid, 2, (0.5, 0.0, 0.0), 3)
    assert shell.value == pytest.approx(dense.value, rel=1e-13)


def test_direct_cubature_benchmark_density():
    # order-8 run on the shipped Gaussian test density whose potential is
    # exactly e^{-|x|^2}; also pins agreement with the tensor engine, which
    # computes the same sum through one-dimensional convolutions
    from biharm.engine import build_test_density, evaluate

    grid = GridSpec(1.0 / 40.0)

    def profile(r2):
        return 4.0 * np.exp(-r2) * (35.0 - 28.0 * r2 + 4.0 * r2 * r2)

    direct = direct_cubature(profile, grid, 4, (1.0, 0.0, 0.0, 0.0, 0.0), 5)
    exact = math.exp(-1.0)
    assert abs(direct.value - exact) < 1e-9

    dens = build_test_density(5, grid)
    tensor = evaluate(dens, [(40, 0, 0, 0, 0)], 5, grid, 4)[0]
    assert abs(direct.value - tensor.value) / exact < 1e-10


def test_direct_cubature_radial_density_symmetries():
    # permuting or sign-flipping the coordinates of the evaluation point must
    # not change the value at all for a radial density
    grid = GridSpec(0.5)
    box = _gaussian_box(0.5, 9)
    base = direct_cubature(box, grid, 2, (1.0, 0.5, 0.0), 3).value
    for x in ((0.5, 1.0, 0.0), (0.0, 0.5, 1.0), (1.0, -0.5, 0.0), (-1.0, 0.5, 0.0)):
        assert direct_cubature(box, grid, 2, x, 3).value == base


def test_shell_counts_match_enumeration():
    for dim, vmax in ((1, 30), (2, 50), (3, 40), (4, 30), (5, 20)):
        reach = math.isqrt(vmax)
        want = [0] * (vmax + 1)
        for m in itertools.product(range(-reach, reach + 1), repeat=dim):
            v = sum(c * c for c in m)
            if v <= vmax:
                want[v] += 1
        got = _shell_counts(dim, vmax)
        assert got.dtype == np.int64
        assert got.tolist() == want, (dim, vmax)


def test_library_runs_without_scipy():
    # a fresh interpreter that finds the same biharm as this one loads no
    # scipy module on import, for a table or for the verification
    src = os.path.dirname(os.path.dirname(biharm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import contextlib, io, sys\n"
        "import biharm, biharm.cli\n"
        "def loaded(): return [m for m in sys.modules if m.startswith('scipy')]\n"
        "seen = [loaded()]\n"
        "for argv in (['--table', '1'], ['--verify', 'full']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert biharm.cli.main(argv) == 0, argv\n"
        "    seen.append(loaded())\n"
        "print(seen)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[[], [], []]"


def _direct_by_sample(samples, grid, n, M, x):
    """The dense lattice sum with one kernel value per sample, math.fsum'd."""
    dist2 = 0.0
    for axis, length in enumerate(samples.shape):
        m = np.arange(-(length // 2), length // 2 + 1, dtype=float)
        shape = [1] * n
        shape[axis] = length
        dist2 = dist2 + ((x[axis] - grid.h * m) ** 2).reshape(shape)
    scaled = np.sqrt(dist2) / (grid.h * math.sqrt(grid.delta))
    return math.fsum((samples * phi2M(n, M, scaled)).ravel())


def test_direct_sum_over_distinct_distances_is_exact():
    # one kernel value per distinct squared distance and the certified row
    # sum give the per-sample sum bit for bit, on and off the lattice
    rng = np.random.default_rng(11)
    grid = GridSpec(0.25)
    for n, shape, M, x in ((3, (7, 5, 9), 2, (0.25, -0.5, 1.0)),
                           (3, (9, 9, 9), 4, (0.3, -0.17, 0.05)),
                           (5, (5,) * 5, 1, (0.0, 0.25, -0.25, 0.5, 0.0)),
                           (5, (3, 5, 5, 3, 7), 3, (0.1, 0.2, 0.3, -0.4, 0.5))):
        samples = rng.uniform(-1.0, 1.0, shape)
        x = np.asarray(x)
        got = kernels._direct_dense(samples, grid, n, M, x)
        assert got == _direct_by_sample(samples, grid, n, M, x), (n, shape, M)


@pytest.mark.parametrize("n", [7, 10, 100])
def test_phi2_large_radius_matches_oracle(n):
    # the series alone raised NonConvergence for 17 < r < 30 and returned NaN
    # beyond; the incomplete-gamma route takes over past x = (n - 4)/2.  At
    # n = 100 the rounding of x = r^2 alone moves the value by up to 50 ulps.
    # At r = 3000, x^-(n-4)/2 alone would underflow at n = 100
    rs = np.append(np.linspace(0.0, 50.0, 201), 3000.0)
    got = phi2(n, rs)
    for r, g in zip(rs, got):
        want = float(_phi2_mp(n, r))
        assert abs(g - want) <= 1e-14 * abs(want), (n, r, g, want)
    if n == 7:
        # the first rung adds gamma(n/2 - 1, r^2) / (16 r^(n-2))
        want = float(_phi2_mp(7, 30) + mp.gammainc(2.5, 0, 900) / mp.mpf(900) ** 2.5 / 16)
        assert phi2M(7, 2, 30.0) == pytest.approx(want, rel=1e-14)


def test_phi2_past_gamma_overflow():
    # from n = 344 on Gamma((n-4)/2) overflows a double; the limit is then
    # built up from a smaller Gamma.  Radii with exact squares, so the input
    # is exact; at n = 1000 the value 1.7e-347 is below every subnormal
    for n, r in ((344, 17.0), (344, 40.0), (404, 19.0), (404, 30.0), (1000, 30.0)):
        want = float(_phi2_mp(n, r))
        assert abs(phi2(n, r) - want) <= 1e-14 * abs(want), (n, r)


def test_scalar_and_array_calls_agree_bit_for_bit():
    # radii from every band of phi2/phi2M: zero, the series, both sides of the
    # series switch x = (n-4)/2, of the quotient's switch x = a + 1 and of the
    # start of its closed-form limit, and far beyond
    from biharm.specfun import _band_end

    for n in (3, 4, 5, 6, 7, 10, 100):
        edges = [0.5 * n - 2.0, 0.5 * n - 1.0, 0.5 * n]
        edges += [_band_end(a) for a in (0.5 * n - 2.0, 0.5 * n - 1.0) if a > 0]
        x = [0.0, 1e-6, 0.1, 0.3, 1.0, 3.0, 900.0, 4e4]
        x += [v for e in edges if e > 0 for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
        r = np.sqrt(np.array(x))
        for M in (1, 2, 4):
            arr = phi2M(n, M, r)
            assert np.all(np.isfinite(arr)), (n, M)
            assert [phi2M(n, M, float(v)) for v in r] == arr.tolist(), (n, M)
            assert np.array_equal(phi2M(n, M, r[::-1])[::-1], arr), (n, M)


def test_direct_cubature_scaling():
    # substituting y = x/c in the volume potential multiplies it by c^4; on
    # the lattice this is an exact reindexing, so the cubature inherits it
    box = _gaussian_box(0.5, 13)
    x = (1.0, 0.5, 0.0)
    for M in (1, 3):
        base = direct_cubature(box, GridSpec(0.5), M, x, 3).value
        for c in (2.0, 4.0):
            scaled = direct_cubature(box, GridSpec(0.5 * c, radius=6.5 * c), M,
                                     tuple(c * xi for xi in x), 3).value
            assert scaled == pytest.approx(c ** 4 * base, rel=1e-10)


def test_direct_cubature_dimension_guards(monkeypatch):
    grid = GridSpec(0.5)
    with pytest.raises(DimensionTooLarge):
        direct_cubature(np.ones((1,) * 7), grid, 1, (0.0,) * 7, 7)
    # the sample array must have one axis per dimension, each of odd length
    with pytest.raises(ValueError):
        direct_cubature(np.ones((3, 3)), grid, 1, (0.0, 0.0, 0.0), 3)
    with pytest.raises(ValueError):
        direct_cubature(np.ones((3, 4, 3)), grid, 1, (0.0, 0.0, 0.0), 3)
    # a fractional dimension is refused, not truncated
    with pytest.raises(ValueError):
        phi2(5.9, 0.5)
    with pytest.raises(ValueError):
        direct_cubature(np.ones((3, 3, 3)), grid, 1, (0.0, 0.0, 0.0), 3.5)
    monkeypatch.setattr(kernels, "OP_BUDGET", 100)
    with pytest.raises(DimensionTooLarge):
        direct_cubature(_gaussian_box(0.5, 9), grid, 1, (0.0, 0.0, 0.0), 3)


def test_discrete_bilaplacian_recovers_gaussian():
    # second-difference bilaplacian applied to profile samples returns the
    # unit Gaussian up to O(h^2)
    h = 0.02
    half = int(round(1.0 / h))
    ax = np.arange(-half, half + 1) * h
    X, Y, Z = np.meshgrid(ax, ax, ax, indexing="ij")
    r = np.sqrt(X * X + Y * Y + Z * Z)
    u = phi2(3, r)

    def lap(v):
        out = np.zeros_like(v)
        core = (slice(1, -1),) * 3
        for axis in range(3):
            up = [slice(1, -1)] * 3
            dn = [slice(1, -1)] * 3
            up[axis] = slice(2, None)
            dn[axis] = slice(None, -2)
            out[core] += v[tuple(up)] - 2.0 * v[core] + v[tuple(dn)]
        return out / h ** 2

    w = lap(lap(u))
    inner = (slice(2, -2),) * 3
    resid = np.abs(w[inner] - np.exp(-r[inner] ** 2))
    assert resid.max() < 5e-3
