"""Special functions against 40-digit mpmath oracles.

The grids of erf, E1 and the incomplete-gamma quotient are dense inside each
transition band and cross every switch: the end of the math.erf band, the
series / continued-fraction switch (x = a + 1; x = 1.75 for E1) and the start
of the closed-form limits.
"""

import functools

import mpmath as mp
import numpy as np
import pytest

from biharm import specfun
from biharm.specfun import gen_laguerre

_TINY = 2.2250738585072014e-308  # the smallest normal double


def _around(*points):
    """Each point with its two neighbouring doubles."""
    return [v for p in points for v in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def _worst(got, want):
    """Largest relative error where the reference is a normal double, and the
    largest absolute error where it is not."""
    rel = tiny = 0.0
    for g, w in zip(np.asarray(got).tolist(), want):
        w = float(w)
        if abs(w) >= _TINY:
            rel = max(rel, abs(g - w) / abs(w))
        else:
            tiny = max(tiny, abs(g - w))
    return rel, tiny


def test_gen_laguerre_anchors():
    # L_1^(g)(y) = 1 + g - y and L_2^(0)(y) = y^2/2 - 2y + 1
    assert gen_laguerre(1, 1.5, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert gen_laguerre(2, 0.0, 1.0) == pytest.approx(-0.5, rel=1e-15)
    assert gen_laguerre(0, 3.2, 7.0) == 1.0


def test_gen_laguerre_binomial_sum():
    # L_k^(g)(y) = sum_i (-1)^i binom(k + g, k - i) y^i / i!
    rng = np.random.default_rng(5150)
    for k in range(1, 7):
        for _ in range(8):
            g = rng.uniform(-0.5, 3.0)
            y = rng.uniform(0.0, 8.0)
            want = float(mp.fsum(
                (-1) ** i * mp.binomial(k + g, k - i) * mp.mpf(y) ** i / mp.factorial(i)
                for i in range(k + 1)))
            assert gen_laguerre(k, g, y) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_erf_matches_mpmath():
    r = np.concatenate([np.linspace(0.0, 30.0, 1501), _around(specfun._ERF_ONE)])
    got = specfun.erf(r)
    rel, tiny = _worst(got, [mp.erf(v) for v in r])
    assert rel <= 2e-15
    assert tiny == 0.0
    assert np.array_equal(specfun.erf(-r), -got)


def test_exp1_matches_mpmath():
    # series below 1.75, continued fraction above, 0 from 746 on; past 708
    # E1 is subnormal, and there it is within one subnormal step
    x = np.concatenate([np.linspace(0.0, 3.0, 1501)[1:], np.linspace(3.0, 800.0, 1595),
                        _around(specfun._E1_FRACTION, specfun._E1_ZERO, 1.0), [1e-300, 1e-10]])
    rel, tiny = _worst(specfun.exp1(x), [mp.e1(v) for v in x])
    assert rel <= 2e-15
    assert tiny <= 2.0 ** -1074
    with pytest.raises(ValueError):
        specfun.exp1(0.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0, 4.0, 49.0])
def test_gamma_quotient_matches_mpmath(a):
    # every a, 49 included, is within 2e-15 (worst seen: 1.6e-15 at a = 49,
    # from the rounding of up to 60 comparable series terms)
    end = specfun._band_end(a)
    x = np.concatenate([np.linspace(0.0, end + 10.0, 601), np.linspace(end + 10.0, 1000.0, 50),
                        _around(a + 1.0, end), [1e-300, 1e-10]])
    want = [1 / mp.mpf(a) if v == 0 else mp.gammainc(a, 0, v) / mp.mpf(v) ** a for v in x]
    rel, tiny = _worst(specfun.gamma_quotient(a, x), want)
    assert rel <= 2e-15
    assert tiny == 0.0


def test_special_functions_scalar_and_array_agree(agrees_for_every_type, far_radii):
    # each element goes the same way alone and in an array, so the bits agree
    x = np.concatenate([np.linspace(0.0, 60.0, 241), np.linspace(60.0, 900.0, 43), far_radii])
    for fn, args in ((specfun.erf, np.concatenate([x, -x])), (specfun.exp1, x + 1e-3),
                     (functools.partial(specfun.gamma_quotient, 1.5), x),
                     (functools.partial(specfun.gamma_quotient, 0.5), x),
                     (functools.partial(specfun.gen_laguerre, 3, 1.5), x[:-len(far_radii)])):
        arr = agrees_for_every_type(fn, args)
        assert np.array_equal(fn(args[::-1])[::-1], arr)


def test_special_function_domains():
    with pytest.raises(ValueError):
        specfun.gamma_quotient(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.gamma_quotient(1.5, -1.0)
    assert specfun.gamma_quotient(2.0, 0.0) == 0.5
    assert specfun.gamma_quotient(2.0, np.inf) == 0.0
    assert np.isnan(specfun.gamma_quotient(2.0, np.nan))
    assert np.isnan(specfun.erf(np.nan))
