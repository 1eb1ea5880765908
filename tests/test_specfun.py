"""Generalized Laguerre recurrence against 40-digit mpmath oracles."""

import mpmath as mp
import numpy as np
import pytest

from biharm.specfun import gen_laguerre


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
