"""Double-exponential rule, node polynomials, and the 1-D kernel integrals.

The polynomial reference forms are the hand-expanded closed forms for orders
one through four that ``biharm --verify`` also checks; the implementation
builds the same objects from the Hermite recurrence, so the two routes share
no code. Checks that the verify registry runs with the same inputs and
tolerances (quadrature against closed forms, refinement self-consistency, the
zero-offset lattice weight) are asserted through it in test_acceptance.
"""

import math

import numpy as np
import pytest

from biharm.cli import _printed_node_polys
from biharm.engine import tensor_weight
from biharm.errors import QuadratureDivergence
from biharm.kernels import phi2
from biharm.quad import DEQuadrature, integral_phi2, qm_poly, rm_poly


def _transform(u, a, b):
    """Phi(u) and Phi'(u) straight from their defining formulas."""
    inner = b * (u - math.exp(-u))
    t = math.exp(a * b * (u - math.exp(-u)) + a * math.exp(inner))
    return t, t * a * b * (1.0 + math.exp(-u)) * (1.0 + math.exp(inner))


def _u_grid_rule():
    # a = 6, b = 5 with u = -40, -39.5, ..., 2
    return DEQuadrature(a=6.0, b=5.0, tau=0.5, s_begin=-80, s_end=5)


def test_de_transform_at_origin(rule):
    nodes = rule.arrays()
    assert nodes.u[0] == 0.0
    t = nodes.t[0]
    assert t == pytest.approx(math.exp(-30.0 + 6.0 * math.exp(-5.0)), rel=1e-15)
    assert 9.7e-14 < t < 9.8e-14
    # the weight is tau * Phi * Phi'
    ratio = nodes.weight[0] / (rule.tau * t * t)
    assert ratio == pytest.approx(60.0 * (1.0 + math.exp(-5.0)), rel=1e-14)


def test_de_transform_decay_and_overflow():
    nodes = _u_grid_rule().arrays()
    at = {float(u): s for s, u in enumerate(nodes.u)}
    assert nodes.t[at[-40.0]] == 0.0
    ts = [nodes.t[at[u]] for u in (-3.0, -1.0, 0.0, 0.5)]
    assert ts == sorted(ts)
    # beyond the binary64 range t and the weight are +inf while their logs,
    # and log(1 + t), stay finite
    s = at[2.0]
    assert math.isinf(nodes.t[s]) and math.isinf(nodes.weight[s])
    assert np.all(np.isfinite(nodes.log_t)) and np.all(np.isfinite(nodes.log_weight))
    assert nodes.log1pt[s] == nodes.log_t[s]


def test_rule_validation():
    with pytest.raises(ValueError):
        DEQuadrature(tau=0.0)
    with pytest.raises(ValueError):
        DEQuadrature(a=-1.0)
    with pytest.raises(ValueError):
        DEQuadrature(s_begin=10, s_end=10)
    # a fractional order is refused, not truncated
    with pytest.raises(ValueError):
        qm_poly(2.7, 0.5, 0.25)
    with pytest.raises(ValueError):
        rm_poly(2.7, 0.5, 0.25)


def test_rule_node_table(rule):
    nodes = rule.arrays()
    assert all(len(col) == 300 for col in nodes)
    assert nodes.u[0] == 0.0
    for s in (0, 57, 200, 299):
        t, tprime = _transform(nodes.u[s], rule.a, rule.b)
        assert nodes.t[s] == pytest.approx(t, rel=1e-14)
        if math.isfinite(t * tprime):
            assert nodes.weight[s] == pytest.approx(rule.tau * t * tprime, rel=1e-13)
        assert nodes.log1pt[s] == pytest.approx(math.log1p(t), rel=1e-14)


def test_qm_poly_low_order_values():
    xs = np.linspace(-3.0, 3.0, 7)
    assert np.all(qm_poly(1, xs, 2.7) == 1.0)
    assert qm_poly(2, 0.0, 0.0) == pytest.approx(1.5, rel=1e-15)


def test_qm_poly_matches_reference_forms():
    rng = np.random.default_rng(777)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 98), [0.0, 2.0]])
    t = np.concatenate([rng.uniform(0.0, 10.0, 98), [0.0, 0.0]])
    for M in (1, 2, 3, 4):
        got = qm_poly(M, x, t)
        want = _printed_node_polys(x, t)[0][M - 1]
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-14)) < 1e-12


def test_rm_poly_low_order_values():
    xs = np.linspace(-3.0, 3.0, 7)
    assert rm_poly(1, xs, 1.5) == pytest.approx(xs ** 2 / 2.5, rel=1e-15)
    assert rm_poly(1, 2.0, 1.0) == pytest.approx(2.0, rel=1e-15)


def test_rm_poly_matches_reference_forms():
    rng = np.random.default_rng(778)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 98), [0.0, 1.3]])
    t = np.concatenate([rng.uniform(0.0, 10.0, 98), [0.0, 0.4]])
    for M in (1, 2, 3, 4):
        got = rm_poly(M, x, t)
        want = _printed_node_polys(x, t)[1][M - 1]
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-14)) < 1e-12


def test_integral_three_dim_form(rule):
    for r in (0.5, 2.0):
        assert integral_phi2(3, r, rule) == pytest.approx(phi2(3, r), rel=1e-12)


def test_integral_six_dim_at_zero(rule):
    assert integral_phi2(6, 0.0, rule) == pytest.approx(1.0 / 32.0, rel=1e-12)


def test_integral_rejects_four_dims(rule):
    with pytest.raises(ValueError):
        integral_phi2(4, 1.0, rule)
    with pytest.raises(ValueError):
        integral_phi2(5.9, 1.0, rule)


def test_integral_detects_short_rule():
    # cutting the node range in half leaves a non-negligible tail
    with pytest.raises(QuadratureDivergence):
        integral_phi2(5, 0.0, DEQuadrature(s_end=150))


def test_tensor_weight_symmetries(rule):
    base = tensor_weight((2, -1, 3, 0, 1), 4, 5.0, rule)
    assert tensor_weight((2, 1, 3, 0, -1), 4, 5.0, rule) == base
    assert tensor_weight((0, 3, 1, 2, -1), 4, 5.0, rule) == base
