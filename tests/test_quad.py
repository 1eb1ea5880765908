"""Double-exponential rule, node polynomials, and the 1-D kernel integrals.

The polynomial reference forms are the hand-expanded closed forms for orders
one through four that ``biharm --verify`` also checks; the implementation
builds the same objects from the Hermite recurrence, so the two routes share
no code. Checks that the verify registry runs with the same inputs and
tolerances (quadrature against closed forms, refinement self-consistency, the
zero-offset lattice weight) are asserted through it in test_acceptance.
"""

import contextlib
import importlib
import inspect
import itertools
import math
import pkgutil
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import biharm
from biharm import cli, engine, quad
from biharm.cli import _printed_node_polys
from biharm.engine import (build_test_density, evaluate, evaluate_symmetric,
                           gaussian_potential_density, tensor_weight)
from biharm.errors import QuadratureDivergence, UnsupportedDimension
from biharm.kernels import GridSpec, phi2
from biharm.quad import DEQuadrature, integral_phi2, qm_poly, rm_poly
from test_engine import on_rule


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
    # the table ends before u = 2.0, at the last node whose t and weight are
    # inside the binary64 range: every array it keeps is finite, and t
    # overflows at the next node
    rule = _u_grid_rule()
    assert 2.0 not in at and nodes.u[-1] == 1.0 and rule.node_count == len(nodes.u)
    assert all(np.all(np.isfinite(col)) for col in nodes)
    t, _ = _transform(1.0, rule.a, rule.b)
    assert nodes.t[-1] == pytest.approx(t, rel=1e-14)
    with pytest.raises(OverflowError):
        _transform(1.0 + rule.tau, rule.a, rule.b)


def test_rule_validation():
    with pytest.raises(ValueError):
        DEQuadrature(tau=0.0)
    with pytest.raises(ValueError):
        DEQuadrature(a=-1.0)
    with pytest.raises(ValueError):
        DEQuadrature(s_begin=10, s_end=10)
    for param in ("a", "b", "tau"):
        with pytest.raises(ValueError):
            DEQuadrature(**{param: math.inf})
    # finite parameters whose node logarithms leave the binary64 range: a b
    # overflows, or the transform overflows at the far nodes
    for params in ({"a": 1e308}, {"tau": 10.0}):
        with pytest.raises(ValueError, match="binary64"):
            DEQuadrature(**params).arrays()
    # a fractional order is refused, not truncated
    with pytest.raises(ValueError):
        qm_poly(2.7, 0.5, 0.25)
    with pytest.raises(ValueError):
        rm_poly(2.7, 0.5, 0.25)


def test_rule_without_a_live_node_is_refused(monkeypatch):
    # at a = 1e10 the weights jump from below the binary64 range to past it
    # between two nodes; every node sum of such a rule read 0
    for a in (1e10, 1e100):
        with on_rule(monkeypatch, DEQuadrature(a=a)):
            for fn in (lambda: integral_phi2(5, 0.0), lambda: tensor_weight((0,) * 5, 1, 5.0)):
                with pytest.raises(ValueError, match="no node with a positive finite weight"):
                    fn()


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(a=_log_uniform(1e-3, 1e12), b=_log_uniform(1e-3, 1e3), tau=_log_uniform(1e-4, 10.0),
       s_begin=st.integers(-1000, 1000), count=st.integers(1, 800))
def test_node_table_is_finite_or_refused(a, b, tau, s_begin, count):
    # a rule either refuses to build its table or keeps, in one length of at
    # least one node, only finite values with some positive weight
    rule = DEQuadrature(a=a, b=b, tau=tau, s_begin=s_begin, s_end=s_begin + count)
    try:
        nodes = rule.arrays()
    except ValueError:
        return
    assert {len(col) for col in nodes} == {rule.node_count}
    assert 1 <= rule.node_count <= count
    assert all(np.all(np.isfinite(col)) for col in nodes)
    assert np.any(nodes.weight > 0.0)


def test_rule_node_table(rule):
    nodes = rule.arrays()
    assert all(len(col) == 300 for col in nodes)
    assert nodes.u[0] == 0.0
    for s in (0, 57, 200, 299):
        t, tprime = _transform(nodes.u[s], rule.a, rule.b)
        assert nodes.t[s] == pytest.approx(t, rel=1e-14)
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


def test_node_polys_match_hermite_sums_to_order_12():
    # Q_M and R_M against 40-digit sums of mpmath's Hermite polynomials, for
    # |x| <= 20, the error taken relative to the sum of the terms' magnitudes
    # (the values have roots).  The alternating sums lose more digits as M
    # grows: the worst seen is 2.1e-15 for Q and 2.5e-15 for R, both at
    # M = 11, and 0.64 of the bound (M + 1) 2^-51 at most (R, M = 4)
    x = np.concatenate([np.linspace(0.0, 20.0, 41),
                        np.random.default_rng(12).uniform(-20.0, 20.0, 20)])
    for t in (0.0, 1.0, 100.0):
        c = [mp.mpf(-1) ** k / (mp.factorial(k) * (4 * (1 + mp.mpf(t))) ** k) for k in range(12)]
        q_terms, r_terms = [], []
        for y in (mp.mpf(v) / mp.sqrt(1 + mp.mpf(t)) for v in x):
            h = [mp.hermite(j, y) for j in range(23)]
            q_terms.append([c[k] * h[2 * k] for k in range(12)])
            # S_j = y^2 H_j - 2j y H_{j-1} + j (j-1) H_{j-2}, and S_0 = y^2
            r_terms.append([c[0] * y * y] + [
                c[k] * (y * y * h[2 * k] - 4 * k * y * h[2 * k - 1] + 2 * k * (2 * k - 1) * h[2 * k - 2])
                for k in range(1, 12)])
        for M in range(1, 13):
            bound = (M + 1) * 2.0 ** -51
            for got, terms in ((qm_poly(M, x, t), q_terms), (rm_poly(M, x, t), r_terms)):
                for g, row in zip(got, terms):
                    err = abs(g - mp.fsum(row[:M]))
                    assert err <= bound * mp.fsum(abs(v) for v in row[:M]), (M, t)


def _plain_node_polys(M, x, t, with_r):
    """The Hermite recurrence of quad._node_polys written as plain
    expressions, one fresh array per operation."""
    t = np.asarray(t, dtype=float)
    y = x / np.sqrt(1.0 + t)
    c = np.ones_like(t)
    h_prev = np.ones_like(y)
    q = c * h_prev
    if with_r:
        y2 = y * y
        r = c * y2
    if M > 1:
        h = 2.0 * y
    for k in range(1, M):
        c = -c / (k * 4.0 * (1.0 + t))
        j = 2 * k
        h_even = 2.0 * y * h - 2.0 * (j - 1) * h_prev
        if with_r:
            r = r + c * (y2 * h_even - 2.0 * j * y * h + j * (j - 1.0) * h_prev)
        h, h_prev = h_even, h
        q = q + c * h
        if k < M - 1:
            h, h_prev = 2.0 * y * h - 2.0 * j * h_prev, h
    return (q, r) if with_r else (q,)


# (rows, 1) x (1, cols) inputs the size of an engine block: (130, 1) x
# (1, 300) spans several of _node_polys' row pieces, (130, 1) x (1, 2) one
_BLOCK_SHAPES = {"block": ((130, 1), (1, 300)), "narrow": ((130, 1), (1, 2))}


def _every_order_at_block_size(test):
    for M, with_r, shape in itertools.product(range(1, 7), (False, True), _BLOCK_SHAPES):
        test = example(M=M, with_r=with_r, shape=shape, seed=M)(test)
    return test


@settings(max_examples=100, deadline=None)
@given(M=st.integers(1, 6), with_r=st.booleans(),
       shape=st.sampled_from(("scalar", "vector", "grid", *_BLOCK_SHAPES)),
       seed=st.integers(0, 2 ** 32 - 1))
@_every_order_at_block_size
def test_in_place_recurrence_keeps_every_bit(M, with_r, shape, seed):
    # _node_polys reuses its buffers but must form each value as the plain
    # recurrence does, on 0-d, 1-D and (rows, 1) x (1, cols) inputs, block
    # sized ones included; x spans the engine's range |d| / sqrt(D) and t the
    # rule's 13 decades
    rng = np.random.default_rng(seed)
    shapes = {"scalar": ((), ()), "vector": ((17,), (17,)), "grid": ((9, 1), (1, 13)),
              **_BLOCK_SHAPES}
    x_shape, t_shape = shapes[shape]
    x = np.asarray(rng.uniform(-60.0, 60.0, x_shape))
    t = np.exp(rng.uniform(-30.0, 30.0, t_shape))
    got = quad._node_polys(M, x, t, with_r)
    want = _plain_node_polys(M, x, t, with_r)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    assert isinstance(qm_poly(M, x, t), float) == (shape == "scalar")
    assert isinstance(rm_poly(M, x, t), float) == (shape == "scalar")


def test_node_exponents_are_not_clamped():
    # node values are e^expo up to the top of the binary64 range, and an
    # exponent past it raises instead of being clamped at e^709; so does the
    # symmetric path at a shape parameter that drives its exponents there
    assert quad._exp_nodes(np.array([709.5]))[0] == np.exp(709.5)
    assert quad._exp_nodes(np.array([-800.0, -np.inf]), -1.0).tolist() == [0.0, 0.0]
    with pytest.raises(FloatingPointError):
        quad._exp_nodes(np.array([0.0, 710.0]))
    dens = gaussian_potential_density(5)
    with pytest.raises(ArithmeticError):
        evaluate_symmetric(dens, 0, GridSpec(0.1, delta=1e-300), 2)


def test_integral_three_dim_form():
    for r in (0.5, 2.0):
        assert integral_phi2(3, r) == pytest.approx(phi2(3, r), rel=1e-12)


def test_integral_six_dim_at_zero():
    assert integral_phi2(6, 0.0) == pytest.approx(1.0 / 32.0, rel=1e-12)


def test_integral_rejects_four_dims():
    with pytest.raises(ValueError):
        integral_phi2(4, 1.0)
    with pytest.raises(UnsupportedDimension):
        integral_phi2(4, 1.0)
    with pytest.raises(ValueError):
        integral_phi2(5.9, 1.0)


def test_integral_refuses_negative_radius():
    # as phi2 and phi2M do; it gave the value at |r| before
    for n in (3, 5):
        for fn in (integral_phi2, phi2):
            with pytest.raises(ValueError, match="^radius must be nonnegative$"):
                fn(n, -1.0)
    assert integral_phi2(5, -0.0) == integral_phi2(5, 0.0)


def test_integral_detects_short_rule(monkeypatch):
    # cutting the node range in half leaves a non-negligible tail
    with on_rule(monkeypatch, DEQuadrature(s_end=150)), \
            pytest.raises(QuadratureDivergence, match=r"^node sum refused: its final-node "
                          r"contribution \S+ exceeds 1e-16 of the accumulated value \S+$"):
        integral_phi2(5, 0.0)


def test_integral_refuses_unresolved_radius():
    # up to RESOLVED_RADIUS the rule gives phi2 within 1e-12 for every n;
    # just past it, at n = 63, it does not, and at r = 32 it is 0.18 off
    # (n = 663).  Every larger radius, inf and NaN included, is refused
    for n in (3, 5, 8, 63, 100, 10 ** 4, 10 ** 7):
        for r in np.geomspace(0.01, quad.RESOLVED_RADIUS, 25):
            assert integral_phi2(n, r) == pytest.approx(phi2(n, r), rel=1e-12, abs=0.0), (n, r)
    assert abs(quad._phi2_integral(63, 7.59, quad.DEFAULT_RULE.arrays()) / phi2(63, 7.59) - 1.0) \
        > 1e-12
    for n in (3, 5, 8):
        for r in (math.nextafter(quad.RESOLVED_RADIUS, math.inf), 16.0, 1e20, math.inf, math.nan):
            with pytest.raises(QuadratureDivergence, match=r"^radius \S+ refused: the quadrature "
                               r"rule resolves the integral to 1e-12 only up to r = 7\.4$"):
                integral_phi2(n, r)


def test_no_public_callable_takes_a_rule():
    # the library runs one quadrature rule, quad.DEFAULT_RULE: no module
    # exports the rule types, no exported callable takes a rule, and the
    # engine reads quad.DEFAULT_RULE, not a rule name of its own
    rule_types = (DEQuadrature, quad.NodeTable)
    modules = [biharm] + [importlib.import_module(f"biharm.{info.name}")
                          for info in pkgutil.iter_modules(biharm.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            assert obj not in rule_types, (module.__name__, name)
            try:
                params = inspect.signature(obj).parameters.values() if callable(obj) else ()
            except ValueError:
                params = ()
            for p in params:
                assert not isinstance(p.default, rule_types), (module.__name__, name, p.name)
                assert not any(t.__name__ in str(p.annotation) for t in rule_types), \
                    (module.__name__, name, p.name)
    with pytest.raises(TypeError):
        integral_phi2(5, 1.0, quad.DEFAULT_RULE)
    assert not [name for name, value in vars(engine).items()
                if name.endswith("RULE") or isinstance(value, rule_types)]


def test_integral_values_keep_their_bits():
    # the radius check moves no bit at radii inside the node range
    frozen = {
        3: ("-0x1.ffffffffffe69p-3", "-0x1.14d18319e89d4p-2", "-0x1.4dde791bca563p-2",
            "-0x1.d3ed8563f6441p-1"),
        5: ("0x1.5555555555550p-4", "0x1.4523e78253ee3p-4", "0x1.1d5d36a2feba5p-4",
            "0x1.b7918cd9972f7p-6"),
        8: ("0x1.5555555555553p-7", "0x1.2db2504249888p-7", "0x1.a880a8a1b3697p-8",
            "0x1.c000043f80e5bp-13"),
    }
    for n, values in frozen.items():
        assert tuple(integral_phi2(n, r).hex() for r in (0.0, 0.5, 1.0, 4.0)) == values


def test_tensor_weight_symmetries():
    base = tensor_weight((2, -1, 3, 0, 1), 4, 5.0)
    assert tensor_weight((2, 1, 3, 0, -1), 4, 5.0) == base
    assert tensor_weight((0, 3, 1, 2, -1), 4, 5.0) == base


# --- exact node-row sums ---


def _signs(rng, size):
    return rng.choice((-1.0, 1.0), size)


def _cancelling_row(rng, cols):
    """Pairs x, -x (1 + k ulp) with |k| <= 3: the sum is a few ulps of the
    largest terms, far below the rounding noise of a plain sum."""
    x = np.ldexp(rng.uniform(1.0, 2.0, cols), rng.integers(-60, 60, cols)) * _signs(rng, cols)
    x[1::2] = -(x[:-1:2] + rng.integers(-3, 4, cols // 2) * np.spacing(x[:-1:2]))
    return x


def _tie_row(rng, cols):
    """b plus exactly half an ulp of b, padded with pairs that cancel exactly:
    the exact sum lies halfway between two doubles."""
    b = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(-100, 100)))
    x = np.zeros(cols)
    x[0] = b
    if cols > 1:
        x[1] = float(np.spacing(b)) / 2.0 * rng.choice((-1.0, 1.0))
    pads = (cols - 2) // 2
    if pads > 0:
        y = np.ldexp(rng.uniform(1.0, 2.0, pads), rng.integers(-120, 120, pads))
        x[2:2 + 2 * pads] = np.repeat(y, 2) * np.tile((1.0, -1.0), pads)
    return rng.permutation(x)


def _hard_row(rng, kind, cols):
    if kind == "onesigned":
        # like a node row: no cancellation, every term near the largest
        return rng.uniform(0.5, 1.5, cols) * rng.choice((-1.0, 1.0))
    if kind == "wide":
        # 2^-1074 .. 2^1000: subnormal to huge, summing to a finite value
        return np.ldexp(rng.uniform(1.0, 2.0, cols),
                        rng.integers(-1074, 1000, cols)) * _signs(rng, cols)
    if kind == "subnormal":
        return rng.integers(-2 ** 53, 2 ** 53, cols) * 2.0 ** -1074
    if kind == "cancel":
        return _cancelling_row(rng, cols)
    if kind == "tie":
        return _tie_row(rng, cols)
    if kind == "zeros":
        return rng.choice((0.0, -0.0), cols)
    # "nonfinite": a benign row with one or two of inf, -inf, NaN
    x = rng.uniform(-1.0, 1.0, cols)
    x[rng.integers(0, cols, 2)] = rng.choice((math.inf, -math.inf, math.nan), 2)
    return x


def _sums_or_error(sums):
    try:
        return [float(v).hex() for v in sums()]
    except (OverflowError, ValueError) as exc:
        return type(exc)


_KINDS = ("onesigned", "wide", "subnormal", "cancel", "tie", "zeros", "nonfinite")


@settings(max_examples=200, deadline=None)
@given(cols=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=8),
       edges=st.lists(st.tuples(st.integers(0, 10 ** 6), st.floats(width=64)), max_size=4))
def test_row_sums_equal_fsum(cols, seed, kinds, edges):
    # every row sum is math.fsum's bit for bit (signed zeros included), and a
    # stack with a row that math.fsum refuses raises the same exception type;
    # every stack drawn, its first row as a stack of one and that row alone
    # (the one-row form) take the split, in one piece or in pieces of 1 and
    # 7 values
    rng = np.random.default_rng(seed)
    rows = np.array([_hard_row(rng, kind, cols) for kind in kinds])
    for i, x in edges:
        rows[i % len(rows), (i // len(rows)) % cols] = x
    for stack in (rows, rows[:1]):
        want = _sums_or_error(lambda: [math.fsum(row.tolist()) for row in stack])
        for piece in (quad._PIECE_VALUES, 1, 7):
            with mock.patch.object(quad, "_PIECE_VALUES", piece):
                assert _sums_or_error(lambda: quad._row_sums(stack)) == want
                if len(stack) == 1:
                    assert _sums_or_error(lambda: [quad._one_row_sum(stack[0])]) == want


@settings(max_examples=150, deadline=None)
@given(cols=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1),
       rows=st.lists(st.tuples(st.sampled_from(_KINDS), st.integers(-600, 600)),
                     min_size=2, max_size=8))
def test_rows_of_mixed_scale_equal_fsum(cols, seed, rows):
    # rows 2^-600 .. 2^600 apart in one stack: the stack-wide sigma leaves
    # the static bound of a row far below the largest above its own gap, so
    # such rows fall to the split with their own sigma, and every sum is
    # still math.fsum's bit for bit, in one piece and in pieces of 1 and 7
    # values
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        stack = np.array([np.ldexp(_hard_row(rng, kind, cols), scale) for kind, scale in rows])
    want = _sums_or_error(lambda: [math.fsum(row.tolist()) for row in stack])
    for piece in (quad._PIECE_VALUES, 1, 7):
        with mock.patch.object(quad, "_PIECE_VALUES", piece):
            assert _sums_or_error(lambda: quad._row_sums(stack)) == want


@contextlib.contextmanager
def _fsum_spy():
    """math.fsum, patched to record the values of each call in the list
    this yields."""
    fsum = math.fsum
    summed = []

    def spy(values):
        summed.append(list(values))
        return fsum(summed[-1])

    with mock.patch.object(math, "fsum", spy):
        yield summed


def _one_rows():
    """name: (values, whether the split certifies them)"""
    rng = np.random.default_rng(11)
    long_row = rng.uniform(0.5, 1.5, quad._PIECE_VALUES + 301)
    long_row[-3] = 2.0 ** 30 + 0.25
    return {
        "signed zeros": ([-0.0] * 150 + [0.0, -0.0] * 75, False),
        "negative zeros": ([-0.0] * 300, False),
        "cancel to zero": ([1.5, -0.0, -1.5] + [-0.0] * 297, False),
        "single nonzero": ([0.0] * 150 + [-3.0e-200] + [-0.0] * 149, True),
        "tie": (_tie_row(rng, 300).tolist(), False),
        "below the midpoint at a power of two": (
            [2.0 ** 10, -2.0 ** -44, -2.0 ** -104] + [0.0] * 297, False),
        "subnormal": ((rng.integers(-2 ** 40, 2 ** 40, 300) * 2.0 ** -1074).tolist(), False),
        "inf": ([1.0] * 150 + [math.inf] + [2.0] * 149, False),
        "inf and -inf": ([1.0, math.inf] * 150 + [-math.inf], False),
        "nan": ([1.0] * 299 + [math.nan], False),
        "overflowing sigma": ([1.7e308, -1.7e308] + [1.0] * 298, False),
        "longer than one piece": (long_row.tolist(), True),
    }


@pytest.mark.parametrize("name", list(_one_rows()))
def test_one_row_sums_equal_fsum(name):
    # the one-row form, and a stack of that one row, give math.fsum's value,
    # or raise its exception type, in one piece and in pieces of 1 and 7
    # values; the rows they cannot certify (zero sums, a tie, the gap below
    # a power of two, subnormal sums, non-finite values, an overflowing
    # sigma) go to math.fsum, and the others do not
    values, certified = _one_rows()[name]
    row = np.array(values)
    want = _sums_or_error(lambda: [math.fsum(values)])
    for piece in (quad._PIECE_VALUES, 1, 7):
        for form in (lambda: [quad._one_row_sum(row)], lambda: quad._row_sums(row[None])):
            with mock.patch.object(quad, "_PIECE_VALUES", piece), _fsum_spy() as summed:
                got = _sums_or_error(form)
            assert got == want
            assert (summed == []) == certified


def test_program_node_rows_are_certified(monkeypatch):
    # every node row that evaluate_symmetric and integral_phi2 sum here is
    # math.fsum's bit for bit, and the split certifies each one that is not
    # all zeros (at n = 10^7, M = 1 on every grid and M = 2 at h = 1/10,
    # a0^(n-1) underflows at every node), so one-row sums do not rest on the
    # math.fsum fallback
    rows = []
    one_row_sum = quad._one_row_sum
    monkeypatch.setattr(quad, "_one_row_sum", lambda row: rows.append(row.copy()) or one_row_sum(row))
    for steps in (10, 40, 160):
        grid = GridSpec(1.0 / steps)
        for M in (1, 2, 4):
            for n in (5, 10 ** 4, 10 ** 7):
                dens = gaussian_potential_density(n)
                for k in (0, steps, 4 * steps):
                    evaluate_symmetric(dens, k, grid, M)
    for n in (3, 5, 100):
        for r in (0.0, 1.0, 4.0):
            integral_phi2(n, r)
    monkeypatch.undo()
    assert [row.ndim for row in rows] == [1] * (81 + 9)
    with _fsum_spy() as summed:
        got = [quad._one_row_sum(row) for row in rows]
    assert [v.hex() for v in got] == [math.fsum(row.tolist()).hex() for row in rows]
    zero = [row.tolist() for row in rows if not row.any()]
    assert summed == zero
    assert len(zero) < len(rows) // 4


def test_uncertified_rows_fall_back_to_fsum():
    # tie and cancellation rows fail the certificate and are summed by
    # math.fsum; the benign rows of the same stack are not.  In the last row
    # the plain sums give 2^10 - 2^-44, which rounds up to 2^10 at a tie,
    # while the exact sum lies just below that midpoint: at a power of two
    # the gap below is half the gap above, and the certificate must use it
    rng = np.random.default_rng(3)
    power = [2.0 ** 10, -2.0 ** -44, -2.0 ** -104] + [0.0] * 297
    rows = np.array([_tie_row(rng, 300), rng.uniform(0.5, 1.5, 300),
                     _cancelling_row(rng, 300), rng.uniform(-1.0, 2.0, 300),
                     _tie_row(rng, 7).tolist() + [0.0] * 293, power])
    want = [math.fsum(row.tolist()) for row in rows]
    with _fsum_spy() as summed:
        got = quad._row_sums(rows)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert summed == [rows[i].tolist() for i in (0, 2, 4, 5)]
    # one row of four pieces whose largest entry sits in the last piece: mu
    # comes from the whole row, so every piece splits exactly and the row
    # is certified without math.fsum
    row = rng.uniform(0.5, 1.5, 3 * quad._PIECE_VALUES + 5)
    row[-2] = 2.0 ** 40 + 0.5
    want = math.fsum(row.tolist())
    with _fsum_spy() as summed:
        got = quad._one_row_sum(row)
    assert got.hex() == want.hex()
    assert summed == []


def test_program_stacks_certify_at_the_first_stage(tmp_path):
    # every stack row of the engine's own workloads is certified by the
    # stack-wide sigma and the static bound, so none takes its own split or
    # math.fsum: a batch of permuted points on each tensor path, Table 4
    # (n = 3) and --verify full, whose oracle row of 161,051 values is one
    # stack of one
    bases = {3: (10, -5, 2), 5: (20, -10, 5, 2, 0), 8: (15, -10, 6, 4, -2, 1, 0, 0)}
    stacks = []
    row_sums = quad._row_sums
    with mock.patch.object(quad, "_row_sums",
                           lambda rows: stacks.append(rows.copy()) or row_sums(rows)):
        for n, base in bases.items():
            for steps in (20, 40):
                grid = GridSpec(1.0 / steps)
                points = [tuple(int(k * steps / 20) for k in perm)
                          for perm in itertools.islice(itertools.permutations(base), 0, 40, 5)]
                evaluate(build_test_density(n, grid), points, n, grid, 4)
        assert cli.main(["--table", "4", "--out", str(tmp_path / "table4.csv")]) == 0
        ok, _ = cli.run_verify()
    assert ok
    assert max(stack.size for stack in stacks) == 11 ** 5
    with mock.patch.object(quad, "_row_split", wraps=quad._row_split) as split, \
            _fsum_spy() as summed:
        got = [quad._row_sums(stack) for stack in stacks]
    assert split.call_count == 0 and summed == []
    assert [[v.hex() for v in sums] for sums in got] == [
        [math.fsum(row.tolist()).hex() for row in stack] for stack in stacks]
