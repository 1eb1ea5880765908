"""Shared test configuration.

Reference values in the suite come from two kinds of oracle: independent
high-precision evaluation with mpmath (set to 40 digits here, well beyond
binary64), and frozen measurements of the shipped default configuration.
Frozen numbers are written out as literals next to the assertion that uses
them so a failing test shows the expectation without indirection.
"""

import mpmath
import numpy as np
import pytest

from biharm import engine, quad

mpmath.mp.dps = 40


_RULE = quad.DEFAULT_RULE


@pytest.fixture(autouse=True)
def _default_rule_is_restored(request):
    """Fail a test that leaves quad.DEFAULT_RULE on another rule, and put the
    rule back: no engine cache key names the rule, so the tests after it
    would read blocks and tables of the wrong one."""
    yield
    if quad.DEFAULT_RULE is not _RULE:
        left = quad.DEFAULT_RULE
        quad.DEFAULT_RULE = _RULE
        engine._ROW_BLOCKS.clear()
        engine._axis_nodes.cache_clear()
        pytest.fail(f"{request.node.nodeid} left quad.DEFAULT_RULE on {left!r}", pytrace=False)


@pytest.fixture(scope="session")
def rule():
    return _RULE


def _agrees_for_every_type(fn, values):
    """fn of a float array against fn of each value given as a Python float,
    an np.float64, a 0-d array and, where it is whole, a Python int (-0.0
    has none), each a float, and as a one-element array, an array: all bit
    for bit.  fn of an empty array is an empty array.  Returns fn(values)."""
    values = np.asarray(values, dtype=float)
    arr = fn(values)
    assert isinstance(arr, np.ndarray) and arr.shape == values.shape
    for v, want in zip(values.tolist(), arr):
        args = [v, np.float64(v), np.array(v)]
        if v.is_integer() and float(int(v)).hex() == v.hex():
            args.append(int(v))
        for arg in args:
            got = fn(arg)
            assert type(got) is float, (v, type(arg), type(got))
            assert np.float64(got).tobytes() == want.tobytes(), (v, type(arg), got, want)
        one = fn(np.array([v]))
        assert isinstance(one, np.ndarray) and one.shape == (1,), v
        assert one.tobytes() == want.tobytes(), (v, one, want)
    empty = fn(np.empty(0))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)
    return arr


@pytest.fixture(scope="session")
def agrees_for_every_type():
    return _agrees_for_every_type


@pytest.fixture(scope="session")
def far_radii():
    """Radii past which r^2, 2 r^2 or 16 r^2 overflows in the closed-form
    profiles, and r = inf."""
    return (1e150, 3.4e153, 1e154, 1e155, 1e200, np.inf)
