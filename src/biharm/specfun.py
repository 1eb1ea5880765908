"""Special functions of the closed-form kernels, from numpy and the math module.

erf, the exponential integral E1 = Gamma(0, x) and the lower incomplete gamma
quotient gamma(a, x) / x^a, plus the generalized Laguerre recurrence.  Each
of the first three splits its arguments in two:

* past the end of a transition band a closed-form limit: erf = +-1, E1 = 0,
  gamma(a, x) / x^a = Gamma(a) x^-a.  The band ends where the dropped e^{-x}
  part is below half an ulp of the limit.
* inside the band each argument is evaluated alone in Python floats with its
  own early exit: a positive series for gamma(a, x) below x = a + 1 (the
  power series of E1 below x = 1.75), Legendre's continued fraction for
  Gamma(a, x) above, math.erf for erf and for gamma(1/2, x) = sqrt(pi) erf(sqrt x).

A 0-d argument (a Python or numpy number, a 0-d array) is evaluated as a
Python float, by the one branch it falls in, and gives a float; an array
runs each branch once, on the elements it holds, and skips a branch that
holds none (_branches).  Each branch is one body for both: numpy ufuncs
called on a float round as their array loops do, so the limits take x
through np.sign and np.power, never through ** on a float (libm's pow),
which rounds some powers differently.  So a scalar call and an array call
make the same operations on each element and agree bit for bit.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import NonConvergence

__all__ = ["erf", "exp1", "gamma_quotient", "gen_laguerre"]

_EULER_GAMMA = 0.5772156649015329
_SQRT_PI = math.sqrt(math.pi)
# a series stops at the first term below this share of its sum
_SERIES_EPS = 2.0 ** -56
# a continued fraction stops at a step within an ulp of 1, so that rounding
# noise in the step cannot keep it going
_FRACTION_EPS = 2.0 ** -52
_FRACTION_STEPS = 1000
# erfc(6) = 2.2e-17 is below half an ulp of 1
_ERF_ONE = 6.0
# E1(x) < e^-x / x underflows to 0
_E1_ZERO = 746.0
# below this x E1 comes from its power series, where the continued fraction
# converges slowly and rounds more; the series keeps its terms above
# _E1_TERM, and E1 > 0.069 there, so what it drops is below 2^-56 of E1
_E1_FRACTION = 1.75
_E1_TERM = 2.0 ** -60
# Gamma(a) is finite below _GAMMA_MAX; Gamma(a) x^-a underflows from _GAMMA_ZERO
_GAMMA_MAX = 170.0
_GAMMA_ZERO = 745.0


def _operand(x):
    """x as a Python float when it is 0-d (a Python or numpy number, a 0-d
    array), otherwise as a float array."""
    if isinstance(x, (float, int)):
        return float(x)
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


def _any(holds) -> bool:
    """Whether a comparison of an operand holds anywhere: the bool of a
    float's, the any() of an array's."""
    return bool(holds.any()) if isinstance(holds, np.ndarray) else holds


def _branches(x, far, limit, near):
    """limit where far holds and near elsewhere, NaN included (its
    comparisons are False), of an _operand x and far, its comparison.

    A float goes through the one branch it falls in and gives a float.  An
    array gives an array: a branch runs once on the elements it holds, on
    the whole array when it holds them all, and not at all when it holds none.
    """
    if isinstance(x, float):
        return float(limit(x) if far else near(x))
    if not x.size:
        return np.empty(x.shape)
    held = np.count_nonzero(far)
    if held in (0, x.size):
        value = (limit if held else near)(x)
        # a branch may give one value for all its elements
        return value if np.shape(value) == x.shape else np.full(x.shape, value)
    out = np.empty(x.shape)
    out[far] = limit(x[far])
    rest = ~far
    out[rest] = near(x[rest])
    return out


def _each(fn):
    """fn of one float, taken by a float alone and by an array element by element."""
    def apply(x):
        if isinstance(x, float):
            return fn(x)
        return np.array([fn(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return apply


def erf(x):
    """Error function: math.erf inside |x| < 6, +-1 outside."""
    x = _operand(x)
    return _branches(x, abs(x) >= _ERF_ONE, np.sign, _each(math.erf))


def exp1(x):
    """Exponential integral E1(x) = Gamma(0, x) for x > 0."""
    x = _operand(x)
    if _any(x <= 0.0):
        raise ValueError("exp1 requires x > 0")
    return _branches(x, x >= _E1_ZERO, lambda v: 0.0, _each(_exp1))


def gamma_quotient(a: float, x):
    """gamma(a, x) / x^a = int_0^1 s^(a-1) e^(-x s) ds for a > 0, x >= 0;
    its value at x = 0 is 1 / a."""
    a = float(a)
    if not a > 0.0:
        raise ValueError("gamma_quotient requires a > 0")
    x = _operand(x)
    if _any(x < 0.0):
        raise ValueError("gamma_quotient requires x >= 0")
    return _branches(x, x >= _band_end(a), functools.partial(_gamma_power, a),
                     _each(functools.partial(_quotient, a)))


def _gamma_power(a, x, power=np.power):
    """Gamma(a) x^-a for x >= a + 1, the limit of gamma(a, x) / x^a; x a
    float or an array.

    x^-a is applied in two halves, so it cannot underflow before the value
    does.  Gamma(a) overflows from a = 171.6, so a larger a starts from
    b = a - m below _GAMMA_MAX and multiplies in (b + i) / x < 1 for
    i < m.  From a = _GAMMA_ZERO on the value, at most
    Gamma(a) (a + 1)^-a < sqrt(2 pi / a) e^-a, is below every subnormal.

    The far limit takes the halves by np.power, whose float call rounds as
    its array loop does; the band of _quotient takes them by ** on floats,
    libm's pow, which rounds some of them differently."""
    if a >= _GAMMA_ZERO:
        return 0.0
    m = max(0, math.ceil(a - _GAMMA_MAX))
    b = a - m
    half = power(x, -0.5 * b)
    value = math.gamma(b) * half * half
    for i in range(m):
        value = value * ((b + i) / x)
    return value


@functools.lru_cache(maxsize=64)
def _band_end(a: float) -> float:
    """An x past which e^-x x^-a Gamma(a, x) < 2^-54 Gamma(a) x^-a.

    For x > a, x^-a e^x Gamma(a, x) <= 1 / (x + 1 - max(a, 1)), so the
    condition holds where g(x) = x + log(x + 1 - max(a, 1)) + lgamma(a)
    - a log(x) - 54 log(2) >= 0; g increases for x > a, and the root is found
    by bisection on [a + 1, 2a + 100], where g changes sign."""
    def g(x):
        return (x + math.log(x + 1.0 - max(a, 1.0)) + math.lgamma(a) - a * math.log(x)
                - 54.0 * math.log(2.0))

    lo, hi = a + 1.0, 2.0 * a + 100.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def _quotient(a: float, x: float) -> float:
    if a == 0.5 and x > 0.0:
        r = math.sqrt(x)
        return _SQRT_PI * math.erf(r) / r
    if x < a + 1.0:
        return math.exp(-x) * _lower_series(a, x)
    return _gamma_power(a, x, operator.pow) - math.exp(-x) * _upper_fraction(a, x)


def _lower_series(a: float, x: float) -> float:
    """e^x gamma(a, x) / x^a = sum_k x^k / (a (a+1) ... (a+k)), positive terms."""
    term = total = 1.0 / a
    k = a
    while term > _SERIES_EPS * total:
        k += 1.0
        term *= x / k
        total += term
    return total


def _upper_fraction(a: float, x: float) -> float:
    """e^x x^-a Gamma(a, x) for x >= max(a + 1, 1), by Legendre's continued
    fraction 1/(x+1-a - 1(1-a)/(x+3-a - 2(2-a)/(x+5-a - ...))).  Modified
    Lentz finds the depth at which it has converged; the value is then formed
    from that depth backwards, which rounds less than Lentz's running product
    (6 against 16 ulps at x near 1)."""
    b = x + 1.0 - a
    c = math.inf
    d = 1.0 / b
    for depth in range(1, _FRACTION_STEPS):
        an = -depth * (depth - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        if not abs(d * c - 1.0) > _FRACTION_EPS:
            break
    else:
        raise NonConvergence(f"incomplete-gamma fraction did not converge at a={a}, x={x}")
    f = x + (2.0 * depth + 1.0 - a)
    for i in range(depth, 0, -1):
        f = x + (2.0 * i - 1.0 - a) - i * (i - a) / f
    return 1.0 / f


def _exp1(x: float) -> float:
    if x >= _E1_FRACTION:
        return math.exp(-x) * _upper_fraction(0.0, x)
    # E1(x) = -gamma - log(x) - sum_{k>=1} (-x)^k / (k k!); the terms cancel
    # up to 16-fold below x = 1.75, so they are summed exactly
    terms = [-_EULER_GAMMA, -math.log(x)]
    power = 1.0
    k = 0.0
    while abs(power) > _E1_TERM:
        k += 1.0
        power *= -x / k
        terms.append(-power / k)
    return math.fsum(terms)


def gen_laguerre(k: int, gamma: float, y):
    """Generalized Laguerre polynomial L_k^{(gamma)}(y), gamma > -1.

    Uses the stable three-term recurrence
    (j+1) L_{j+1} = (2j + 1 + gamma - y) L_j - (j + gamma) L_{j-1}.
    """
    if k < 0:
        raise ValueError("gen_laguerre requires k >= 0")
    if not gamma > -1.0:
        raise ValueError("gen_laguerre requires gamma > -1")
    y = _operand(y)
    if k == 0:
        return 1.0 if isinstance(y, float) else np.ones_like(y)
    l_prev = 1.0
    l = 1.0 + gamma - y
    for j in range(1, k):
        l, l_prev = ((2.0 * j + 1.0 + gamma - y) * l - (j + gamma) * l_prev) / (j + 1.0), l
    return l
