"""Benchmark harness reproducing the accuracy tables for the Gaussian test
density as CSV, plus a self-verification mode cross-checking the numerical
layers.  Command-line flags are the only run input.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

import numpy as np

from . import engine, kernels, quad, specfun
from .errors import BiharmError
from .kernels import GridSpec, dim_value, int_value, order_value

__all__ = ["RunConfig", "RateRow", "run_table", "run_verify", "main"]

_CSV_HEADER = "n,M,h,x1,exact,approx,abs_err,rel_err,rate"

_TABLE_DIMS = {
    "1": (5, 10, 100, 10**3, 10**4, 10**5, 10**6, 10**7),
    "2": (5, 50, 500, 5000, 50000),
    "3": (10**5, 10**6, 10**7),
    "4": (3,),
}
_TABLE_ORDERS = {"1": (4,), "2": (4, 3, 2, 1), "3": (4, 3), "4": (4, 3, 2, 1)}
_REFINEMENT = (10, 20, 40, 80, 160)
_TABLE_STEPS = {"1": (40,), "2": _REFINEMENT, "3": _REFINEMENT, "4": _REFINEMENT}
_TABLE1_X1 = (0.0, 1.0, 2.0, 3.0, 4.0)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one table run (defaults match the benchmarks)."""

    table: str = "custom"
    dims: tuple = ()
    orders: tuple = ()
    steps: tuple = ()
    delta: float = GridSpec.delta

    def __post_init__(self) -> None:
        if self.table not in ("1", "2", "3", "4", "custom"):
            raise ValueError(f"unknown table selector {self.table!r}")
        if not self.dims or not self.orders or not self.steps:
            raise ValueError("dims, orders, and steps must all be nonempty")
        # whole numbers only: 5.5 is refused, 5.0 is stored (and printed) as 5
        store = functools.partial(object.__setattr__, self)
        store("dims", tuple(map(dim_value, self.dims)))
        store("orders", tuple(map(order_value, self.orders)))
        store("steps", tuple(map(_count, self.steps)))
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")


def _count(value) -> int:
    value = int_value(value, "reciprocal grid width 1/h")
    if value < 1:
        raise ValueError("reciprocal grid width 1/h must be at least 1")
    return value


# the run parameters a flag may set: all but the table
_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "table")


@dataclasses.dataclass(frozen=True)
class RateRow:
    """One benchmark measurement; rate is blank on the coarsest grid."""

    n: int
    M: int
    h: float
    x1: float
    exact: float
    approx: float
    abs_err: float
    rel_err: float
    rate: float | None


def _fmt(x: float) -> str:
    return f"{x:.15e}"


def _potential(n: int, M: int, h_inv: int, x1: float, delta: float) -> float:
    # engine functions are looked up at call time, so that wrappers put on
    # the engine module (the per-item timers of bench/child.py) see each call
    h = 1.0 / h_inv
    k1 = round(x1 * h_inv)
    if abs(x1 * h_inv - k1) > 1e-9:
        raise ValueError(f"x1 = {x1} does not lie on the grid h = 1/{h_inv}")
    grid = GridSpec(h=h, delta=delta)
    if n == 3:
        dens = engine.build_test_density(3, grid)
        return engine.evaluate(dens, [(k1, k1, k1)], 3, grid, M)[0].value
    return engine.evaluate_symmetric(engine.gaussian_potential_density(n), k1, grid, M).value


def _compute_rows(cfg: RunConfig) -> list:
    """Potential of the Gaussian test density along the refinement schedule.

    Points are x1 * e1 for n >= 5 (fast symmetric path) and x1 * (1,1,1) for
    n = 3 (general tensor path); the exact potential is e^{-|x|^2}.
    """
    x1_list = _TABLE1_X1 if cfg.table == "1" else (1.0,)
    rows = []
    for n in cfg.dims:
        for M in cfg.orders:
            for x1 in x1_list:
                prev = None
                for h_inv in cfg.steps:
                    approx = _potential(n, M, h_inv, x1, cfg.delta)
                    exact = math.exp(-(3.0 if n == 3 else 1.0) * x1 * x1)
                    abs_err = abs(approx - exact)
                    rel_err = abs_err / abs(exact)
                    rate = None
                    if prev is not None and prev > 0.0 and abs_err > 0.0:
                        rate = math.log2(prev / abs_err)
                    rows.append(RateRow(n=n, M=M, h=1.0 / h_inv, x1=x1, exact=exact,
                                        approx=approx, abs_err=abs_err,
                                        rel_err=rel_err, rate=rate))
                    prev = abs_err
    return rows


def _format_csv(rows: list) -> str:
    lines = [_CSV_HEADER]
    for r in rows:
        rate = "" if r.rate is None else _fmt(r.rate)
        lines.append(",".join([str(r.n), str(r.M), _fmt(r.h), _fmt(r.x1), _fmt(r.exact),
                               _fmt(r.approx), _fmt(r.abs_err), _fmt(r.rel_err), rate]))
    return "\n".join(lines) + "\n"


def run_table(cfg: RunConfig) -> str:
    """CSV document with one row per (n, M, h, point) of the configured table."""
    return _format_csv(_compute_rows(cfg))


def _printed_node_polys(x, t):
    """The hand-expanded node polynomials Q_M(x, t) and R_M(x, t), M = 1..4.

    Returns the tuples (Q_1..Q_4) and (R_1..R_4) as printed in the paper,
    written out term by term so that they share no code with the Hermite
    recurrence of quad.qm_poly / quad.rm_poly.
    """
    u = 1.0 + t
    q1 = np.ones_like(x)
    q2 = -x**2 / u**2 + 0.5 / u + 1.0
    q3 = q2 + x**4 / (2 * u**4) - 1.5 * x**2 / u**3 + 3.0 / (8 * u**2)
    q4 = (q3 - x**6 / (6 * u**6) + 1.25 * x**4 / u**5 - 15 * x**2 / (8 * u**4)
          + 5.0 / (16 * u**3))
    r1 = x**2 / u
    r2 = (-x**4 / u**3 + x**2 / u + 2.5 * x**2 / u**2 - 0.5 / u)
    r3 = (r2 + x**6 / (2 * u**5) - 3.5 * x**4 / u**4 + 39 * x**2 / (8 * u**3)
          - 0.75 / u**2)
    r4 = (r3 - x**8 / (6 * u**7) + 2.25 * x**6 / u**6 - 65 * x**4 / (8 * u**5)
          + 125 * x**2 / (16 * u**4) - 15.0 / (16 * u**3))
    return (q1, q2, q3, q4), (r1, r2, r3, r4)


# benchmark anchors of --verify: (name, n, 1/h, x1, error label, frozen
# error); each passes within a factor of 2 of its frozen error
_ANCHORS = (
    ("n=5 benchmark anchor (h=1/20)", 5, 20, 1.0, "abs_err", "7.0e-09"),
    ("n=1e4 benchmark anchor (x1=0)", 10**4, 40, 0.0, "rel_err", "2.58e-07"),
    ("n=5e4 benchmark anchor (h=1/40)", 5 * 10**4, 40, 1.0, "abs_err", "4.7e-07"),
    ("n=1e7 benchmark anchor (h=1/40)", 10**7, 40, 1.0, "abs_err", "9.5e-05"),
)


def _spread(count: int, step: float, lo: float, hi: float) -> np.ndarray:
    """lo + (hi - lo) frac(i step) for i = 1..count: the Weyl sequence of an
    irrational step, evenly spread over [lo, hi) and the same on every run,
    without the import of numpy.random."""
    return lo + (hi - lo) * (np.arange(1, count + 1) * step % 1.0)


# Weyl steps: the golden ratio's fractional part and that of sqrt(2), which
# together spread the (x, t) pairs over their rectangle
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SILVER = math.sqrt(2.0) - 1.0


def _rel_dev(approx, ref) -> float:
    if isinstance(approx, float) and isinstance(ref, float):
        return float(abs(approx - ref) / max(abs(ref), 1e-300))
    approx = np.asarray(approx, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(approx - ref) / np.maximum(np.abs(ref), 1e-300)))


def _within(dev: float, tol: float, label: str = "max_rel") -> tuple:
    """(ok, detail) of a deviation held against its tolerance."""
    return dev <= tol, f"{label}={dev:.2e} tol={tol:g}"


def _verify_checks():
    """Yield (name, ok, detail) for each cross-module invariant, in order.

    A check that raises a BiharmError fails with the error's text, and the
    checks after it still run.
    """
    for name, check in _invariants(quad.DEFAULT_RULE):
        try:
            ok, detail = check()
        except BiharmError as exc:
            ok, detail = False, str(exc)
        yield name, ok, detail


def _invariants(rule):
    """Yield (name, check) for each invariant of the rule; check() gives
    (ok, detail)."""

    def phi2_anchors():
        # closed-form values at r = 0 and r = 1, frozen from the explicit formulas
        euler_gamma = 0.5772156649015329
        e1_at_1 = 0.21938393439552029
        anchors = [
            (kernels.phi2(3, 0.0), -0.25),
            (kernels.phi2(4, 0.0), (euler_gamma - 1.0) / 16.0),
            (kernels.phi2(5, 0.0), 1.0 / 12.0),
            (kernels.phi2(6, 0.0), 1.0 / 32.0),
            (kernels.phi2(3, 1.0),
             -math.exp(-1.0) / 8.0 - math.sqrt(math.pi) / 16.0 * math.erf(1.0) * 3.0),
            (kernels.phi2(4, 1.0), (math.expm1(-1.0) - e1_at_1) / 16.0),
            (kernels.phi2(5, 1.0),
             (math.exp(-1.0) + math.sqrt(math.pi) * math.erf(1.0) / 2.0) / 16.0),
            (kernels.phi2(6, 1.0), math.exp(-1.0) / 16.0),
        ]
        return _within(max(_rel_dev(a, b) for a, b in anchors), 1e-13)

    yield "phi2 closed-form anchors", phi2_anchors

    nodes = rule.arrays()

    def transform_anchor():
        # node u = 0 of the default rule (a = 6, b = 5): Phi and Phi'/Phi,
        # with Phi' recovered from the weight tau * Phi * Phi'
        t0 = nodes.t[0]
        ref_t0 = math.exp(-30.0 + 6.0 * math.exp(-5.0))
        ref_ratio = 60.0 * (1.0 + math.exp(-5.0))
        return _within(max(abs(t0 / ref_t0 - 1.0),
                           abs(nodes.weight[0] / (rule.tau * t0 * t0) / ref_ratio - 1.0)),
                       1e-13)

    yield "double-exponential transform anchor", transform_anchor

    for n in (3, 5, 6, 10, 100):
        def integral(n=n):
            return _within(max(_rel_dev(quad.integral_phi2(n, r, rule), kernels.phi2(n, r))
                               for r in (0.0, 0.5, 1.0, 2.0, 4.0)), 1e-11)

        yield f"node-sum integral vs closed form, n={n}", integral

    xs = _spread(100, _GOLDEN, -3.0, 3.0)
    ts = _spread(100, _SILVER, 0.0, 10.0)
    q_refs, r_refs = _printed_node_polys(xs, ts)
    for m, q_ref, r_ref in zip((1, 2, 3, 4), q_refs, r_refs):
        def hermite(m=m, q_ref=q_ref, r_ref=r_ref):
            return _within(max(_rel_dev(quad.qm_poly(m, xs, ts), q_ref),
                               _rel_dev(quad.rm_poly(m, xs, ts), r_ref)), 1e-12)

        yield f"Hermite-sum vs printed polynomial, order {m}", hermite

    def spacing():
        half = quad.DEQuadrature(a=6.0, b=5.0, tau=0.0015, s_begin=0, s_end=600)
        return _within(max(_rel_dev(quad.integral_phi2(n, r, half), quad.integral_phi2(n, r, rule))
                           for n in (5, 10, 100) for r in (0.0, 1.0, 2.0)), 1e-12)

    yield "node-spacing self-consistency", spacing

    def tail():
        for n in (3, 5, 10, 100):
            for r in (0.0, 2.0):
                quad.integral_phi2(n, r, rule)
        return True, "last-node share below 1e-16"

    yield "node-sum tail certification", tail

    for n in (5, 6):
        def lattice_weight(n=n):
            ref = 16.0 * (math.pi * 5.0) ** (-n / 2.0) * quad.integral_phi2(n, 0.0, rule)
            return _within(_rel_dev(engine.tensor_weight((0,) * n, 1, 5.0, rule), ref), 1e-13)

        yield f"lattice weight at zero offset, n={n}", lattice_weight

    def lattice_delta():
        samples = np.zeros(21)
        samples[10 + 3] = 1.0
        [(table,)] = engine._sigma_tables([(samples, 3)], -10, 5.0, 1, rule)
        ref = 1.0 / math.sqrt(math.pi * 5.0 * (1.0 + nodes.t[40]))
        return _within(_rel_dev(float(table[40]), ref), 1e-14)

    yield "convolution of a lattice delta", lattice_delta

    def ladder():
        dev = 0.0
        radii = np.array([0.0, 0.5, 1.0, 2.0])
        for n in (3, 5, 6, 10):
            for m in (2, 3):
                step = (np.exp(-radii * radii) / 16.0
                        * specfun.gen_laguerre(m - 2, n / 2.0 - 1.0, radii * radii)
                        / ((m - 1) * m))
                diff = kernels.phi2M(n, m + 1, radii) - kernels.phi2M(n, m, radii)
                dev = max(dev, float(np.max(np.abs(diff - step))))
        return _within(dev, 1e-13, "max_abs")

    yield "order-increment ladder identity", ladder

    def saturation():
        eps0 = engine.saturation_epsilon0(1, 5.0, 5)
        return eps0 < 1e-19, f"eps0={eps0:.2e} tol=1e-19"

    yield "saturation error floor", saturation

    def direct_oracle():
        # direct summation oracle on a compactly supported rank-1 density
        # (zero-padded ends: the whole support is inside the sample window)
        h = 0.2
        grid = GridSpec(h=h, delta=5.0)
        m_half = 5
        inner = _spread(2 * m_half + 1, _GOLDEN, 0.5, 1.5)
        vec = np.zeros(2 * m_half + 3)
        vec[1:-1] = inner
        dens = engine.SeparatedDensity(weights=(1.0,), factors=((vec,) * 5,),
                                       m_lo=-(m_half + 1))
        box = functools.reduce(np.multiply.outer, (inner,) * 5)
        coords = np.floor(_spread(3 * 5, _SILVER, -3.0, 4.0)).astype(int).tolist()
        points = [tuple(coords[5 * i:5 * i + 5]) for i in range(3)]
        dev = 0.0
        tensor = engine.evaluate(dens, points, 5, grid, 1, rule)
        for sample, point in zip(tensor, points):
            direct = kernels.direct_cubature(box, grid, 1,
                                             np.asarray(point, dtype=float) * h, 5)
            dev = max(dev, abs(sample.value / direct.value - 1.0))
        return _within(dev, 1e-10)

    yield "tensor path vs direct summation", direct_oracle

    def symmetric():
        dev = 0.0
        for n in (5, 6, 8):
            grid = GridSpec(h=0.1, delta=5.0)
            dens = engine.gaussian_potential_density(n)
            full = engine.evaluate(engine.separated_expansion(dens, grid),
                                   [(10,) + (0,) * (n - 1)], n, grid, 2, rule)[0].value
            fast = engine.evaluate_symmetric(dens, 10, grid, 2, rule).value
            dev = max(dev, abs(fast / full - 1.0))
        return _within(dev, 1e-12)

    yield "symmetric path vs tensor path", symmetric

    for name, n, h_inv, x1, label, expected in _ANCHORS:
        def anchor(n=n, h_inv=h_inv, x1=x1, label=label, expected=expected):
            err = abs(_potential(n, 4, h_inv, x1, 5.0) - math.exp(-x1 * x1))
            ref = float(expected)
            return ref / 2 <= err <= 2 * ref, f"{label}={err:.2e} expected~{expected}"

        yield name, anchor


def run_verify():
    """Run the invariant suite; returns (all_passed, report lines)."""
    lines = []
    n_pass = n_fail = 0
    for name, ok, detail in _verify_checks():
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:45s} {detail}")
        if ok:
            n_pass += 1
        else:
            n_fail += 1
    lines.append(f"full verification: {n_pass}/{n_pass + n_fail} checks passed")
    return n_fail == 0, lines


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="biharm",
        description="Benchmark high-order cubature of n-dimensional biharmonic "
                    "potentials on the Gaussian test density.")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", choices=("1", "2", "3", "4", "custom"),
                      help="emit a benchmark table as CSV")
    mode.add_argument("--verify", choices=("full",),
                      help="run the cross-module invariant suite")
    p.add_argument("--dims", type=int, nargs="+", metavar="N",
                   help="dimensions (default: the selected table's)")
    p.add_argument("--orders", type=int, nargs="+", metavar="M",
                   help="basis orders M, accuracy h^(2M)")
    p.add_argument("--steps", type=int, nargs="+", metavar="INV_H",
                   help="reciprocal grid widths 1/h")
    p.add_argument("--delta", type=float,
                   help=f"Gaussian shape parameter D (default {RunConfig.delta})")
    p.add_argument("--out", help="write CSV here instead of stdout")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verify is not None:
        ok, lines = run_verify()
        print("\n".join(lines))
        return 0 if ok else 1

    table = args.table
    # the table's schedule, overlaid by the flags given; RunConfig's own
    # defaults fill the rest
    params = {"dims": _TABLE_DIMS.get(table, ()), "orders": _TABLE_ORDERS.get(table, ()),
              "steps": _TABLE_STEPS.get(table, ()),
              **{key: getattr(args, key) for key in _PARAM_KEYS
                 if getattr(args, key) is not None}}
    try:
        if table == "1" and (args.steps or args.orders):
            raise ValueError("table 1 is defined at fixed h = 0.025, M = 4; "
                             "use --table custom to vary them")
        cfg = RunConfig(table=table, **params)
        try:
            csv_text = run_table(cfg)
        except ArithmeticError as exc:
            # the bare text ("intermediate overflow in fsum") names no input;
            # delta is the only floating-point flag, so name it
            raise ValueError(f"the run leaves the floating-point range at "
                             f"delta = {cfg.delta}: {exc}") from exc
    except (BiharmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(csv_text)
        else:
            sys.stdout.write(csv_text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
