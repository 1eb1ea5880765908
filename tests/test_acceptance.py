"""End-to-end acceptance gates.

Each test covers one release criterion and prints a single PASS/FAIL line,
so the verbose test log doubles as the acceptance report. Error gates allow
a factor of two around the frozen reference errors and 0.15 (0.05 where the
criterion is rate-only) around frozen rates: absolute errors are sensitive
to unpinned details such as the exact quadrature node range, while rates
are ratios and cancel most of that. Reference cells whose frozen value sits
below 1e-12 are at the shape-parameter saturation floor; there the run may
beat the reference but must not exceed twice its value, and rate gates are
skipped because ratios of floor noise carry no information.
"""

import csv
import time

import pytest

from biharm.cli import RunConfig, _verify_checks, run_table

FLOOR = 1e-12

# frozen reference errors and rates of the shipped defaults: n = 5 test
# density at x = e_1, orders 1..4, reciprocal steps 10..160
SMALL_N_ERRS = {
    1: (2.6e-2, 6.8e-3, 1.7e-3, 4.3e-4, 1.1e-4),
    2: (7.4e-4, 4.9e-5, 3.1e-6, 2.0e-7, 1.2e-8),
    3: (3.0e-5, 5.3e-7, 8.6e-9, 1.3e-10, 2.1e-12),
    4: (1.5e-6, 7.0e-9, 2.9e-11, 1.5e-13, 3.8e-14),
}
SMALL_N_RATES = {
    1: (1.95, 1.99, 2.00, 2.00),
    2: (3.91, 3.98, 3.99, 4.00),
    3: (5.83, 5.96, 5.99, 5.97),
    4: (7.77, 7.94, 7.55, 2.02),
}

# n = 3 density at (1, 1, 1), same step schedule
THREE_DIM_RATES = {
    1: (1.96, 1.99, 2.00, 2.00),
    2: (3.92, 3.98, 3.99, 4.00),
}

# relative errors at the origin with order 4, h = 0.025, per dimension
AXIS_ORIGIN_RELS = {5: 1.29e-10, 100: 2.58e-9, 10 ** 4: 2.58e-7, 10 ** 6: 2.58e-5}


def _report(name, failures, detail):
    ok = not failures
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {failures}"


def _rows(cfg):
    lines = run_table(cfg).strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, row)) for row in csv.reader(lines[1:])]


def _series(rows, n, M):
    picked = [r for r in rows if r["n"] == str(n) and r["M"] == str(M)]
    errs = [float(r["abs_err"]) for r in picked]
    rates = [float(r["rate"]) for r in picked if r["rate"] != ""]
    return errs, rates


def test_c01_small_dimension_errors_and_rates():
    start = time.time()
    cfg = RunConfig(table="custom", dims=(5,), orders=(1, 2, 3, 4),
                    steps=(10, 20, 40, 80, 160))
    rows = _rows(cfg)
    failures = []
    worst_ratio, worst_rate = 1.0, 0.0
    for M in (1, 2, 3, 4):
        errs, rates = _series(rows, 5, M)
        for ref, got in zip(SMALL_N_ERRS[M], errs):
            if ref >= FLOOR:
                if not ref / 2 <= got <= ref * 2:
                    failures.append((M, "err", ref, got))
                worst_ratio = max(worst_ratio, got / ref, ref / got)
            elif got > ref * 2:
                failures.append((M, "floor", ref, got))
        for i, (ref, got) in enumerate(zip(SMALL_N_RATES[M], rates)):
            if SMALL_N_ERRS[M][i + 1] > FLOOR:
                if abs(got - ref) > 0.15:
                    failures.append((M, "rate", ref, got))
                worst_rate = max(worst_rate, abs(got - ref))
    elapsed = time.time() - start
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report("small-dimension accuracy table",
            failures,
            f"worst err ratio {worst_ratio:.2f}, worst rate dev {worst_rate:.3f}, "
            f"{elapsed:.1f}s")


def test_c02_large_dimension_fast_path():
    start = time.time()
    cfg = RunConfig(table="custom", dims=(5 * 10 ** 4, 10 ** 7), orders=(4,),
                    steps=(20, 40))
    rows = _rows(cfg)
    failures = []
    errs_5e4, _ = _series(rows, 5 * 10 ** 4, 4)
    if not 4.7e-7 / 2 <= errs_5e4[1] <= 4.7e-7 * 2:
        failures.append(("err n=5e4", errs_5e4[1]))
    errs_1e7, rates_1e7 = _series(rows, 10 ** 7, 4)
    if not 9.5e-5 / 2 <= errs_1e7[1] <= 9.5e-5 * 2:
        failures.append(("err n=1e7", errs_1e7[1]))
    if abs(rates_1e7[0] - 7.91) > 0.2:
        failures.append(("rate n=1e7", rates_1e7[0]))
    elapsed = time.time() - start
    if elapsed >= 300.0:
        failures.append(("runtime", elapsed))
    _report("large-dimension fast path",
            failures,
            f"err(5e4)={errs_5e4[1]:.2e}, err(1e7)={errs_1e7[1]:.2e}, "
            f"rate={rates_1e7[0]:.2f}, {elapsed:.1f}s")


def test_c03_axis_benchmark_origin_errors():
    start = time.time()
    cfg = RunConfig(table="1", dims=tuple(AXIS_ORIGIN_RELS), orders=(4,),
                    steps=(40,))
    rows = _rows(cfg)
    failures = []
    got_at_origin = {}
    for n, ref in AXIS_ORIGIN_RELS.items():
        origin = [r for r in rows if r["n"] == str(n) and float(r["x1"]) == 0.0]
        rel = float(origin[0]["rel_err"])
        got_at_origin[n] = rel
        if not ref / 2 <= rel <= ref * 2:
            failures.append((n, rel))
    elapsed = time.time() - start
    if elapsed >= 300.0:
        failures.append(("runtime", elapsed))
    detail = ", ".join(f"n={n}: {v:.2e}" for n, v in got_at_origin.items())
    _report("axis benchmark at the origin", failures, f"{detail}, {elapsed:.1f}s")


def test_c04_three_dimensional_path():
    start = time.time()
    cfg = RunConfig(table="custom", dims=(3,), orders=(4, 2, 1),
                    steps=(10, 20, 40, 80, 160))
    rows = _rows(cfg)
    failures = []
    errs4, _ = _series(rows, 3, 4)
    if not 2.36e-7 / 2 <= errs4[0] <= 2.36e-7 * 2:
        failures.append(("order-4 err", errs4[0]))
    worst = 0.0
    for M, refs in THREE_DIM_RATES.items():
        _, rates = _series(rows, 3, M)
        for ref, got in zip(refs, rates):
            worst = max(worst, abs(got - ref))
            if abs(got - ref) > 0.05:
                failures.append((M, "rate", ref, got))
    elapsed = time.time() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report("three-dimensional path",
            failures,
            f"order-4 err {errs4[0]:.2e}, worst rate dev {worst:.3f}, "
            f"{elapsed:.1f}s")


# the --verify registry lines each criterion asserts; the benchmark anchors
# repeat single cells of the table gates c01-c03
VERIFY_LINES = {
    "c05": ("double-exponential transform anchor",
            *(f"node-sum integral vs closed form, n={n}" for n in (3, 5, 6, 10, 100)),
            "node-spacing self-consistency", "node-sum tail certification",
            "lattice weight at zero offset, n=5", "lattice weight at zero offset, n=6"),
    "c06": ("convolution of a lattice delta", "tensor path vs direct summation",
            "symmetric path vs tensor path"),
    "c07": tuple(f"Hermite-sum vs printed polynomial, order {m}" for m in (1, 2, 3, 4)),
    "c08": ("phi2 closed-form anchors", "order-increment ladder identity"),
    "c09": ("saturation error floor",),
    "anchors": ("n=5 benchmark anchor (h=1/20)", "n=1e4 benchmark anchor (x1=0)",
                "n=5e4 benchmark anchor (h=1/40)", "n=1e7 benchmark anchor (h=1/40)"),
}


@pytest.fixture(scope="module")
def registry():
    """One run of the full --verify registry: name -> (ok, detail)."""
    return {name: (ok, detail) for name, ok, detail in _verify_checks()}


def _report_lines(name, registry, key):
    lines = VERIFY_LINES[key]
    failures = [line for line in lines if not registry[line][0]]
    _report(name, failures, "; ".join(f"{line}: {registry[line][1]}" for line in lines))


def test_c05_quadrature_against_closed_forms(registry):
    _report_lines("quadrature vs closed forms", registry, "c05")


def test_c06_independent_summation_routes_agree(registry):
    _report_lines("independent summation routes", registry, "c06")


def test_c07_node_polynomial_fixtures(registry):
    _report_lines("node polynomial fixtures", registry, "c07")


def test_c08_kernel_ladder_identity(registry):
    _report_lines("kernel ladder identity", registry, "c08")


def test_c09_saturation_error_negligible(registry):
    _report_lines("saturation error negligible", registry, "c09")


def test_verify_registry_is_asserted(registry):
    # every --verify line belongs to exactly one criterion above
    claimed = [line for lines in VERIFY_LINES.values() for line in lines]
    assert sorted(claimed) == sorted(registry)
    _report_lines("verify benchmark anchors", registry, "anchors")


def test_c10_byte_identical_reruns():
    cfg = RunConfig(table="custom", dims=(3,), orders=(2,), steps=(10, 20))
    first = run_table(cfg)
    second = run_table(cfg)
    failures = [] if first == second else ["outputs differ"]
    _report("byte-identical reruns", failures,
            f"{len(first.encode())} bytes compared")
