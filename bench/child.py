"""One pass of a biharm benchmark workload, measured in a fresh interpreter.

    python bench/child.py --root ROOT --workload NAME --seed N --trace 0|1 [--spans PATH]

``run.py`` starts this script once per pass with PYTHONPATH and the
BLAS/OpenMP thread caps set.  It times ``import biharm`` plus the first
``DEFAULT_RULE.arrays()`` (set-up), then one pass of the workload (run),
checks every output against ``reference.json`` and prints one JSON object
as the last line of standard output.  With ``--trace 1`` the layer
functions are wrapped by ``tracer.Tracer`` during the run.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REL_TOL = 1e-14


def _options(argv):
    # parsed by hand: argparse would import modules before the timed
    # `import biharm` that the library's own import should pay for
    opts = {}
    for key, value in zip(argv[::2], argv[1::2]):
        opts[key.lstrip("-")] = value
    return opts


def main(argv) -> int:
    opts = _options(argv)
    src = os.path.join(os.path.abspath(opts["root"]), "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import biharm
    t1 = time.perf_counter()
    biharm.DEFAULT_RULE.arrays()
    t2 = time.perf_counter()
    if not os.path.realpath(biharm.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"biharm was imported from {biharm.__file__}, not from {src}", file=sys.stderr)
        return 3

    import json

    import biharm.cli  # noqa: F401  (loaded before the tracer patches modules)

    from tracer import Tracer

    workload = opts["workload"]
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[workload]
    tracer = Tracer() if opts.get("trace") == "1" else None
    res = RUNNERS[workload](int(opts["seed"]), ref, tracer)
    res.update(workload=workload, seed=int(opts["seed"]), traced=tracer is not None,
               setup_s=t2 - t0, rule_arrays_s=t2 - t1, host=_host(biharm))
    if tracer is not None:
        res["layers"] = tracer.metrics()
        if opts.get("spans"):
            tracer.write(opts["spans"])
    print(json.dumps(res))
    return 0


def _host(biharm) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"biharm": biharm.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")}}


class _Instrument:
    """Installs the tracer (if any), then item timers; undoes both on exit."""

    def __init__(self, tracer, patches=()):
        self.tracer = tracer
        self.patches = patches
        self.undo = []

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.install()
        for mod, name, make in self.patches:
            orig = getattr(mod, name)
            setattr(mod, name, make(orig))
            self.undo.append((mod, name, orig))
        return self

    def __exit__(self, *exc):
        for mod, name, orig in reversed(self.undo):
            setattr(mod, name, orig)
        if self.tracer is not None:
            self.tracer.restore()
        return False


def _timed_calls(items):
    """Wrapper factory: append the duration of each call to items."""
    import functools

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                items.append(time.perf_counter() - t)
        return wrapper
    return make


def _timed_yields(items):
    """Like _timed_calls for a generator: one item per yielded value."""
    import functools

    def make(gen_fn):
        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            last = time.perf_counter()
            for item in gen_fn(*args, **kwargs):
                items.append(time.perf_counter() - last)
                yield item
                last = time.perf_counter()
        return wrapper
    return make


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def _run_cli(argv, patches, tracer):
    """Run biharm.cli.main(argv) capturing stdout; returns (rc, text, run_s, errors)."""
    import contextlib
    import io
    import traceback

    import biharm.cli as cli

    out = io.StringIO()
    errors = []
    with _Instrument(tracer, patches), contextlib.redirect_stdout(out):
        t = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:
            rc = None
            errors.append(traceback.format_exc(limit=3))
        run_s = time.perf_counter() - t
    return rc, out.getvalue(), run_s, errors


def run_axis(seed, ref, tracer) -> dict:
    import hashlib

    import biharm.engine as engine
    from workloads import axis_argv

    items = []
    rc, text, run_s, errors = _run_cli(
        axis_argv(seed), [(engine, "evaluate_symmetric", _timed_calls(items))], tracer)
    rss = _peak_rss_mb()

    ref_lines = ref["csv"]

    def key(line):
        return tuple(line.split(",")[:3])

    expected = {key(line): line for line in ref_lines[1:]}
    got_lines = text.splitlines()
    got = {key(line): line for line in got_lines[1:]}
    failed = deviations = 0
    if rc != 0 or not got_lines or got_lines[0] != ref_lines[0]:
        failed = len(expected)
        errors.append(f"exit code {rc}, header {got_lines[:1]}")
    else:
        for k, line in expected.items():
            mine = got.get(k)
            if mine == line:
                continue
            if mine is not None and _row_close(mine, line):
                deviations += 1
            else:
                failed += 1
                errors.append(f"row {k}: {mine!r} != {line!r}")
        failed += len(set(got) - set(expected))
    canonical = "\n".join([ref_lines[0]] + [got.get(k, "") for k in expected]) + "\n"
    return {"run_s": run_s, "items_ms": [1000.0 * s for s in items],
            "attempted": max(len(expected), len(got)), "failed": failed,
            "deviations": deviations, "errors": errors[:5], "peak_rss_mb": rss,
            "sha256_match": hashlib.sha256(canonical.encode()).hexdigest() == ref["sha256"]}


def _row_close(mine: str, ref: str) -> bool:
    """Same n, M, h, x1 and exact value; approx within REL_TOL of the reference."""
    a, b = mine.split(","), ref.split(",")
    return len(a) == len(b) and a[:5] == b[:5] and _rel_close(float(a[5]), float(b[5]))


def run_tensor(seed, ref, tracer) -> dict:
    import traceback

    import biharm.engine as engine
    from biharm.kernels import GridSpec
    from workloads import tensor_calls

    cases = ref["cases"]
    calls = [(c, [tuple(cases[c]["points"][i]) for i in idx], idx)
             for c, idx in tensor_calls(seed, [len(case["points"]) for case in cases])]
    items, results, errors = [], [], []
    with _Instrument(tracer):
        t = time.perf_counter()
        dens = {}
        for c, points, _ in calls:
            n, h_inv, M = cases[c]["n"], cases[c]["h_inv"], cases[c]["M"]
            if (n, h_inv) not in dens:
                grid = GridSpec(h=1.0 / h_inv)
                dens[n, h_inv] = (grid, engine.build_test_density(n, grid))
            grid, density = dens[n, h_inv]
            t_item = time.perf_counter()
            try:
                results.append(engine.evaluate(density, points, n, grid, M))
            except Exception:
                results.append(None)
                errors.append(traceback.format_exc(limit=3))
            items.append(time.perf_counter() - t_item)
        run_s = time.perf_counter() - t
    rss = _peak_rss_mb()

    failed = deviations = 0
    for (c, _, idx), samples in zip(calls, results):
        values = cases[c]["values"]
        ok = samples is not None and len(samples) == len(idx)
        for i, s in zip(idx, samples or ()):
            if s.value == values[i]:
                continue
            if _rel_close(s.value, values[i]):
                deviations += 1
            else:
                ok = False
                errors.append(f"case {c} point {i}: {s.value!r} != {values[i]!r}")
        failed += not ok
    return {"run_s": run_s, "items_ms": [1000.0 * s for s in items],
            "attempted": len(calls), "failed": failed, "deviations": deviations,
            "errors": errors[:5], "peak_rss_mb": rss}


def run_verify(seed, ref, tracer) -> dict:
    import biharm.cli as cli

    if not hasattr(cli, "_verify_checks"):
        raise SystemExit("cold-verify times each check through biharm.cli._verify_checks, "
                         "which this version lacks; update bench/child.py")
    items = []
    rc, text, run_s, errors = _run_cli(
        ["--verify", "full"], [(cli, "_verify_checks", _timed_yields(items))], tracer)
    rss = _peak_rss_mb()

    expected = [line for line in ref["report"] if line.startswith(("PASS", "FAIL"))]
    got = [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
    failed = sum(line.startswith("FAIL") for line in got) + max(0, len(expected) - len(got))
    if rc != 0 and failed == 0:
        failed = len(expected)
        errors.append(f"exit code {rc}")
    deviations = sum(1 for a, b in zip(got, expected) if a != b and a.startswith("PASS"))
    return {"run_s": run_s, "items_ms": [1000.0 * s for s in items],
            "attempted": max(len(expected), len(got)), "failed": failed,
            "deviations": deviations, "errors": errors[:5], "peak_rss_mb": rss}


RUNNERS = {"axis-convergence": run_axis, "tensor-batch": run_tensor,
           "cold-verify": run_verify}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
