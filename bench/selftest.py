"""Tests of the benchmark itself (not collected by the library's test run).

    python3 -m pytest -q bench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from run import import_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402

COUNT_SUFFIXES = (".calls", ".elems", ".distinct_ratio", "engine.points")


def _reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_same_seed_gives_same_workload():
    sizes = [len(c["points"]) for c in _reference()["tensor-batch"]["cases"]]
    assert workloads.axis_argv(11) == workloads.axis_argv(11)
    assert workloads.tensor_calls(11, sizes) == workloads.tensor_calls(11, sizes)
    assert workloads.tensor_calls(11, sizes) != workloads.tensor_calls(12, sizes)
    argv = workloads.axis_argv(12)
    dims = argv[argv.index("--dims") + 1:argv.index("--orders")]
    assert sorted(map(int, dims)) == sorted(workloads.TABLE2_DIMS)


def test_committed_pool_matches_workload_definition():
    cases = _reference()["tensor-batch"]["cases"]
    assert [{k: c[k] for k in ("n", "h_inv", "M", "points")} for c in cases] \
        == workloads.tensor_pool()


def test_wrappers_restore_original_functions():
    import biharm
    import biharm.cli  # noqa: F401
    import biharm.engine
    import biharm.quad

    modules = [m for k, m in sys.modules.items() if k == "biharm" or k.startswith("biharm.")]
    before = [(m, dict(vars(m))) for m in modules]
    original = biharm.quad.qm_poly
    tracer = Tracer()
    tracer.install()
    try:
        assert biharm.engine.qm_poly is biharm.quad.qm_poly is biharm.qm_poly
        assert biharm.engine.qm_poly is not original
        biharm.quad.qm_poly(2, 0.5, 0.25)
    finally:
        tracer.restore()
    assert tracer.metrics()["quad.qm_poly.calls"] == 1
    for mod, attrs in before:
        now = vars(mod)
        assert all(now[k] is v for k, v in attrs.items()), mod.__name__


def test_import_seconds_sums_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy.special._ufuncs",
        "import time:        20 |         30 |   scipy.special._basic",
        "import time:         5 |          5 |   scipy.special._logsumexp",
        "import time:       100 |        200 | biharm",
    ])
    assert import_seconds(stderr, "scipy.special") == 35e-6
    assert import_seconds(stderr, "biharm") == 200e-6
    assert import_seconds(stderr, "scipy.signal") == 0.0


def test_count_metrics_repeat_across_traced_runs():
    for workload in ("tensor-batch", "cold-verify"):
        counts = []
        for seed in (1, 2):
            proc = _bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                          "--trace", "1")
            assert proc.returncode == 0, proc.stderr
            assert "warning" not in proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith(COUNT_SUFFIXES)})
        assert counts[0] == counts[1]
        assert counts[0]["quad.qm_poly.calls"] > 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _bench("--workload", "tensor-batch", "--seed", "1", "--seconds", "1", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
