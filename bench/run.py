#!/usr/bin/env python3
"""The biharm benchmark: workloads run in fresh interpreters, metrics by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--seconds S]   # every workload, both modes

Run from the root of a source tree (the library is imported from ./src).
Each pass of a workload is one fresh interpreter (``child.py``) with the
BLAS/OpenMP thread caps set to the number of usable CPUs.  Passes repeat
until ``--seconds`` is used up, and at least until every reported
percentile has ten samples beyond it.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json`` (medians over passes, quartiles
and counts in the text above the last line); ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Compute
times are scaled to a reference host speed measured by ``probe.py`` between
passes.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  Per-run details (host, every pass, unscaled
times, spans) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
MIN_TAIL = 10       # samples that must lie beyond a reported percentile
RUN_LIMIT_S = 170.0  # a whole run ends well within 180 s
# probe.py kind per workload and its reading on the reference host; compute
# times are reported as if every pass had run at that speed (see README.md)
PROBES = {"axis-convergence": ("array", 0.035), "tensor-batch": ("interp", 0.009),
          "cold-verify": ("interp", 0.009)}


class BenchError(Exception):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(_nproc())
    return env


def import_seconds(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` and its submodules from -X importtime.

    Sums the entries named ``module`` or ``module.*`` that are not nested in
    another such entry; a module that was not imported reads 0.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line.split("|")
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip(" "))
        try:
            entries.append((depth, name.strip(), int(fields[1])))
        except ValueError:
            continue  # the header line
    total_us = 0
    ancestors: list = []
    # importtime prints children before parents; reversed, parents come first
    for depth, name, cumulative in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        mine = name == module or name.startswith(module + ".")
        if mine and not any(a[2] for a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name, mine))
    return total_us / 1e6


def run_pass(workload: str, seed: int, traced: bool, index: int, deadline: float) -> dict:
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        os.path.join(HERE, "child.py"), "--root", ROOT, "--workload", workload,
        "--seed", str(seed), "--trace", "1" if traced else "0"]
    if traced:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, "spans", f"{workload}-seed{seed}-pass{index}.jsonl")]
    t = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - t))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass {index} did not end before the run limit") from exc
    wall = time.perf_counter() - t
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.splitlines()[-15:])
        raise BenchError(f"{workload} pass {index} exited with {proc.returncode}:\n{tail}")
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{workload} pass {index} printed no result: {lines[-1][:200]}") from exc
    res["wall_s"] = wall
    if traced:
        res["stderr"] = proc.stderr
    return res


def run_probe(kind: str, deadline: float) -> float:
    """Median repetition time of probe.py, in its own interpreter."""
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), kind], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the speed probe did not end before the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"the speed probe exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Run passes until the time is used and the minimum sample counts are met.

    The speed probe runs before the first pass and after every pass; a pass's
    probe_s is the mean of the probes on either side of it.
    """
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    passes: list = []
    kind, ref = PROBES[workload]
    probe = run_probe(kind, deadline)
    while True:
        traced = trace and len(passes) % 2 == 1
        t = time.perf_counter()
        p = run_pass(workload, seed, traced, len(passes), deadline)
        after = run_probe(kind, deadline)
        p.update(probe_s=(probe + after) / 2, speed=ref / ((probe + after) / 2),
                 cycle_s=time.perf_counter() - t)
        passes.append(p)
        probe = after
        plain = [p for p in passes if not p["traced"]]
        if trace:
            enough = len(passes) >= 2
        else:
            items = sum(len(p["items_ms"]) for p in plain)
            enough = len(plain) >= MIN_PASSES and items >= 10 * MIN_TAIL
        now = time.perf_counter()
        next_cycle = statistics.median(p["cycle_s"] for p in passes)
        if now + next_cycle > deadline:
            if not enough:
                raise BenchError(f"{workload}: too few samples within {RUN_LIMIT_S:.0f} s")
            return passes
        if enough and now - start + next_cycle > seconds:
            return passes


def _spread(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _percentile(values: list, pct: int) -> dict:
    """Harrell-Davis estimate of the pct-th percentile.

    Only when MIN_TAIL samples lie beyond it.  Item latencies come in
    clusters (one per table configuration), and a plain order statistic jumps
    between neighbouring clusters from pass to pass.  The Harrell-Davis
    estimator weighs the order statistics around the rank, so it does not.
    """
    if len(values) * (100 - pct) < 100 * MIN_TAIL:
        raise BenchError(f"{len(values)} samples are too few for a p{pct}")
    from scipy.stats.mstats import hdquantiles

    q = float(hdquantiles(values, prob=[pct / 100.0])[0])
    return {"median": q, "q1": q, "q3": q, "n": len(values)}


def end_to_end(passes: list) -> dict:
    """Compute times are scaled by each pass's speed factor; raw_* keep them as timed.

    setup_s is not scaled: import is file reads and module set-up, which
    neither probe kind imitates.
    """
    plain = [p for p in passes if not p["traced"]]
    items = [x * p["speed"] for p in plain for x in p["items_ms"]]
    out = {"run_s": _spread([p["run_s"] * p["speed"] for p in plain])}
    for name in ("setup_s", "peak_rss_mb"):
        out[name] = _spread([p[name] for p in plain])
    out["item_ms.p50"] = _percentile(items, 50)
    out["item_ms.p90"] = _percentile(items, 90)
    for name in ("run_s", "probe_s"):
        out[f"raw_{name}"] = _spread([p[name] for p in plain])
    return out


def per_layer(passes: list, names: list) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = {}
    for name in names:
        if name == "trace.overhead_s":
            values = [statistics.median(p["run_s"] * p["speed"] for p in traced)
                      - statistics.median(p["run_s"] * p["speed"] for p in plain)]
        elif name == "setup.rule_arrays_s":
            values = [p["rule_arrays_s"] for p in traced]
        elif name.startswith("setup.import.") and name.endswith("_s"):
            module = name[len("setup.import."):-len("_s")]
            values = [import_seconds(p["stderr"], module) for p in traced]
        else:
            values = [p["layers"].get(name) for p in traced]
            if None in values:
                print(f"warning: no function behind per-layer metric {name}; reporting 0",
                      file=sys.stderr)
                values = [0]
        out[name] = _spread(values)
    return out


def _host(passes: list) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    env = _child_env()
    return {"nproc": _nproc(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform(),
            "thread_env": {v: env[v] for v in THREAD_VARS}, **passes[0]["host"]}


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    passes = measure(workload, seed, seconds, trace)
    extra = {}
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        stats = per_layer(passes, names)
        # every function's totals, including those BENCHMARK.json leaves out
        # because they read 0 on workloads that never call them
        traced = [p["layers"] for p in passes if p["traced"]]
        extra = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        computed = end_to_end(passes)
        missing = [n for n in names if n not in computed]
        if missing:
            raise BenchError(f"BENCHMARK.json names metrics the benchmark does not make: {missing}")
        stats = {n: computed[n] for n in names}
        extra = {n: computed[n] for n in computed if n.startswith("raw_")}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "host": _host(passes),
        "passes": [{k: v for k, v in p.items() if k not in ("host", "stderr")} for p in passes],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "deviations": sum(p["deviations"] for p in passes),
        "metrics": {n: {**stats[n], "unit": units[n]} for n in names},
        ("functions" if trace else "unscaled"): extra,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(report: dict) -> None:
    plain = sum(not p["traced"] for p in report["passes"])
    print(f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}: "
          f"{len(report['passes'])} passes ({plain} untraced), "
          f"{report['attempted']} items, {report['failed']} failed "
          f"(fail_ratio {report['fail_ratio']:.3g}), {report['deviations']} deviations "
          f"within 1e-14")
    for name, m in report["metrics"].items():
        print(f"  {name:38s} {m['median']:<14.6g} {m['unit']:6s} "
              f"q1 {m['q1']:<11.5g} q3 {m['q3']:<11.5g} n {m['n']}")
    matches = [p["sha256_match"] for p in report["passes"] if "sha256_match" in p]
    if matches:
        print(f"  CSV SHA-256 equals the reference in {sum(matches)}/{len(matches)} passes")
    if "functions" in report:
        print("  every traced function (median over traced passes, nonzero only):")
        for name, value in report["functions"].items():
            if value:
                print(f"    {name:44s} {value:.6g}")
    for p in report["passes"]:
        for err in p["errors"]:
            print(f"  error: {err}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all, untraced and traced)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "biharm", "__init__.py")):
        print(f"no biharm sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            reports = [run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))]
        else:
            reports = [run_one(spec, w, args.seed, args.seconds, trace)
                       for w in WORKLOADS for trace in (False, True)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("host: " + json.dumps(reports[0]["host"]))
    for report in reports:
        print_report(report)
    single = len(reports) == 1
    result = {
        "correct": all(r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {(n if single else f"{r['workload']}.{n}"): {"value": m["median"], "unit": m["unit"]}
                    for r in reports for n, m in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
