"""Workload inputs of the biharm benchmark, derived from the seed alone.

This module imports only the standard library, so run.py and the tests
can build and compare inputs without loading the program.  Every function
here is a pure function of its arguments: the same seed gives the same
workload.

Why these workloads:

* ``axis-convergence`` is the paper's Table 2 run through the command line
  (``biharm --table 2``): n = 5..50000, M = 4..1, h = 1/10..1/160, 100 rows.
  Nearly all of its time goes to building per-dimension convolution tables
  (``quad.qm_poly`` plus the engine's Gaussian and support work), and the
  same (D, M, h) kernel recurs for every n, so kernel reuse shows here.  The
  seed permutes the order of the dimension and order lists; every (n, M)
  series is computed independently, so the rows are those of Table 2 in
  another block order.
* ``tensor-batch`` calls ``engine.evaluate`` on ``build_test_density`` for
  n in {3, 5, 8}, M = 4, h in {1/20, 1/40}.  Each call evaluates a batch of
  coordinate permutations of one base point, so most (vector, offset) table
  lookups hit the evaluator's per-call cache: the engine reads far more
  tables than it builds.  At 16 points per call the builds still take about
  60% of the time, the per-term assembly the rest.  n = 3 covers
  ``rm_poly`` and the three-dimensional bracket.  The seed picks which permutations make up each batch; the
  permutations come from a fixed pool whose values are committed in
  ``reference.json``.
* ``cold-verify`` runs ``biharm --verify full``: import, the closed-form
  kernels, the direct lattice-sum oracle and the command line's oracle input
  building.  The engine and quadrature do little here, so it is the
  "no change" control for engine work.  Its inputs are fixed by the program
  itself; the seed is accepted and recorded but changes nothing.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("axis-convergence", "tensor-batch", "cold-verify")

TABLE2_DIMS = (5, 50, 500, 5000, 50000)
TABLE2_ORDERS = (4, 3, 2, 1)

# Base points of tensor-batch in physical coordinates; every coordinate is a
# multiple of 1/20, so each point lies on both grids.
TENSOR_BASES = {
    3: ((0.5, -0.25, 0.1), (0.3, 0.3, -0.6)),
    5: ((1.0, -0.5, 0.25, 0.1, 0.0), (0.4, 0.4, -0.4, 0.2, 0.6)),
    8: ((0.75, -0.5, 0.3, 0.2, -0.1, 0.05, 0.0, 0.0),
        (0.5, 0.25, 0.25, -0.25, 0.0, 0.0, 0.45, -0.1)),
}
TENSOR_STEPS = (20, 40)
TENSOR_ORDER = 4
TENSOR_POOL = 24     # permutations per base point with a committed value
TENSOR_BATCH = 16    # points per evaluate call
TENSOR_REPEATS = 2   # calls per (n, h, base point) in one pass


def axis_argv(seed: int) -> list:
    """Command-line arguments of one axis-convergence pass."""
    rng = random.Random(seed)
    dims = list(TABLE2_DIMS)
    orders = list(TABLE2_ORDERS)
    rng.shuffle(dims)
    rng.shuffle(orders)
    return (["--table", "2", "--dims"] + [str(n) for n in dims]
            + ["--orders"] + [str(m) for m in orders])


def tensor_pool() -> list:
    """Fixed evaluation cases of tensor-batch: one per (n, h, base point).

    Each case lists up to TENSOR_POOL distinct coordinate permutations of the
    base point's grid index vector, the unpermuted vector first.
    """
    cases = []
    for n, bases in TENSOR_BASES.items():
        for h_inv in TENSOR_STEPS:
            for b, base in enumerate(bases):
                idx = tuple(round(x * h_inv) for x in base)
                if len(set(itertools.permutations(idx))) <= TENSOR_POOL:
                    perms = sorted(set(itertools.permutations(idx)))
                    perms.remove(idx)
                    points = [idx] + perms
                else:
                    rng = random.Random(f"pool-{n}-{h_inv}-{b}")
                    points, seen = [idx], {idx}
                    while len(points) < TENSOR_POOL:
                        perm = list(idx)
                        rng.shuffle(perm)
                        if tuple(perm) not in seen:
                            seen.add(tuple(perm))
                            points.append(tuple(perm))
                cases.append({"n": n, "h_inv": h_inv, "M": TENSOR_ORDER,
                              "points": [list(p) for p in points]})
    return cases


def tensor_calls(seed: int, pool_sizes: list) -> list:
    """Evaluate calls of one tensor-batch pass as (case index, point indices).

    pool_sizes[c] is the number of pool points of case c.
    """
    rng = random.Random(seed)
    calls = []
    for _ in range(TENSOR_REPEATS):
        for c, size in enumerate(pool_sizes):
            calls.append((c, [rng.randrange(size) for _ in range(TENSOR_BATCH)]))
    return calls
