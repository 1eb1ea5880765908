"""Host-speed probe: times a fixed job that does not call biharm.

    python3 bench/probe.py array|interp

``run.py`` runs it in its own interpreter before the first pass and after
every pass, so it neither shares memory with a pass nor changes a pass's
peak RSS.  Each kind imitates the hot loop of the workloads it scales:

* ``array``: a Gaussian times a Hermite recurrence over a 2081 x 300
  offset-by-node grid with fresh arrays, as in the library's convolution
  tables (memory traffic and page faults dominate);
* ``interp``: per-term products of short node vectors summed with
  ``math.fsum``, and a dict of index tuples filled one product at a time,
  as in the tensor assembly and the oracle's input building (interpreter
  overhead dominates).

It prints the median seconds of its repetitions; the first one only warms
up and is dropped.
"""

import itertools
import math
import statistics
import sys
import time
from functools import reduce

import numpy as np


def array_rep() -> None:
    d = np.arange(-1040.0, 1041.0)
    t = np.exp(np.linspace(-4.0, 6.0, 300))
    gauss = np.exp(-(d * d)[:, None] / (5.0 * (1.0 + t))[None, :])
    y = d[:, None] / np.sqrt(5.0 * (1.0 + t))[None, :]
    h_prev, h, total = np.ones_like(y), 2.0 * y, np.ones_like(y)
    for k in range(1, 6):
        h_prev, h = h, 2.0 * y * h - 2.0 * k * h_prev
        total = total + h / (k + 1.0)
    float(np.sum(gauss * total, axis=0).sum())


def interp_rep() -> None:
    vecs = [np.linspace(0.1, 1.0, 300) + j for j in range(8)]
    for p in range(45):
        math.fsum((p + 1.0) * reduce(np.multiply, vecs))
    vals = np.linspace(0.5, 1.5, 11)
    table = {}
    for idx in itertools.product(range(11), repeat=3):
        table[idx] = float(np.prod([vals[i] for i in idx]))


KINDS = {"array": (array_rep, 15), "interp": (interp_rep, 40)}


def main(kind: str) -> None:
    rep, reps = KINDS[kind]
    times = []
    for _ in range(reps + 1):
        start = time.perf_counter()
        rep()
        times.append(time.perf_counter() - start)
    print(statistics.median(times[1:]))


if __name__ == "__main__":
    main(sys.argv[1])
