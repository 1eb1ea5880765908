"""Regenerate bench/reference.json from the library in ./src.

    python3 bench/make_reference.py [SOURCE_COMMIT]

The committed file holds the outputs of the commit that introduced the
benchmark; every benchmark pass checks against it.  Regenerate it only when
a change is meant to alter the outputs, and say so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import biharm.cli as cli  # noqa: E402
from biharm.engine import build_test_density, evaluate  # noqa: E402
from biharm.kernels import GridSpec  # noqa: E402

from workloads import tensor_pool  # noqa: E402


def _cli_lines(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"biharm {' '.join(argv)} exited with {rc}")
    return out.getvalue().splitlines()


def main(argv) -> None:
    csv = _cli_lines(["--table", "2"])
    cases = tensor_pool()
    for case in cases:
        grid = GridSpec(h=1.0 / case["h_inv"])
        dens = build_test_density(case["n"], grid)
        samples = evaluate(dens, [tuple(p) for p in case["points"]], case["n"], grid, case["M"])
        case["values"] = [s.value for s in samples]
    ref = {
        "source_commit": argv[0] if argv else None,
        "axis-convergence": {
            "sha256": hashlib.sha256(("\n".join(csv) + "\n").encode()).hexdigest(),
            "csv": csv,
        },
        "tensor-batch": {"cases": cases},
        "cold-verify": {"report": _cli_lines(["--verify", "full"])},
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
