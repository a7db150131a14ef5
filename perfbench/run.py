"""Benchmark treebound on one workload and print its metrics.

    python3 perfbench/run.py --workload relu-10x16 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` (counts of checks) and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Per-round figures, the spans of a traced
run and the relu network's weights file go to ``perfbench/out/``.
See README.md in this directory.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"


def _non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv=None):
    if not (SRC / "treebound" / "__init__.py").is_file():
        print(f"treebound sources not found under {SRC}", file=sys.stderr)
        return 2
    # one thread: keep numpy's BLAS from starting a pool
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    summary = harness.run_workload(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), OUT_DIR)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
