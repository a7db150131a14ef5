"""Golden search traces: pinned runs whose trace CSV, best point and root
bound must stay bit-identical from one commit to the next.

Each case is one ``optimize`` call.  Its golden file under
``tests/data/golden/`` holds a comment line naming the Python and numpy
versions it was recorded with, the best point as ``float.hex`` values,
``repr(root.lb)``, and then the trace CSV as ``treebound optimize`` writes
it.  ``tests/test_golden.py`` compares everything after the version line
byte for byte.

A change that is meant to alter searches re-pins the files on purpose:

    PYTHONPATH=src python tests/golden.py

writes every golden file from the treebound on the path.
"""

import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import treebound as tb
from treebound import bench
from treebound import expr as ex

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"


def _builtin(name, dims, **overrides):
    def build():
        problem = bench.make_builtin(name, dims)
        config = bench.table_defaults(name, dims, tb.SearchConfig(**overrides))
        return problem.expression, problem.box, config
    return build


def _relu_net():
    # the network of acceptance criterion 9, built without its weights file
    rng = np.random.default_rng(1009)
    weights = ex.ReluNetWeights(
        n=10, h=16, w1=rng.normal(size=(16, 10)).tolist(),
        b1=rng.normal(size=16).tolist(), w2=rng.normal(size=16).tolist(),
        b2=float(rng.normal()))
    return (ex.relu_net_to_expression(weights),
            tb.BoxDomain.cube(-2.0, 2.0, 10),
            tb.SearchConfig(step_budget=50, seed=0))


CASES = {
    **{f"michalewicz-10d-seed{s}": _builtin("michalewicz", 10,
                                            step_budget=80, seed=s)
       for s in range(3)},
    "levy-10d-evals3000": _builtin("levy", 10, eval_budget=3000, seed=0),
    "ackley-100d-steps10": _builtin("ackley", 100, step_budget=10, seed=0),
    "relu-10x16-steps50": _relu_net,
}


def version_line():
    return (f"# recorded with Python {platform.python_version()}, "
            f"numpy {np.__version__}\n")


def render(name):
    """The golden text of case ``name`` after its version line."""
    expression, box, config = CASES[name]()
    result = tb.optimize(expression, box, config)
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "trace.csv"
        bench.write_trace_csv(csv, result.trace)
        trace = csv.read_text()
    return ("# best_x " + " ".join(float(v).hex() for v in result.x) + "\n"
            + f"# root_lb {result.root.lb!r}\n" + trace)


def path_of(name):
    return GOLDEN_DIR / f"{name}.csv"


def main():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        path_of(name).write_bytes((version_line() + render(name)).encode())
        print(f"wrote {path_of(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
