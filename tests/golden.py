"""Golden search traces: pinned runs whose trace CSV, best point and root
bound must stay bit-identical from one commit to the next.

Each case is one ``optimize`` call.  Its golden file under
``tests/data/golden/`` holds a comment line naming the Python and numpy
versions it was recorded with, the best point as ``float.hex`` values,
``repr(root.lb)``, and then the trace CSV as ``treebound optimize`` writes
it.  ``tests/test_golden.py`` compares everything after the version line
byte for byte.

The version line does not name everything the bits rest on.  The traces
depend on numpy's ``dot`` through ``local_opt``: with the OpenBLAS build
they were recorded with (Haswell, DYNAMIC_ARCH), a 2-vector's ``a.dot(b)``
is the fused ``fma(a1, b1, a0*b0)``, not the sum of two rounded
products, so another BLAS kernel or CPU can change every trace.  The
100-d traces also rely on numpy's float64 ``sin`` and ``cos`` giving the
bits of ``math.sin`` and ``math.cos``, which the point kernels' lane
groups call in their place (``tests/test_expr.py::TestLanes`` checks it).

``kernels.sha256`` in the same directory pins the generated kernels: one
SHA-256 per source text of the value, gradient, Hessian-diagonal and
interval kernel of each problem in ``KERNEL_PROBLEMS``, so a change to
code generation or to the operator rules shows up per kernel.

A change that is meant to alter searches re-pins the files on purpose:

    PYTHONPATH=src python tests/golden.py

writes every golden file whose content differs from what the treebound
on the path gives, leaving the others untouched (version line included),
and prints the trace files and kernel labels that changed.
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import treebound as tb
from treebound import bench
from treebound import expr as ex
from treebound.interval import compile_interval

from helpers import spy_on_codegen

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


KERNEL_PROBLEMS = {
    **{f"{name}-{dims}d": (lambda name=name, dims=dims:
                           bench.make_builtin(name, dims).expression)
       for name in ("ackley", "levy", "michalewicz") for dims in (2, 10, 100)},
    "relu-10x16": lambda: _relu_net()[0],
}
KERNELS = ("value", "gradient", "hessian", "interval")


def kernel_hashes(name):
    """``{"<problem> <kernel>": sha256 of its source}`` for the four
    kernels of problem ``name``, captured as they are compiled."""
    f = KERNEL_PROBLEMS[name]()
    with pytest.MonkeyPatch.context() as mp:
        sources = spy_on_codegen(mp)
        ex.compile_function(f)
        ex.compile_vector(ex.gradient(f), f.dims)
        ex.compile_vector(ex.hessian_diagonal(f), f.dims)
        compile_interval(f)
    return {f"{name} {kernel}": hashlib.sha256(src.encode()).hexdigest()
            for kernel, src in zip(KERNELS, sources, strict=True)}


def kernel_file():
    return GOLDEN_DIR / "kernels.sha256"


def read_kernel_hashes():
    pairs = (line.split("  ", 1)
             for line in kernel_file().read_text().splitlines())
    return {label: digest for digest, label in pairs}


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
    """Write each golden file whose content differs from this run's, and
    print the trace files and kernel labels that changed."""
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        path, text = path_of(name), render(name)
        if path.exists() and path.read_text().split("\n", 1)[1:] == [text]:
            continue
        path.write_bytes((version_line() + text).encode())
        print(f"wrote {path}")
    old = read_kernel_hashes() if kernel_file().exists() else {}
    hashes = {}
    for name in KERNEL_PROBLEMS:
        hashes.update(kernel_hashes(name))
    if hashes != old:
        kernel_file().write_text("".join(f"{digest}  {label}\n"
                                         for label, digest in hashes.items()))
        print(f"wrote {kernel_file()}")
        for label in sorted(hashes.keys() | old.keys()):
            if hashes.get(label) != old.get(label):
                print(f"  changed {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
