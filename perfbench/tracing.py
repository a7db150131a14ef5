"""In-memory spans around the public calls of each treebound layer.

Tracing is installed from outside the package: while a ``Tracer`` is
installed, the names that ``optimize``, ``expand`` and ``learn`` look up
in ``treebound.tree``, the kernel methods of ``CompiledObjective`` and
the symbolic-derivative and codegen functions that ``CompiledObjective``
looks up in ``treebound.expr`` are replaced by wrappers that record a
span (name, start, end, parent).  Uninstalling restores the originals.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

tree_mod = importlib.import_module("treebound.tree")
expr_mod = importlib.import_module("treebound.expr")

# span name -> layer (module) it belongs to
LAYERS = {
    "optimize": "tree", "select": "tree", "expand": "tree", "learn": "tree",
    "backup": "tree", "prune_root": "tree",
    "lower_bound": "interval", "partition": "interval",
    "local_opt": "localopt",
    "value": "expr", "gradient": "expr", "hessian_diagonal": "expr",
    "differentiate": "expr", "codegen": "expr",
}

# (object, attribute, span name)
_PATCHES = (
    [(tree_mod, n, n) for n in ("select", "expand", "learn", "backup",
                                "prune_root", "lower_bound", "local_opt",
                                "partition")]
    + [(expr_mod.CompiledObjective, n, n)
       for n in ("value", "gradient", "hessian_diagonal")]
    + [(expr_mod, "gradient", "differentiate"),
       (expr_mod, "hessian_diagonal", "differentiate"),
       (expr_mod, "compile_function", "codegen"),
       (expr_mod, "compile_vector", "codegen")]
)


class Tracer:
    """Spans in parallel lists; a span's parent is the span open when it
    started (-1 for none).  ``local_opt`` reports and the node of the
    latest ``learn`` call are kept for the ratio metrics."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = [-1]
        self.local_opt_reports = []
        self.last_learned = None

    def wrap(self, name, fn, on_result=None):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_spans.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _on_local_opt(self, report):
        self.local_opt_reports.append((report.evaluations, report.converged))

    def _on_learn(self, node):
        self.last_learned = node

    @contextmanager
    def installed(self):
        hooks = {"local_opt": self._on_local_opt, "learn": self._on_learn}
        saved = []
        try:
            for target, attr, span in _PATCHES:
                original = getattr(target, attr)
                saved.append((target, attr, original))
                setattr(target, attr,
                        self.wrap(span, original, hooks.get(attr)))
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def write_csv(self, path, origin):
        """Write every span, times in microseconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write("span,name,parent,start_us,end_us\n")
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i},{name},{parent},{(start - origin) * 1e6:.3f},"
                         f"{(end - origin) * 1e6:.3f}\n")


def profile(tracer, root):
    """Per-layer figures of the span tree under span ``root`` (one traced
    ``optimize`` call, which must be the last top-level span recorded).

    Returns per-call durations in microseconds (``calls``), per-call self
    times (``self_calls``) and per-call-summed self seconds (``self_s``),
    all keyed by span name.
    """
    starts = np.asarray(tracer.starts[root:])
    ends = np.asarray(tracer.ends[root:])
    parents = np.asarray(tracer.parents[root:]) - root
    names = tracer.names[root:]
    dur = ends - starts
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    calls, self_calls, self_s = {}, {}, {}
    for name, d, s in zip(names, dur.tolist(), self_t.tolist()):
        calls.setdefault(name, []).append(d * 1e6)
        self_calls.setdefault(name, []).append(s * 1e6)
        self_s[name] = self_s.get(name, 0.0) + s
    return {"wall_s": float(dur[0]), "calls": calls,
            "self_calls": self_calls, "self_s": self_s,
            "inclusive_s": {n: sum(v) * 1e-6 for n, v in calls.items()}}


def layer_busy(prof, layer):
    return sum(s for name, s in prof["self_s"].items()
               if LAYERS[name] == layer)
