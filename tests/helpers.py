"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the library internals it
checks: membership counting, finite differences, and the reference
benchmark formulas are written directly against numpy.  The exceptions
are ``reference_interval``, which applies the library's own interval
rules node by node so that the compiled kernel's code generation and
CSE can be checked against it bit for bit, and ``reference_derivative``,
the dense per-variable walk that the sparse differentiation must
reproduce node for node.  It keeps its own copy of the derivative rules,
so the comparison also checks the rules of ``expr._OPS``.
"""

import math
import struct

import numpy as np

from treebound import BoxDomain
from treebound import expr as ex
from treebound.expr import _OPS, _Poison, _mk

# operations used when drawing random expressions; kink ops are added
# only when requested so the smooth generator stays differentiable
_SMOOTH_OPS = ["add", "add", "sub", "mul", "mul", "div", "pow",
               "sin", "cos", "exp", "log", "sqrt", "neg"]
_KINK_OPS = ["abs", "max", "min"]


def random_expression(rng, dims, depth, kinks=False):
    """Random expression over x0..x{dims-1}, depth-bounded."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.7:
            return ex.var(int(rng.integers(dims)))
        return ex.const(round(float(rng.uniform(-3.0, 3.0)), 3))
    ops = _SMOOTH_OPS + _KINK_OPS if kinks else _SMOOTH_OPS
    op = ops[int(rng.integers(len(ops)))]
    a = random_expression(rng, dims, depth - 1, kinks)
    if op == "pow":
        return ex.pow_int(a, int(rng.integers(2, 5)))
    if op in ("neg", "sin", "cos", "exp", "log", "sqrt", "abs"):
        build = {"neg": ex.neg, "sin": ex.sin, "cos": ex.cos, "exp": ex.exp,
                 "log": ex.log, "sqrt": ex.sqrt, "abs": ex.absolute}[op]
        return build(a)
    b = random_expression(rng, dims, depth - 1, kinks)
    build = {"add": ex.add, "sub": ex.sub, "mul": ex.mul, "div": ex.div,
             "max": ex.maximum, "min": ex.minimum}[op]
    return build(a, b)


# with x0..x2 at signed zeros or on each other, these hit max/min ties and
# the domain errors of log, sqrt and division
_EDGE_SOURCES = ["max(x0, x1) - min(x1, x0)", "max(x0, -x0) * min(-x1, x1)",
                 "abs(x0) + abs(x1 - x2)", "log(x0) + x1", "sqrt(x1) * x2",
                 "x2 / x0", "x1 / (x0 - x2)", "x0^-1", "log(x1 * x2)"]


def edge_expressions():
    """Expressions over x0..x2 for edge operands, plus ``step``, which only
    derivative trees contain and the random generator never builds."""
    x0, x1, x2 = (ex.var(i) for i in range(3))
    steps = [ex._step(x0), ex._step(ex.neg(x1)),
             ex.mul(ex._step(ex.sub(x0, x1)), x2), ex._step(ex.log(x0))]
    return ([ex.with_dims(e, 3) for e in steps]
            + [ex.parse(text, 3) for text in _EDGE_SOURCES])


def random_box(rng, dims, center_scale=4.0, max_half=2.0):
    center = rng.uniform(-center_scale, center_scale, size=dims)
    half = rng.uniform(0.05, max_half, size=dims)
    return BoxDomain(center - half, center + half)


def central_diff(f, x, d, h):
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[d] += h
    xm[d] -= h
    return (ex.evaluate(f, xp) - ex.evaluate(f, xm)) / (2.0 * h)


def second_central_diff(f, x, d, h):
    xp = np.array(x, dtype=float)
    xm = np.array(x, dtype=float)
    xp[d] += h
    xm[d] -= h
    return (ex.evaluate(f, xp) - 2.0 * ex.evaluate(f, x)
            + ex.evaluate(f, xm)) / (h * h)


def converged_second_diff(f, x, d, agree_tol=2.5e-5):
    """Second central difference with a self-certifying step size.

    Halves h until two successive stencils agree to ``agree_tol``
    (relative); returns None when the stencil never converges, i.e. the
    point cannot serve as a finite-difference oracle in doubles.
    """
    h = 1e-3 * (1.0 + abs(x[d]))
    prev = second_central_diff(f, x, d, h)
    for _ in range(7):
        h *= 0.5
        cur = second_central_diff(f, x, d, h)
        if not (np.isfinite(prev) and np.isfinite(cur)):
            return None
        if abs(cur - prev) <= agree_tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    return None


def within_enclosure(value, interval):
    """Is a (non-NaN) point value inside the enclosure, allowing the
    documented outward rounding slack of 1e-12 * (1 + |bound|)?"""
    lo, hi = interval.lo, interval.hi
    if np.isfinite(lo):
        lo_ok = value >= lo - 1e-12 * (1.0 + abs(lo))
    else:
        lo_ok = value >= lo
    if np.isfinite(hi):
        hi_ok = value <= hi + 1e-12 * (1.0 + abs(hi))
    else:
        hi_ok = value <= hi
    return bool(lo_ok and hi_ok)


def spy_on_codegen(monkeypatch):
    """List that receives the source text of every generated kernel."""
    sources = []

    def spy(src, filename, mode):
        sources.append(src)
        return compile(src, filename, mode)

    monkeypatch.setattr(ex, "compile", spy, raising=False)
    return sources


def reference_interval(f, box):
    """(lo, hi, poisoned) of ``f`` over ``box`` by a node-by-node walk
    over the interval rules the compiled kernel calls, without its CSE."""
    memo = {}

    def walk(node):
        if id(node) not in memo:
            if node.kind == "const":
                memo[id(node)] = _mk(node.payload, node.payload)
            elif node.kind == "var":
                memo[id(node)] = (float(box.lows[node.payload]),
                                  float(box.highs[node.payload]))
            else:
                operands = [end for a in node.args for end in walk(a)]
                if node.payload is not None:
                    operands.append(node.payload)
                memo[id(node)] = _OPS[node.kind].interval(*operands)
        return memo[id(node)]

    try:
        lo, hi = walk(f)
    except _Poison:
        return -math.inf, math.inf, True
    return lo, hi, False


def reference_derivative(f, d):
    """d f / d x{d} by a walk over every node of ``f``, with the same
    rules and constant folding as ``expr.differentiate``."""
    memo = {}
    for node in ex._postorder([f]):
        k = node.kind
        if k == "const" or k == "step":
            r = ex.const(0.0)
        elif k == "var":
            r = ex.const(1.0 if node.payload == d else 0.0)
        else:
            u = node.args[0]
            du = memo[id(u)]
            if len(node.args) == 2:
                v = node.args[1]
                dv = memo[id(v)]
            if k == "add":
                r = ex.add(du, dv)
            elif k == "sub":
                r = ex.sub(du, dv)
            elif k == "mul":
                r = ex.add(ex.mul(du, v), ex.mul(u, dv))
            elif k == "div":
                r = ex.div(ex.sub(ex.mul(du, v), ex.mul(u, dv)),
                           ex.pow_int(v, 2))
            elif k == "neg":
                r = ex.neg(du)
            elif k == "pow":
                kk = node.payload
                r = ex.mul(ex.mul(ex.const(float(kk)), ex.pow_int(u, kk - 1)),
                           du)
            elif k == "sin":
                r = ex.mul(ex.cos(u), du)
            elif k == "cos":
                r = ex.neg(ex.mul(ex.sin(u), du))
            elif k == "exp":
                r = ex.mul(ex.exp(u), du)
            elif k == "log":
                r = ex.div(du, u)
            elif k == "sqrt":
                r = ex.div(du, ex.mul(ex.const(2.0), ex.sqrt(u)))
            elif k == "abs":
                r = ex.mul(ex.sub(ex._step(u), ex._step(ex.neg(u))), du)
            elif k in ("max", "min"):
                sel = ex._step(ex.sub(u, v) if k == "max" else ex.sub(v, u))
                r = ex.add(ex.mul(sel, du),
                           ex.mul(ex.sub(ex.const(1.0), sel), dv))
            else:
                raise ValueError(f"unknown node kind {k!r}")
        memo[id(node)] = r
    return ex.with_dims(memo[id(f)], f.dims)


def identical_trees(a, b):
    """Structural equality that also compares constants bit for bit, so
    -0.0 differs from 0.0 and a NaN constant equals itself.  Each pair of
    shared nodes is compared once, so large DAGs take linear time."""
    done = set()
    stack = [(a, b)]
    while stack:
        u, v = stack.pop()
        if u is v or (id(u), id(v)) in done:
            continue
        done.add((id(u), id(v)))
        if u.kind != v.kind or len(u.args) != len(v.args):
            return False
        if u.kind == "const":
            if struct.pack("<d", u.payload) != struct.pack("<d", v.payload):
                return False
        elif u.payload != v.payload:
            return False
        stack.extend(zip(u.args, v.args))
    return True


def interval_bits(lo, hi, poisoned):
    """Exact identity of an enclosure, telling -0.0 from 0.0."""
    return struct.pack("<dd", lo, hi), poisoned


def membership_counts(boxes, points):
    """How many of the boxes contain each point (half-open convention)."""
    points = np.asarray(points, dtype=float)
    counts = np.zeros(len(points), dtype=int)
    for box in boxes:
        above = np.all(points >= box.lows, axis=1)
        below = np.all((points < box.highs)
                       | (box.closed_hi & (points == box.highs)), axis=1)
        counts += (above & below).astype(int)
    return counts


# ---------------------------------------------------------------------------
# reference benchmark formulas (independent numpy implementations)

def ackley_reference(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    return (-20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x) / n))
            - np.exp(np.sum(np.cos(2.0 * np.pi * x)) / n)
            + 20.0 + np.e)


def levy_reference(x):
    x = np.asarray(x, dtype=float)
    w = 1.0 + (x - 1.0) / 4.0
    head = np.sin(np.pi * w[0]) ** 2
    mid = np.sum((w[:-1] - 1.0) ** 2
                 * (1.0 + 10.0 * np.sin(np.pi * w[:-1] + 1.0) ** 2))
    tail = (w[-1] - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * w[-1]) ** 2)
    return head + mid + tail


def michalewicz_reference_grid(points_per_axis=2001):
    """Dense-grid minimum of the 2-d Michalewicz function (m = 10)."""
    axis = np.linspace(0.0, np.pi, points_per_axis)
    x0, x1 = np.meshgrid(axis, axis, indexing="ij")
    val = -(np.sin(x0) * np.sin(1.0 * x0 ** 2 / np.pi) ** 20
            + np.sin(x1) * np.sin(2.0 * x1 ** 2 / np.pi) ** 20)
    return float(val.min())
