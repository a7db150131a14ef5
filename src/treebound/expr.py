"""Analytic expression trees: parsing, evaluation, symbolic differentiation.

The AST is deliberately small: constants, variables ``x0 .. x{n-1}``,
arithmetic (``+ - * /``, unary ``-``), integer powers, and the functions
sin, cos, exp, log, sqrt, abs, max, min.  Nodes are immutable after
construction, so trees can be shared freely across threads; every
transformation returns new nodes.

Derivative trees may additionally contain an internal ``step`` node
(Heaviside, ``step(t) = 1`` for ``t >= 0``, else 0).  It encodes the
one-sided conventions at non-smooth points: ``d|u|/du = 0`` at ``u = 0``
and ``max(a, b)`` differentiates along its first argument on ties.
``step`` is not part of the input grammar and the parser rejects it.

Point evaluation follows IEEE doubles and never raises on finite input:
division by zero, log of a non-positive value and sqrt of a negative
value all produce NaN.  Constant folding comes first: the constructors
turn a product of a constant 0 and a non-constant factor, and a quotient
whose numerator is the constant 0, into the constant 0, so ``0/0`` and
``0*log(x0)`` evaluate to 0.0 everywhere.  ``compile_function`` turns a
tree into a plain Python function (with common-subexpression
elimination, and each temporary used once written inline where it is
used) that is an order of magnitude faster than the tree walk and falls
back to it whenever a domain error occurs.  Where at least 64 dimensions
repeat one term, it computes that term's copies with one numpy operation
each, giving the same bits.

Each operator kind is defined once, by its entry in the table ``_OPS``:
its point rule, its interval rule over float endpoints, its point-kernel
snippet, for the cheap kinds the interval-kernel line that computes the
rule inline, its derivative rule, and its name and arity in the parser's
grammar.  The evaluators, ``differentiate``, both kernel generators
(here and in ``interval.py``) and the parser read that table, so adding
an operator means adding one ``_OPS`` entry.  Two more places may need
an edit: a kernel snippet that calls a function needs that name in
``_PointCode.namespace``, and an operator written as a symbol needs its
form in ``unparse`` and, if binary, in the parser's ``_BINARY``.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

__all__ = [
    "Expression",
    "ExpressionError",
    "ParseError",
    "DimensionMismatch",
    "ReluNetWeights",
    "const",
    "var",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_int",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "absolute",
    "maximum",
    "minimum",
    "balanced_sum",
    "with_dims",
    "parse",
    "unparse",
    "evaluate",
    "differentiate",
    "gradient",
    "hessian_diagonal",
    "relu_net_to_expression",
    "compile_function",
    "compile_vector",
    "CompiledObjective",
    "as_objective",
]

_NAN = float("nan")
_INF = math.inf
_TWO_PI = 2.0 * math.pi


class ExpressionError(ValueError):
    """Base class for expression construction and usage errors."""


class ParseError(ExpressionError):
    """Syntax or semantic error in an expression source string."""

    def __init__(self, message, line, column):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class DimensionMismatch(ExpressionError):
    """An argument vector does not match the expression's dimension."""


class Expression:
    """One immutable node of an expression tree.

    ``kind`` names the operation; ``args`` holds the child expressions;
    ``payload`` carries the constant value, the variable index, or the
    integer power exponent.  ``dims`` is the number of input dimensions
    the expression is declared over (at least ``max var index + 1``).
    ``mask`` is the set of variables the node depends on, bit ``i`` for
    ``x{i}``.
    """

    __slots__ = ("kind", "args", "payload", "dims", "mask")

    def __init__(self, kind, args=(), payload=None, dims=None):
        self.kind = kind
        self.args = tuple(args)
        if kind == "var":
            self.mask = 1 << payload
        else:
            mask = 0
            for a in self.args:
                mask |= a.mask
            self.mask = mask
        if dims is None:
            dims = max((a.dims for a in self.args), default=0)
            if kind == "var":
                dims = payload + 1
        self.payload = payload
        self.dims = dims

    def __reduce__(self):
        # flat post-order records, so a long chain does not make pickle
        # recurse once per node; shared nodes stay shared
        nodes = _postorder([self])
        index = {node: i for i, node in enumerate(nodes)}
        return (_unpickle, (tuple(
            (n.kind, tuple(index[a] for a in n.args), n.payload, n.dims)
            for n in nodes),))

    def __repr__(self):
        return f"Expression({unparse(self)!r}, dims={self.dims})"


def _unpickle(records):
    """The last node of ``Expression.__reduce__``'s post-order records."""
    nodes = []
    for kind, args, payload, dims in records:
        nodes.append(Expression(kind, [nodes[i] for i in args], payload, dims))
    return nodes[-1]


# ---------------------------------------------------------------------------
# constructors with constant folding

def const(value):
    return Expression("const", payload=float(value))


def var(index):
    index = int(index)
    if index < 0:
        raise ExpressionError("variable index must be >= 0")
    return Expression("var", payload=index)


def _const_value(e):
    return e.payload if e.kind == "const" else None


def add(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(a.payload + b.payload)
    if _const_value(a) == 0.0:
        return b
    if _const_value(b) == 0.0:
        return a
    return Expression("add", (a, b))


def sub(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(a.payload - b.payload)
    if _const_value(b) == 0.0:
        return a
    if _const_value(a) == 0.0:
        return neg(b)
    return Expression("sub", (a, b))


def mul(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(a.payload * b.payload)
    # zero/one folds are what keep derivative trees small
    if _const_value(a) == 0.0 or _const_value(b) == 0.0:
        return const(0.0)
    if _const_value(a) == 1.0:
        return b
    if _const_value(b) == 1.0:
        return a
    if _const_value(a) == -1.0:
        return neg(b)
    if _const_value(b) == -1.0:
        return neg(a)
    return Expression("mul", (a, b))


def div(a, b):
    if a.kind == "const" and b.kind == "const" and b.payload != 0.0:
        return const(a.payload / b.payload)
    if _const_value(a) == 0.0:
        return const(0.0)
    if _const_value(b) == 1.0:
        return a
    if _const_value(b) == -1.0:
        return neg(a)
    return Expression("div", (a, b))


def neg(a):
    if a.kind == "const":
        return const(-a.payload)
    if a.kind == "neg":
        return a.args[0]
    return Expression("neg", (a,))


def pow_int(base, k):
    if isinstance(k, bool) or not isinstance(k, int):
        raise ExpressionError("power exponent must be an integer")
    if k == 0:
        return const(1.0)
    if k == 1:
        return base
    if base.kind == "const":
        try:
            return const(base.payload ** k)
        except (OverflowError, ZeroDivisionError):
            pass
    return Expression("pow", (base,), payload=k)


def _fold_unary(kind, a):
    if a.kind == "const":
        v = _OPS[kind].point(a.payload)
        if math.isfinite(v):
            return const(v)
    return Expression(kind, (a,))


def sin(a):
    return _fold_unary("sin", a)


def cos(a):
    return _fold_unary("cos", a)


def exp(a):
    return _fold_unary("exp", a)


def log(a):
    return _fold_unary("log", a)


def sqrt(a):
    return _fold_unary("sqrt", a)


def absolute(a):
    return _fold_unary("abs", a)


def _step(a):
    return _fold_unary("step", a)


def maximum(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(_fmax(a.payload, b.payload))
    return Expression("max", (a, b))


def minimum(a, b):
    if a.kind == "const" and b.kind == "const":
        return const(_fmin(a.payload, b.payload))
    return Expression("min", (a, b))


def balanced_sum(terms):
    """Sum a sequence of expressions with a balanced tree (shallow depth)."""
    terms = list(terms)
    if not terms:
        return const(0.0)
    while len(terms) > 1:
        terms = [add(terms[i], terms[i + 1]) if i + 1 < len(terms) else terms[i]
                 for i in range(0, len(terms), 2)]
    return terms[0]


def with_dims(e, n):
    n = int(n)
    if n < e.dims:
        raise DimensionMismatch(
            f"expression uses {e.dims} dimension(s), cannot narrow to {n}")
    if n == e.dims:
        return e
    return Expression(e.kind, e.args, e.payload, dims=n)


# ---------------------------------------------------------------------------
# traversal

def _postorder(roots):
    """Every distinct node (by identity) reachable from ``roots``, each
    after all of its children, in the order of a post-order walk of the
    first root, then of the parts of the next root not yet visited.

    Iterative so that long operator chains do not hit the recursion limit.
    """
    out = []
    seen = set()
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                out.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for child in node.args:
                if child not in seen:
                    stack.append((child, False))
    return out


# ---------------------------------------------------------------------------
# point rules (define the NaN semantics)

def _nan_on_error(fn):
    """``fn`` with NaN for a domain error or a division by zero: the
    point rule of div, sin, cos, log and sqrt in ``_OPS``."""

    def rule(*args):
        try:
            return fn(*args)
        except (ValueError, ZeroDivisionError):
            return _NAN

    return rule


# exp and pow return +-inf on overflow, not NaN
def _ref_pow(a, k):
    try:
        return a ** k
    except OverflowError:
        return -_INF if (a < 0.0 and k % 2) else _INF
    except ZeroDivisionError:
        return _NAN


def _point_pow(a, k):
    # a square as the kernels write it, a * a, which is correctly rounded
    # where libm's pow(a, 2.0) is not always
    return a * a if k == 2 else _ref_pow(a, k)


def _ref_exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        return _INF


def _fmax(a, b):
    if a != a or b != b:
        return _NAN
    return a if a >= b else b


def _fmin(a, b):
    if a != a or b != b:
        return _NAN
    return a if a <= b else b


def _ref_step(a):
    if a != a:
        return _NAN
    return 1.0 if a >= 0.0 else 0.0


def _nonzero(b):
    """The divisor ``b`` of a vector kernel's division, a float or a
    float64 array.  Raises ``ZeroDivisionError`` where ``b`` or one of
    its elements is zero, as Python's float division does and numpy's
    ``inf / 0`` and ``nan / 0`` do not."""
    if b.all() if type(b) is np.ndarray else b:
        return b
    raise ZeroDivisionError


# ---------------------------------------------------------------------------
# interval rules: each takes the (lo, hi) endpoints of its operands as
# floats (plus the exponent for pow) and returns the result's (lo, hi)

class _Poison(Exception):
    """Raised by a rule whose real image is empty.  Every operator with a
    poisoned operand is poisoned too, so the whole enclosure is."""


def _mk(lo, hi):
    if math.isnan(lo) or math.isnan(hi):
        raise _Poison
    if lo > hi:
        lo, hi = hi, lo
    return lo, hi


def _iadd(alo, ahi, blo, bhi):
    return _mk(alo + blo, ahi + bhi)


def _isub(alo, ahi, blo, bhi):
    return _mk(alo - bhi, ahi - blo)


def _ineg(alo, ahi):
    return -ahi, -alo


def _prod(p, q):
    # 0 * inf is 0 under the interval convention
    if p == 0.0 or q == 0.0:
        return 0.0
    return p * q


def _imul(alo, ahi, blo, bhi):
    c = (_prod(alo, blo), _prod(alo, bhi), _prod(ahi, blo), _prod(ahi, bhi))
    return _mk(min(c), max(c))


def _idiv(alo, ahi, blo, bhi):
    if blo <= 0.0 <= bhi:
        # divisor spans zero: unbounded, but not invalid
        return -_INF, _INF
    return _imul(alo, ahi, *_mk(1.0 / bhi, 1.0 / blo))


def _ipow(alo, ahi, k):
    if k == 0:
        return 1.0, 1.0
    if k < 0:
        return _idiv(1.0, 1.0, *_ipow(alo, ahi, -k))
    plo, phi = _ref_pow(alo, k), _ref_pow(ahi, k)
    if k % 2 == 1:
        return _mk(plo, phi)
    if alo >= 0.0:
        return _mk(plo, phi)
    if ahi <= 0.0:
        return _mk(phi, plo)
    return _mk(0.0, max(plo, phi))


def _crit_inside(lo, hi, c):
    """Does some c + 2*pi*k (k integer) fall inside [lo, hi]?

    Widened by a few ulps so near-misses err toward the loose (sound)
    side.
    """
    k = math.floor((lo - c) / _TWO_PI)
    for kk in (k, k + 1, k + 2):
        t = c + _TWO_PI * kk
        tol = 4e-16 * (1.0 + abs(t))
        if lo - tol <= t <= hi + tol:
            return True
    return False


def _periodic(fn, peak, trough):
    """Interval rule of ``fn`` (sin or cos in ``_OPS``): period 2*pi,
    range [-1, 1], maxima at ``peak + 2*pi*k`` and minima at
    ``trough + 2*pi*k``."""

    def rule(alo, ahi):
        if ahi - alo >= _TWO_PI:
            return -1.0, 1.0
        if not (math.isfinite(alo) and math.isfinite(ahi)):
            # degenerate infinite endpoint: no real argument value exists
            raise _Poison
        flo, fhi = fn(alo), fn(ahi)
        lo, hi = min(flo, fhi), max(flo, fhi)
        if _crit_inside(alo, ahi, peak):
            hi = 1.0
        if _crit_inside(alo, ahi, trough):
            lo = -1.0
        return lo, hi

    return rule


def _iexp(alo, ahi):
    return _ref_exp(alo), _ref_exp(ahi)


def _ilog(alo, ahi):
    if ahi <= 0.0:
        raise _Poison
    hi = math.log(ahi)
    if alo <= 0.0:
        return -_INF, hi
    return math.log(alo), hi


def _isqrt(alo, ahi):
    if ahi < 0.0:
        raise _Poison
    hi = math.sqrt(ahi)
    if alo < 0.0:
        return 0.0, hi
    return math.sqrt(alo), hi


def _iabs(alo, ahi):
    if alo >= 0.0:
        return alo, ahi
    if ahi <= 0.0:
        return -ahi, -alo
    return 0.0, max(-alo, ahi)


def _imax(alo, ahi, blo, bhi):
    return max(alo, blo), max(ahi, bhi)


def _imin(alo, ahi, blo, bhi):
    return min(alo, blo), min(ahi, bhi)


def _istep(alo, ahi):
    if ahi < 0.0:
        return 0.0, 0.0
    if alo >= 0.0:
        return 1.0, 1.0
    return 0.0, 1.0


# ---------------------------------------------------------------------------
# inline interval lines (``_Op.inline``): each gives its rule's exact bits
# and raises ``_Poison`` exactly when the rule does

def _finite_const(pair):
    """The value of an operand that is a finite constant, else None; in
    the interval kernel only a constant has equal lo and hi names."""
    lo, hi = pair
    if lo != hi:
        return None
    c = float(lo)
    return c if math.isfinite(c) else None


def _sum_line(l, h, lo, hi, a, b):
    """``l, h = lo, hi`` for add or sub, poisoned as by ``_mk``.  With
    ordered operands rounding keeps ``lo <= hi``, so that test fails only
    on NaN (``inf - inf``), and ``_mk``'s swap never happens.  A finite
    constant operand rules NaN out."""
    if _finite_const(a) is not None or _finite_const(b) is not None:
        return f"{l}, {h} = {lo}, {hi}"
    return f"if not ({l} := {lo}) <= ({h} := {hi}): raise _Poison"


def _pick_line(l, h, a, b, cmp):
    """Endpoint-wise max (``cmp`` ">") or min ("<") with the tie rule of
    Python's ``max(x, y)``: ``y if y > x else x``."""
    return (f"{l}, {h} = {b[0]} if {b[0]} {cmp} {a[0]} else {a[0]}, "
            f"{b[1]} if {b[1]} {cmp} {a[1]} else {a[1]}")


def _scale_line(l, h, a, b):
    """Product with a finite, nonzero constant ``c``; None otherwise.

    ``_imul``'s four products are then ``p = c*lo`` and ``q = c*hi``,
    twice each, where ``_prod`` makes a zero side's product 0.0, and its
    ``min`` and ``max`` keep the first of equal values.  The result is
    ``[p, q if q > p else p]`` for ``c > 0`` and ``[q if q < p else p, p]``
    for ``c < 0``; the tie matters where one product underflows to -0.0
    and the other is 0.0.  The zero rule needs no test: ``x + 0.0`` and
    ``0.0 - x`` are 0.0 for a zero ``x``, else exactly ``x`` and ``-x``,
    so ``c * (x + 0.0)`` for ``c > 0`` and ``-c * (0.0 - x)`` for
    ``c < 0`` equal ``_prod(c, x)``."""
    for k, x in ((a, b), (b, a)):
        c = _finite_const(k)
        if c:
            break
    else:
        return None
    if c > 0:
        p, q = (f"{c!r} * ({end} + 0.0)" for end in x)
        first, other, cmp = l, h, ">"
    else:
        p, q = (f"{-c!r} * (0.0 - {end})" for end in x)
        first, other, cmp = h, l, "<"
    return (f"{other} = {other} if ({other} := {q}) {cmp} ({first} := {p}) "
            f"else {first}")


# ---------------------------------------------------------------------------
# the operator table

class _Op(NamedTuple):
    """Everything the library knows about one operator kind.

    ``point``, ``interval`` and ``kernel`` take the operands in order,
    then the node's payload if it has one (pow's exponent).  ``point``
    maps float values to a float, NaN on a domain error.  ``interval``
    maps float ``(lo, hi)`` endpoints to the result's ``(lo, hi)`` and
    raises ``_Poison`` when the real image is empty.  ``kernel`` maps the
    operands' names in generated code to the point kernel's expression,
    which may raise on a domain error.  ``inline(l, h, *operands)`` is
    its counterpart in the interval kernel, None for the kinds whose rule
    is always called: it maps the result's endpoint names and the
    operands' ``(lo, hi)`` name pairs to one line computing exactly what
    ``interval`` does, or to None where the rule must be called.
    ``vector`` says how the point kernels compute a lane group of this
    kind (see ``_lanes``) as one numpy operation on float64 arrays: True
    where ``kernel``'s snippet itself gives, element by element, the bits
    of the scalar snippet, and raises a ``FloatingPointError`` under
    ``_PointCode.errors`` wherever the scalar snippet raises; else a
    callable like ``kernel`` returning the array snippet, or None for a
    payload that must stay scalar; False where numpy's form can differ
    from the scalar one in some bit (``np.exp``, ``np.log`` and
    ``np.power`` do), or keeps another NaN or tie rule.
    ``derive(u, v, du, dv, k)`` builds the derivative from the operands,
    their derivatives (``v`` and ``dv`` are None for a unary kind) and
    the payload.  ``call`` builds the node for ``kind(...)`` in the
    parser's grammar, with ``arity`` arguments; it is None for operators
    written as symbols and for ``step``.
    """

    arity: int
    point: Callable
    interval: Callable
    kernel: Callable
    derive: Callable
    call: Callable | None = None
    inline: Callable | None = None
    vector: Callable | bool = False


def _d_select(sel, du, dv):
    """Derivative of max or min: ``du`` where ``sel`` is 1, else ``dv``."""
    return add(mul(sel, du), mul(sub(const(1.0), sel), dv))


class _Table(dict):
    """The operator table: a kind it lacks is an ``ExpressionError``."""

    def __missing__(self, kind):
        raise ExpressionError(f"unknown node kind {kind!r}")


_OPS = _Table({
    "add": _Op(2, operator.add, _iadd, lambda a, b: f"{a} + {b}",
               lambda u, v, du, dv, k: add(du, dv),
               inline=lambda l, h, a, b: _sum_line(
                   l, h, f"{a[0]} + {b[0]}", f"{a[1]} + {b[1]}", a, b),
               vector=True),
    "sub": _Op(2, operator.sub, _isub, lambda a, b: f"{a} - ({b})",
               lambda u, v, du, dv, k: sub(du, dv),
               inline=lambda l, h, a, b: _sum_line(
                   l, h, f"{a[0]} - {b[1]}", f"{a[1]} - {b[0]}", a, b),
               vector=True),
    "mul": _Op(2, operator.mul, _imul, lambda a, b: f"{a} * {b}",
               lambda u, v, du, dv, k: add(mul(du, v), mul(u, dv)),
               inline=_scale_line, vector=True),
    "div": _Op(2, _nan_on_error(operator.truediv), _idiv,
               lambda a, b: f"{a} / ({b})",
               lambda u, v, du, dv, k: div(sub(mul(du, v), mul(u, dv)),
                                           pow_int(v, 2)),
               vector=lambda a, b: f"{a} / _nonzero({b})"),
    "neg": _Op(1, operator.neg, _ineg, lambda a: f"-({a})",
               lambda u, v, du, dv, k: neg(du),
               inline=lambda l, h, a: f"{l}, {h} = -{a[1]}, -{a[0]}",
               vector=True),
    # parenthesized base: unary minus binds looser than **
    "pow": _Op(1, _point_pow, _ipow,
               lambda a, k: f"{a} * {a}" if k == 2 else f"({a}) ** {k}",
               lambda u, v, du, dv, k: mul(mul(const(float(k)),
                                               pow_int(u, k - 1)), du),
               vector=lambda a, k: f"{a} * {a}" if k == 2 else None),
    "sin": _Op(1, _nan_on_error(math.sin),
               _periodic(math.sin, 0.5 * math.pi, -0.5 * math.pi),
               lambda a: f"sin({a})",
               lambda u, v, du, dv, k: mul(cos(u), du), sin,
               vector=lambda a: f"np.sin({a})"),
    "cos": _Op(1, _nan_on_error(math.cos), _periodic(math.cos, 0.0, math.pi),
               lambda a: f"cos({a})",
               lambda u, v, du, dv, k: neg(mul(sin(u), du)), cos,
               vector=lambda a: f"np.cos({a})"),
    "exp": _Op(1, _ref_exp, _iexp, lambda a: f"exp({a})",
               lambda u, v, du, dv, k: mul(exp(u), du), exp),
    "log": _Op(1, _nan_on_error(math.log), _ilog, lambda a: f"log({a})",
               lambda u, v, du, dv, k: div(du, u), log),
    "sqrt": _Op(1, _nan_on_error(math.sqrt), _isqrt,
                lambda a: f"sqrt({a})",
                lambda u, v, du, dv, k: div(du, mul(const(2.0), sqrt(u))),
                sqrt, vector=lambda a: f"np.sqrt({a})"),
    # sign(u) du, with sign(0) = 0
    "abs": _Op(1, abs, _iabs, lambda a: f"abs({a})",
               lambda u, v, du, dv, k: mul(sub(_step(u), _step(neg(u))), du),
               absolute, vector=True),
    # step(u - v) is 1 on the first argument's branch, ties included
    "max": _Op(2, _fmax, _imax, lambda a, b: f"_fmax({a}, {b})",
               lambda u, v, du, dv, k: _d_select(_step(sub(u, v)), du, dv),
               maximum,
               inline=lambda l, h, a, b: _pick_line(l, h, a, b, ">")),
    "min": _Op(2, _fmin, _imin, lambda a, b: f"_fmin({a}, {b})",
               lambda u, v, du, dv, k: _d_select(_step(sub(v, u)), du, dv),
               minimum,
               inline=lambda l, h, a, b: _pick_line(l, h, a, b, "<")),
    "step": _Op(1, _ref_step, _istep, lambda a: f"_step({a})",
                lambda u, v, du, dv, k: const(0.0)),
})


def evaluate(f, x):
    """Evaluate ``f`` at the point ``x`` (len(x) must equal f.dims)."""
    xs = [float(v) for v in x]
    if len(xs) != f.dims:
        raise DimensionMismatch(
            f"expression over {f.dims} dimension(s) evaluated at a "
            f"{len(xs)}-vector")
    return _evaluate_all([f], xs)[0]


def _evaluate_all(roots, xs):
    """Values of all ``roots`` at the float list ``xs`` from one walk, so
    subexpressions shared between roots are evaluated once."""
    vals = {}
    for node in _postorder(roots):
        if not node.args:
            v = node.payload if node.kind == "const" else xs[node.payload]
        else:
            operands = [vals[a] for a in node.args]
            if node.payload is not None:
                operands.append(node.payload)
            v = _OPS[node.kind].point(*operands)
        vals[node] = v
    return tuple(float(vals[r]) for r in roots)


# ---------------------------------------------------------------------------
# symbolic differentiation

def differentiate(f, d):
    """Partial derivative of ``f`` with respect to variable ``d``.

    Non-smooth nodes use the fixed one-sided convention documented in
    the module docstring; the result is exact wherever ``f`` is smooth.
    """
    return with_dims(_derive(f, int(d), {}), f.dims)


def _derive(root, d, memo):
    """Derivative of ``root`` with respect to ``x{d}``, walking only the
    nodes whose ``mask`` contains ``d``.

    ``memo`` maps ``(node, d)`` to the node's derivative and is shared by
    calls for other variables.  A node without ``x{d}`` is looked up as
    ``(node, None)``, its derivative with respect to a variable it does
    not contain.  The same rules build that once for every ``d``, and it
    is not always ``0.0``: a constant under ``cos`` gives ``-0.0`` and an
    infinite constant factor gives NaN.  Keys hold the nodes themselves,
    because the rules drop intermediate nodes whose ``id`` could be
    reused while ``memo`` lives.
    """
    bit = 1 << d if d >= 0 else 0
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        wrt = d if node.mask & bit else None
        if (node, wrt) in memo:
            continue
        if not ready:
            stack.append((node, True))
            stack.extend((child, False) for child in node.args)
            continue
        if node.args:
            u = node.args[0]
            du = memo[(u, d if u.mask & bit else None)]
            v = dv = None
            if len(node.args) == 2:
                v = node.args[1]
                dv = memo[(v, d if v.mask & bit else None)]
            r = _OPS[node.kind].derive(u, v, du, dv, node.payload)
        elif node.kind == "const":
            r = const(0.0)
        else:
            r = const(0.0 if wrt is None else 1.0)
        memo[(node, wrt)] = r
    return memo[(root, d if root.mask & bit else None)]


def gradient(f):
    """Tuple of the partial derivatives of ``f``, one per dimension."""
    memo = {}
    return tuple(with_dims(_derive(f, d, memo), f.dims)
                 for d in range(f.dims))


def hessian_diagonal(f):
    """Tuple of the second partials d²f/dx_d², one per dimension."""
    # one memo for both passes: the second reuses the (node, d) entries
    # the first made for the nodes of f that g_d contains
    memo = {}
    return tuple(with_dims(_derive(_derive(f, d, memo), d, memo), f.dims)
                 for d in range(f.dims))


# ---------------------------------------------------------------------------
# ReLU network translation

@dataclass(eq=False)
class ReluNetWeights:
    """One-hidden-layer ReLU network: y = b2 + w2 · relu(W1 x + b1)."""

    n: int
    h: int
    w1: np.ndarray  # h x n
    b1: np.ndarray  # h
    w2: np.ndarray  # h
    b2: float

    def __post_init__(self):
        for name in ("n", "h"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            setattr(self, name, int(v))
        array = partial(np.asarray, dtype=float)
        for name, convert in (("w1", array), ("b1", array), ("w2", array),
                              ("b2", float)):
            try:
                setattr(self, name, convert(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as err:
                raise ValueError(f"{name} must hold numbers: {err}") from None
        if self.n < 1 or self.h < 1:
            raise ValueError("network needs n >= 1 inputs and h >= 1 hidden units")
        if self.w1.shape != (self.h, self.n):
            raise ValueError(f"w1 must be {self.h}x{self.n}, got {self.w1.shape}")
        if self.b1.shape != (self.h,):
            raise ValueError(f"b1 must have length {self.h}")
        if self.w2.shape != (self.h,):
            raise ValueError(f"w2 must have length {self.h}")
        for name, arr in (("w1", self.w1), ("b1", self.b1), ("w2", self.w2)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not math.isfinite(self.b2):
            raise ValueError("b2 is not finite")

    def forward(self, x):
        """Scalar forward pass accumulating in the same order as the
        translated expression, so the two agree bit for bit."""
        xs = [float(v) for v in x]
        if len(xs) != self.n:
            raise DimensionMismatch(f"expected {self.n} inputs, got {len(xs)}")
        acc = self.b2
        for j in range(self.h):
            lin = float(self.w1[j, 0]) * xs[0]
            for i in range(1, self.n):
                lin = lin + float(self.w1[j, i]) * xs[i]
            lin = lin + float(self.b1[j])
            acc = acc + float(self.w2[j]) * (lin if lin >= 0.0 else 0.0)
        return acc


def relu_net_to_expression(weights):
    """Translate the network into ``b2 + Σ_j w2_j · max(0, W1_j·x + b1_j)``."""
    w = weights
    total = const(w.b2)
    for j in range(w.h):
        lin = mul(const(float(w.w1[j, 0])), var(0))
        for i in range(1, w.n):
            lin = add(lin, mul(const(float(w.w1[j, i])), var(i)))
        lin = add(lin, const(float(w.b1[j])))
        total = add(total, mul(const(float(w.w2[j])), maximum(const(0.0), lin)))
    return with_dims(total, w.n)


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text):
    tokens = []
    line, start = 1, 0  # start: the offset where the line begins
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            if ch == "\n":
                line, start = line + 1, pos
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", line,
                             pos - start + 1)
        tokens.append((m.lastgroup, m.group(), line, pos - start + 1))
        pos = m.end()
    tokens.append(("end", "", line, pos - start + 1))
    return tokens


# the binary operators of ``_Parser.expression``, loosest level first
_BINARY = ({"+": add, "-": sub}, {"*": mul, "/": div})


class _Parser:
    def __init__(self, tokens, dims):
        self.tokens = tokens
        self.i = 0
        self.dims = dims

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect_op(self, op):
        kind, text, line, col = self.peek()
        if kind != "op" or text != op:
            self.error(f"expected {op!r}")
        return self.advance()

    def expression(self, level=0):
        """A left-associative chain of ``_BINARY[level]``'s operators;
        the operands are the next level's chains, or unary terms."""
        ops = _BINARY[level]
        operand = (self.unary if level + 1 == len(_BINARY)
                   else partial(self.expression, level + 1))
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            build = ops[self.advance()[1]]
            node = build(node, operand())
        return node

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            sign = 1
            if self.peek()[:2] == ("op", "-"):
                self.advance()
                sign = -1
            kind, text, line, col = self.peek()
            if kind != "num" or not text.isdigit():
                self.error("power exponent must be an integer")
            self.advance()
            return pow_int(base, sign * int(text))
        return base

    def atom(self):
        kind, text, line, col = self.peek()
        if kind == "num":
            self.advance()
            return const(float(text))
        if kind == "name":
            self.advance()
            m = re.fullmatch(r"x(\d+)", text)
            if m:
                idx = int(m.group(1))
                if idx >= self.dims:
                    raise ParseError(
                        f"variable x{idx} out of range for {self.dims} "
                        f"dimension(s)", line, col)
                return var(idx)
            op = _OPS.get(text)
            if op is not None and op.call is not None:
                self.expect_op("(")
                args = [self.expression()]
                if self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expression())
                self.expect_op(")")
                if len(args) != op.arity:
                    raise ParseError(f"{text} expects {op.arity} argument(s), "
                                     f"got {len(args)}", line, col)
                return op.call(*args)
            raise ParseError(f"unknown function {text!r}", line, col)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expression()
            self.expect_op(")")
            return node
        self.error("expected a number, variable, function or '('")


def parse(text, dims):
    """Parse an expression over variables ``x0 .. x{dims-1}``."""
    dims = int(dims)
    if dims < 1:
        raise ExpressionError("dims must be >= 1")
    parser = _Parser(_tokenize(text), dims)
    node = parser.expression()
    if parser.peek()[0] != "end":
        parser.error("unexpected trailing input")
    return with_dims(node, dims)


# ---------------------------------------------------------------------------
# unparsing

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_OPSYM = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def unparse(f):
    """Render a parseable source string (derivative trees may contain
    ``step(...)``, which the grammar does not accept back)."""
    done = {}  # node -> (source, precedence)

    def at(node, p):
        """``node``'s source, parenthesized if it binds looser than ``p``."""
        s, q = done[node]
        return s if q >= p else f"({s})"

    for node in _postorder([f]):
        k = node.kind
        if k == "const":
            s = repr(node.payload)
            p = 5 if node.payload >= 0 else 0
        elif k == "var":
            s, p = f"x{node.payload}", 5
        elif k in _OPSYM:
            a, b = node.args
            p = _PREC[k]
            s = f"{at(a, p)} {_OPSYM[k]} {at(b, p + 1)}"
        elif k == "neg":
            s, p = f"-{at(node.args[0], 3)}", 3
        elif k == "pow":
            s, p = f"{at(node.args[0], 5)}^{node.payload}", 4
        else:  # function application
            s, p = f"{k}({', '.join(done[a][0] for a in node.args)})", 5
        done[node] = s, p
    return done[f][0]


# ---------------------------------------------------------------------------
# compilation to plain Python functions

# operand slots of the point-kernel templates, ``str.format`` fields
_SLOTS = ("{0}", "{1}")


class _PointCode:
    """Snippets of the point kernels: each variable a float local, each
    operator node a fold line ``(temp, template, arg_names)``, where
    ``template`` is the node's snippet over the slots ``_SLOTS``.

    ``params`` is the list of floats a scalar kernel takes.  A kernel in
    which ``_lanes`` found a wide group takes the float64 array ``array``
    instead, and ``_point_kernel`` runs it under the numpy error state
    ``errors``.  ``_codegen`` marks each point kernel with ``takes_array``
    and ``returns_array``."""

    params = "x"
    array = "a"
    errors = dict(divide="raise", invalid="raise", over="raise",
                  under="ignore")
    # the functions that the kernel snippets of ``_OPS`` call by name
    namespace = {
        "sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
        "sqrt": math.sqrt, "_fmax": _fmax, "_fmin": _fmin, "_step": _ref_step,
        "inf": _INF, "nan": _NAN, "np": np, "_nonzero": _nonzero,
    }

    @staticmethod
    def const(c):
        return repr(c), []

    @staticmethod
    def var(i):
        return f"v{i}", [f"v{i} = x[{i}]"]

    @staticmethod
    def op(k, payload, args, temp):
        slots = _SLOTS[:len(args)]
        if payload is not None:
            slots += (payload,)
        return temp, [(temp, _OPS[k].kernel(*slots), args)]

    @staticmethod
    def result(names):
        return names[0] if len(names) == 1 else "(" + ", ".join(names) + ")"


# the narrowest lane group that a point kernel computes as one numpy
# operation, the most lanes it may unpack per lane so computed, and the
# share of a group's lanes below which scalar code takes each member it
# reads with ``.item(p)`` instead of unpacking the group's ``.tolist()``.
# All are measured crossovers: the builtins' kernels ran slower on arrays
# at 32 and 48 dimensions and broke even or gained at 64; Ackley's value
# kernel, which unpacks 2 lanes for every 3 it computes, ran slower at
# 100; and ``.item`` reads beat one ``tolist()`` up to 12 of 64 lanes and
# 20 of 100, losing at 14 and 24
_LANES = 64
_UNPACKED = 0.5
_ITEMS = 0.2


def _array_template(kind, payload, arity):
    """``_OPS[kind].vector``'s snippet over ``_SLOTS``, or None where the
    kind or the payload stays scalar."""
    op = _OPS[kind]
    slots = _SLOTS[:arity] + (() if payload is None else (payload,))
    if op.vector is True:
        return op.kernel(*slots)
    return op.vector(*slots) if op.vector else None


def _lanes(cse, lines, root_names, dims):
    """A point kernel's lines with its lane groups computed on arrays:
    ``(lines, root_names, namespace)``, or None if no group is at least
    ``_LANES`` wide.

    ``cse`` maps each ``(kind, payload, arg_names)`` to its name and
    ``lines`` holds the one line each entry wrote, in the same order.  A
    lane is one dimension's copy of a term.  The variables are group 0,
    lane ``i`` for ``x{i}``.  Two operator nodes are in one group when
    they have the same kind and payload and each pair of operands is
    either members of one group in the node's lane, or the same name of a
    node outside every group, or two constants; constants that differ
    between lanes become a constant array.  The n-th node of a kind,
    payload and operand groups in a lane joins that signature's n-th
    group.  A node whose operands lie in different lanes (Levy's ``x_i``
    and ``x_{i+1}``), whose kind ``_Op.vector`` keeps scalar, or that
    reads no group member stays scalar.

    Each group at least ``_LANES`` wide becomes one line over arrays in
    lane order, written where its first member was: its dependencies come
    earlier in the post-order, as in any one lane, and its readers later.
    It reads an operand group at a subset of that group's lanes through a
    slice or an index array.  The members that scalar lines or the roots
    read are unpacked once from ``.tolist()``, or each taken with
    ``.item(p)`` where fewer than ``_ITEMS`` of a group's lanes are read
    (Levy's first and last lanes), so every sum stays a chain of float
    additions in the order of the tree.  Roots that are one group, in lane
    order, are returned as its array.  A kernel that would unpack more
    than ``_UNPACKED`` lanes per lane it computes on arrays, counting every
    lane of a ``tolist()`` and one per ``.item``, stays scalar.
    """
    where = {}             # member name -> (group, lane)
    key_of = {}            # (kind, payload, operands, n) -> group
    # group -> ({lane: (name, arg_names)}, (kind, payload, operands))
    groups = [({}, None)]
    count = {}
    templates = {}         # (kind, payload) -> _array_template
    temps = set(cse.values())
    for (kind, payload, args), name in cse.items():
        if kind == "var":
            where[name] = 0, payload
            groups[0][0][payload] = name, args
            continue
        if (kind, payload) not in templates:
            templates[kind, payload] = _array_template(kind, payload,
                                                       len(args))
        if templates[kind, payload] is None:
            continue
        lane, ops = None, []
        for a in args:
            if a not in where:
                ops.append(a if a in temps else None)
            elif lane is None or where[a][1] == lane:
                g, lane = where[a]
                ops.append(g)
            else:
                break
        else:
            if lane is None:
                continue
            key = (kind, payload, tuple(ops))
            n = count[key, lane] = count.get((key, lane), -1) + 1
            g = key_of.setdefault(key + (n,), len(groups))
            if g == len(groups):
                groups.append(({}, key))
            groups[g][0][lane] = name, args
            where[name] = g, lane
    wide = [g == 0 or len(members) >= _LANES
            for g, (members, _) in enumerate(groups)]
    if not any(wide[1:]):
        return None

    def group_of(name):
        """The wide group that ``name`` is a member of, else None."""
        g = where.get(name)
        return g[0] if g is not None and wide[g[0]] else None

    lanes = [sorted(members) for members, _ in groups]
    lanes[0] = range(dims)  # the input array, indexed by lane
    arrays = [_PointCode.array] + [f"g{g}" for g in range(1, len(groups))]
    namespace = {}

    def vector_line(g):
        members, (kind, payload, ops) = groups[g]
        template, args = templates[kind, payload], []
        for i, d in enumerate(ops):
            if type(d) is int:
                if len(lanes[g]) < len(lanes[d]):
                    at = {l: p for p, l in enumerate(lanes[d])}
                    pos = [at[l] for l in lanes[g]]
                    if pos[-1] - pos[0] == len(pos) - 1:
                        part = f"[{pos[0]}:{pos[-1] + 1}]"
                    else:
                        part = f"[i{len(namespace)}]"
                        namespace[part[1:-1]] = np.array(pos)
                    template = template.replace(_SLOTS[i], _SLOTS[i] + part)
                d = arrays[d]
            elif d is None:
                # a constant array, 0-d where all lanes agree: numpy
                # multiplies by one faster than by a Python float
                consts = [members[l][1][i] for l in lanes[g]]  # reprs
                d = f"k{len(namespace)}"
                namespace[d] = np.array(
                    float(consts[0]) if consts.count(consts[0]) == len(consts)
                    else [float(c) for c in consts])
            args.append(d)
        return arrays[g], template, tuple(args)

    g = group_of(root_names[0])
    if g and root_names == [groups[g][0][l][0] for l in lanes[g]]:
        root_names, read = [arrays[g]], set()
    else:
        read = set(root_names)
    for name, line in zip(cse.values(), lines):
        if type(line) is tuple and group_of(name) is None:
            read.update(line[2])
    out, done = [], set()
    computed = unpacked = 0  # lanes, the input's excepted
    for name, line in zip(cse.values(), lines):
        g = group_of(name)
        if g is None:
            out.append(line)
            continue
        if g in done:
            continue
        done.add(g)
        if g:
            out.append(vector_line(g))
            computed += len(lanes[g])
        members = groups[g][0]
        targets = [members[l][0] if l in members and members[l][0] in read
                   else "_" for l in lanes[g]]
        reads = len(targets) - targets.count("_")
        if reads < _ITEMS * len(targets):
            out.extend((t, f"{{0}}.item({p})", (arrays[g],))
                       for p, t in enumerate(targets) if t != "_")
        elif reads:
            out.append((", ".join(targets), "{0}.tolist()", (arrays[g],)))
            reads = len(targets)
        unpacked += reads if g else 0
    if unpacked > _UNPACKED * computed:
        return None
    return out, root_names, namespace


# brackets a folded operand may nest; CPython's tokenizer stops at 200
_FOLD_DEPTH = 40


def _codegen(roots, name, code=_PointCode, dims=None):
    """Generate one function evaluating all roots with shared CSE.

    ``code`` writes the snippets: ``const(c)`` and ``var(i)`` name a leaf,
    ``op(kind, payload, arg_names, temp)`` computes an operator node, each
    returning (name, lines); ``result(root_names)`` is the returned
    expression.  Names may be any hashable value, since they key the CSE.

    For ``_PointCode``, ``_lanes`` then computes each lane group of
    isomorphic terms at least ``_LANES`` wide with one numpy operation;
    ``dims`` (default: the roots' widest) is the length of the input
    array that such a kernel takes.  Only the kinds whose numpy form
    gives the scalar snippet's bits are grouped (``_Op.vector``: add, sub,
    mul, div, neg, square, sqrt, abs, sin and cos).  Under
    ``_PointCode.errors`` every input on which numpy would set a
    floating-point flag raises ``FloatingPointError`` instead.  Each point
    kernel is marked with ``takes_array``, true where it takes the array,
    and ``returns_array``, true where its roots are one group and it
    returns that group's array instead of a tuple.

    A line may also be a fold line ``(temp, template, arg_names)``.  It is
    written in parentheses into the one expression that references
    ``temp``, where the emitted text (a root in the return included)
    references it exactly once; so pow's ``a * a`` keeps ``a`` named.  A
    fold only moves text: every operation and the order of every binary
    operation stay, so results are those of one line per node.  Past
    ``_FOLD_DEPTH`` brackets, counting those the snippets add, the node
    keeps its line ``temp = ...`` instead.
    """
    names = {}
    cse = {}
    lines = []
    emit_const, emit_var, emit_op = code.const, code.var, code.op
    for node in _postorder(roots):
        k = node.kind
        if k == "const":
            names[node], body = emit_const(node.payload)
            lines.extend(body)
            continue
        arg_names = tuple(names[a] for a in node.args)
        key = (k, node.payload, arg_names)
        hit = cse.get(key)
        if hit is None:
            if k == "var":
                hit, body = emit_var(node.payload)
            else:
                hit, body = emit_op(k, node.payload, arg_names,
                                    f"t{len(cse)}")
            lines.extend(body)
            cse[key] = hit
        names[node] = hit
    root_names = [names[r] for r in roots]
    params, ns = code.params, dict(code.namespace)
    takes_array = returns_array = False
    if code is _PointCode:
        if dims is None:
            dims = max((r.dims for r in roots), default=0)
        # a group holds at most one node per dimension
        wide = _lanes(cse, lines, root_names, dims) if dims >= _LANES else None
        if wide is not None:
            lines, root_names, arrays = wide
            params, takes_array = code.array, True
            # the roots collapsed into their group's array
            returns_array = len(root_names) < len(roots)
            ns.update(arrays)
    uses = {}
    for n in root_names:
        uses[n] = uses.get(n, 0) + 1
    for line in lines:
        if type(line) is tuple:
            template = line[1]
            for slot, a in zip(_SLOTS, line[2]):
                uses[a] = uses.get(a, 0) + template.count(slot)
    folded = {}  # temp -> (text, bracket depth) of a fold not yet written
    out = []
    for line in lines:
        if type(line) is not tuple:
            out.append(line)
            continue
        temp, template, args = line
        texts, depth = [], 0
        for a in args:
            if a in folded:
                a, d = folded.pop(a)
                if d > depth:
                    depth = d
            texts.append(a)
        text = template.format(*texts)
        depth += 1 + template.count("(")
        # an unpacking line's targets ("t3, _, t9") are no one's operand
        if uses.get(temp) == 1 and depth <= _FOLD_DEPTH:
            folded[temp] = f"({text})", depth
        else:
            out.append(f"{temp} = {text}")
    ret = code.result([folded.pop(n)[0] if n in folded else n
                       for n in root_names])
    src = (f"def {name}({params}):\n"
           + "".join(f"    {line}\n" for line in out)
           + f"    return {ret}\n")
    exec(compile(src, f"<compiled {name}>", "exec"), ns)
    fn = ns[name]
    if code is _PointCode:
        fn.takes_array, fn.returns_array = takes_array, returns_array
    return fn


def _point_array(x, dims):
    """``x`` as a float64 array of shape ``(dims,)``; a scalar point
    kernel takes its ``tolist()``, converted once per call, not once per
    variable load."""
    xs = np.asarray(x, dtype=float)
    if xs.shape != (dims,):
        raise DimensionMismatch(
            f"expression over {dims} dimension(s) evaluated at an array "
            f"of shape {xs.shape}")
    return xs


def _point_kernel(roots, dims, name):
    """Callable for the kernel ``name`` over ``roots``, returning what the
    generated function returns: a float for one root, else a tuple, or
    the float64 array of a lane group (see ``_codegen``).  A kernel that
    computes on arrays runs under ``_PointCode.errors``.  The callable
    falls back to the reference tree walk on domain errors and on the
    floating-point errors of array operations, so NaN and infinity
    semantics are preserved exactly and no numpy warning reaches the
    caller; the walk's result has the type the kernel returns."""
    fast = _codegen(roots, name, dims=dims)
    single = len(roots) == 1
    array_in, array_out = fast.takes_array, fast.returns_array
    if array_in:
        fast = np.errstate(**_PointCode.errors)(fast)

    def fn(x):
        xs = _point_array(x, dims)
        try:
            return fast(xs if array_in else xs.tolist())
        except (ValueError, OverflowError, ZeroDivisionError,
                FloatingPointError):
            out = _evaluate_all(roots, xs.tolist())
            if single:
                return out[0]
            return np.array(out) if array_out else out

    return fn


def compile_function(f):
    """Fast callable for ``f``."""
    return _point_kernel((f,), f.dims, "_f")


def compile_vector(components, dims):
    """Fast callable returning the component values: a tuple, or a
    float64 array where the components are one lane group (see
    ``_codegen``), on the kernel's path and the walk's alike."""
    components = tuple(components)
    fn = _point_kernel(components, dims, "_v")
    if len(components) == 1:
        return lambda x: (fn(x),)
    return fn


class CompiledObjective:
    """Value / gradient / Hessian-diagonal callables with an evaluation
    counter.

    Each call to :meth:`value`, :meth:`gradient` or :meth:`hessian_diagonal`
    counts as one evaluation toward ``total_evaluations``, which is the
    accounting the search budgets use.  The derivative kernels and the
    interval kernel are generated on first use and kept.
    """

    def __init__(self, expression):
        self.expression = expression
        self.dims = expression.dims
        self._value = compile_function(expression)
        self.total_evaluations = 0

    def value(self, x):
        self.total_evaluations += 1
        return self._value(x)

    def gradient(self, x):
        self.total_evaluations += 1
        return np.asarray(self._grad(x), dtype=float)

    def hessian_diagonal(self, x):
        self.total_evaluations += 1
        return np.asarray(self._hess(x), dtype=float)

    @cached_property
    def _grad(self):
        return compile_vector(gradient(self.expression), self.dims)

    @cached_property
    def _hess(self):
        return compile_vector(hessian_diagonal(self.expression), self.dims)

    @cached_property
    def interval_kernel(self):
        """``interval.compile_interval`` of the expression; not counted as
        an evaluation."""
        from .interval import compile_interval
        return compile_interval(self.expression)


def as_objective(f):
    if isinstance(f, CompiledObjective):
        return f
    if isinstance(f, Expression):
        return CompiledObjective(f)
    raise TypeError("expected an Expression or CompiledObjective")
