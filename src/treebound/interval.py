"""Interval arithmetic over expression trees, and axis-aligned box geometry.

``eval_interval`` is the natural interval extension: the expression is
evaluated with interval operands, so the result encloses every point
value over the box (sound, not necessarily tight).  Enclosures are
computed with ordinary double arithmetic; callers should allow an
outward slack of ``1e-12 * (1 + |bound|)`` when asserting exactness.

Each operator's interval rule, a function over the float endpoints of
its operands, is part of its entry in the operator table ``expr._OPS``,
next to its point rule.  ``compile_interval`` turns an expression into a
straight-line kernel, using the CSE and node ordering of the point
kernels (``expr._codegen``).  The kernel computes add, sub, neg, max,
min and the product with a finite nonzero constant inline, with the
rule's exact bits (the ``inline`` snippets of ``_OPS``), and calls the
rule of every other operator.  A
``CompiledObjective`` compiles its kernel on the first bound and keeps
it, so ``eval_interval`` and ``lower_bound`` accept either an Expression
(compiled for that call) or a CompiledObjective.

An operation whose real image is empty (e.g. log over a non-positive
box) poisons the result: the whole line ``[-inf, +inf]`` flagged as
invalid.  Every operator with a poisoned operand is poisoned too, so the
kernel raises at the first such rule and ``eval_interval`` returns
``Interval.poisoned()``.  NaN is never stored in an interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import _OPS, CompiledObjective, DimensionMismatch, _codegen, _Poison

__all__ = [
    "Interval",
    "BoxDomain",
    "eval_interval",
    "lower_bound",
    "log_volume",
    "partition",
    "LOWER_BOUND_CLAMP",
]

_INF = math.inf
LOWER_BOUND_CLAMP = 1e12
_WIDTH_FLOOR = 1e-300


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; endpoints may be infinite."""

    lo: float
    hi: float
    poison: bool = False

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if self.poison or math.isnan(lo) or math.isnan(hi):
            object.__setattr__(self, "lo", -_INF)
            object.__setattr__(self, "hi", _INF)
            object.__setattr__(self, "poison", True)
            return
        if lo > hi:
            raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def poisoned():
        return Interval(-_INF, _INF, poison=True)

    def contains(self, value):
        return self.lo <= value <= self.hi

    def __repr__(self):
        if self.poison:
            return "Interval(poisoned)"
        return f"Interval({self.lo}, {self.hi})"


_POISON = Interval.poisoned()


# ---------------------------------------------------------------------------
# boxes

class BoxDomain:
    """Axis-aligned box: one finite interval per dimension.

    A constructed box is closed.  :meth:`split` gives its lower piece an
    open upper face on the split dimension (the half-open membership
    convention: a split face belongs to the piece on its upper side), so
    point membership across the pieces of :func:`partition` is a
    partition function.
    """

    __slots__ = ("lows", "highs", "closed_hi")

    def __init__(self, lows, highs):
        try:
            lows = np.array(lows, dtype=float)
            highs = np.array(highs, dtype=float)
        except OverflowError:  # an int too large for a float
            raise ValueError("box bounds must be finite") from None
        if lows.ndim != 1 or lows.shape != highs.shape or lows.size < 1:
            raise ValueError("bounds must be equal-length 1-d sequences")
        if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
            raise ValueError("box bounds must be finite")
        if np.any(lows > highs):
            raise ValueError("box has lo > hi in some dimension")
        self._adopt(lows, highs, np.ones(lows.size, dtype=bool))

    def _adopt(self, lows, highs, closed_hi):
        """Take bound arrays already known to be valid, without checks or
        copies; an array shared with another box stays shared, which its
        read-only flag makes safe."""
        for arr in (lows, highs, closed_hi):
            arr.setflags(write=False)
        self.lows = lows
        self.highs = highs
        self.closed_hi = closed_hi
        return self

    @classmethod
    def cube(cls, lo, hi, dims):
        return cls([lo] * dims, [hi] * dims)

    @property
    def dims(self):
        return self.lows.size

    @property
    def widths(self):
        return self.highs - self.lows

    @property
    def midpoint(self):
        return 0.5 * (self.lows + self.highs)

    def contains(self, x):
        """Membership under the half-open convention (see class docstring)."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.lows.shape:
            return False
        above = x >= self.lows
        below = (x < self.highs) | (self.closed_hi & (x == self.highs))
        return bool(above.all() and below.all())

    def encloses(self, x):
        """Closed membership, ignoring face-closure flags."""
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lows).all() and (x <= self.highs).all())

    def clip(self, x):
        return np.clip(np.asarray(x, dtype=float), self.lows, self.highs)

    def sample(self, rng):
        # the draw of rng.uniform(lows, highs), with its range check but
        # without its other per-call checks
        lows = self.lows
        w = self.highs - lows
        if not math.isfinite(w.max()):  # hi - lo overflowed
            raise OverflowError("Range exceeds valid bounds")
        return lows + w * rng.random(lows.size)

    def split(self, d):
        """Bisect dimension ``d`` at its midpoint; the lower piece gets an
        open upper face at ``d``."""
        mid = 0.5 * (self.lows[d] + self.highs[d])
        if not math.isfinite(mid):  # lo + hi overflowed
            raise ValueError("box bounds must be finite")
        left_hi = self.highs.copy()
        left_hi[d] = mid
        left_closed = self.closed_hi.copy()
        left_closed[d] = False
        right_lo = self.lows.copy()
        right_lo[d] = mid
        new = object.__new__
        return (new(BoxDomain)._adopt(self.lows, left_hi, left_closed),
                new(BoxDomain)._adopt(right_lo, self.highs, self.closed_hi))

    def widest_dim(self):
        return int(self.widths.argmax())

    def __eq__(self, other):
        return (isinstance(other, BoxDomain)
                and np.array_equal(self.lows, other.lows)
                and np.array_equal(self.highs, other.highs))

    def __hash__(self):
        return hash((self.lows.tobytes(), self.highs.tobytes()))

    def __repr__(self):
        pairs = ", ".join(f"[{lo}, {hi}]"
                          for lo, hi in zip(self.lows, self.highs))
        return f"BoxDomain({pairs})"


def log_volume(box):
    """Sum of log side lengths; degenerate widths are floored at 1e-300
    so the result stays finite."""
    return float(np.log(np.maximum(box.widths, _WIDTH_FLOOR)).sum())


def partition(box, k):
    """Split ``box`` into ``k`` interior-disjoint boxes covering it.

    Recursive bisection: repeatedly split the largest-volume piece at
    the midpoint of its widest dimension.  Deterministic.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    pieces = [box]
    vols = [log_volume(box)]
    while len(pieces) < k:
        i = vols.index(max(vols))  # the first largest, as np.argmax
        left, right = pieces[i].split(pieces[i].widest_dim())
        pieces[i:i + 1] = [left, right]
        vols[i:i + 1] = [log_volume(left), log_volume(right)]
    return pieces


# ---------------------------------------------------------------------------
# expression enclosure

class _IntervalCode:
    """Snippets of the interval kernel for ``expr._codegen``: each node is
    a pair of float locals, or a constant's repr twice, and each operator
    one line, its ``inline`` snippet where it has one, else a call of its
    rule."""

    params = "lo, hi"
    namespace = {"inf": _INF, "_Poison": _Poison,
                 **{f"_{k}": op.interval for k, op in _OPS.items()}}

    @staticmethod
    def const(c):
        c = float(c)
        if math.isnan(c):
            # poisons the root, so the code after this line never runs
            return ("nan", "nan"), ["raise _Poison"]
        return (repr(c), repr(c)), []

    @staticmethod
    def var(i):
        return (f"l{i}", f"h{i}"), [f"l{i} = lo[{i}]", f"h{i} = hi[{i}]"]

    @staticmethod
    def op(k, payload, args, temp):
        l, h = f"{temp}l", f"{temp}h"
        inline = _OPS[k].inline  # an unknown kind raises ExpressionError
        line = inline and inline(l, h, *args)
        if not line:
            operands = [end for pair in args for end in pair]
            if payload is not None:
                operands.append(repr(payload))
            line = f"{l}, {h} = _{k}({', '.join(operands)})"
        return (l, h), [line]

    @staticmethod
    def result(names):
        (lo, hi), = names
        return f"{lo}, {hi}"


def compile_interval(f):
    """Straight-line interval kernel of expression ``f``.

    ``kernel(lows, highs)`` takes the box's bounds as lists of floats and
    returns the enclosure's ``(lo, hi)``; it raises ``_Poison`` when the
    enclosure is poisoned.  Use it through :func:`eval_interval` or
    :func:`lower_bound`, which catch that.
    """
    return _codegen([f], "_interval", _IntervalCode)


def _enclose(f, box):
    """(lo, hi) of ``f`` (an Expression, or a CompiledObjective whose
    cached kernel is used) over ``box``; raises ``_Poison``."""
    if f.dims != box.dims:
        raise DimensionMismatch(
            f"expression over {f.dims} dimension(s), box has {box.dims}")
    if isinstance(f, CompiledObjective):
        kernel = f.interval_kernel
    else:
        kernel = compile_interval(f)
    return kernel(box.lows.tolist(), box.highs.tolist())


def eval_interval(f, box):
    """Sound enclosure of ``f`` over ``box`` by natural interval extension.

    ``f`` is an Expression or a CompiledObjective.  A bare Expression is
    compiled to an interval kernel on every call; callers that bound many
    boxes should pass ``as_objective(f)``, which keeps its kernel."""
    try:
        lo, hi = _enclose(f, box)
    except _Poison:
        return _POISON
    return Interval(lo, hi)


def lower_bound(f, box):
    """Finite lower bound of ``f`` over ``box``: the interval extension's
    low endpoint clamped into [-1e12, 1e12].

    ``f`` is an Expression or a CompiledObjective.  A bare Expression is
    compiled to an interval kernel on every call; callers that bound many
    boxes should pass ``as_objective(f)``, which keeps its kernel."""
    try:
        lo = _enclose(f, box)[0]
    except _Poison:
        lo = -_INF
    return float(min(max(lo, -LOWER_BOUND_CLAMP), LOWER_BOUND_CLAMP))
