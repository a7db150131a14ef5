"""Interval arithmetic over expression trees, and axis-aligned box geometry.

``eval_interval`` is the natural interval extension: the expression is
evaluated with interval operands, so the result encloses every point
value over the box (sound, not necessarily tight).  Enclosures are
computed with ordinary double arithmetic; callers should allow an
outward slack of ``1e-12 * (1 + |bound|)`` when asserting exactness.

Each operator has one interval rule here, a function over the float
endpoints of its operands.  ``compile_interval`` turns an expression into
a straight-line kernel that calls those rules, using the CSE and node
ordering of the point kernels (``expr._codegen``).  A
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

from .expr import CompiledObjective, DimensionMismatch, _codegen

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
_TWO_PI = 2.0 * math.pi
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

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, value):
        return self.lo <= value <= self.hi

    def __repr__(self):
        if self.poison:
            return "Interval(poisoned)"
        return f"Interval({self.lo}, {self.hi})"


_POISON = Interval.poisoned()


class _Poison(Exception):
    """Raised by a rule whose real image is empty.  Every operator with a
    poisoned operand is poisoned too, so the whole enclosure is."""


# Interval rules: each takes the (lo, hi) endpoints of its operands as
# floats (plus the exponent for pow) and returns the result's (lo, hi).

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


def _safe_pow(v, k):
    try:
        return v ** k
    except OverflowError:
        return -_INF if (v < 0.0 and k % 2) else _INF


def _ipow(alo, ahi, k):
    if k == 0:
        return 1.0, 1.0
    if k < 0:
        return _idiv(1.0, 1.0, *_ipow(alo, ahi, -k))
    plo, phi = _safe_pow(alo, k), _safe_pow(ahi, k)
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


def _isin(alo, ahi):
    if ahi - alo >= _TWO_PI:
        return -1.0, 1.0
    if not (math.isfinite(alo) and math.isfinite(ahi)):
        # degenerate infinite endpoint: no real argument value exists
        raise _Poison
    slo, shi = math.sin(alo), math.sin(ahi)
    lo, hi = min(slo, shi), max(slo, shi)
    if _crit_inside(alo, ahi, 0.5 * math.pi):
        hi = 1.0
    if _crit_inside(alo, ahi, -0.5 * math.pi):
        lo = -1.0
    return lo, hi


def _icos(alo, ahi):
    if ahi - alo >= _TWO_PI:
        return -1.0, 1.0
    if not (math.isfinite(alo) and math.isfinite(ahi)):
        raise _Poison
    clo, chi = math.cos(alo), math.cos(ahi)
    lo, hi = min(clo, chi), max(clo, chi)
    if _crit_inside(alo, ahi, 0.0):
        hi = 1.0
    if _crit_inside(alo, ahi, math.pi):
        lo = -1.0
    return lo, hi


def _safe_exp(v):
    try:
        return math.exp(v)
    except OverflowError:
        return _INF


def _iexp(alo, ahi):
    return _safe_exp(alo), _safe_exp(ahi)


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


_RULES = {
    "add": _iadd, "sub": _isub, "mul": _imul, "div": _idiv, "neg": _ineg,
    "pow": _ipow, "sin": _isin, "cos": _icos, "exp": _iexp, "log": _ilog,
    "sqrt": _isqrt, "abs": _iabs, "max": _imax, "min": _imin, "step": _istep,
}


# ---------------------------------------------------------------------------
# boxes

class BoxDomain:
    """Axis-aligned box: one finite interval per dimension.

    Boxes produced by :func:`partition` carry per-dimension upper-face
    closure flags implementing the half-open membership convention: a
    split face belongs to the piece on its upper side, while faces that
    coincide with the parent's boundary stay closed.  This makes point
    membership across the pieces a partition function.
    """

    __slots__ = ("lows", "highs", "closed_hi")

    def __init__(self, lows, highs, closed_hi=None):
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        if lows.ndim != 1 or lows.shape != highs.shape or lows.size < 1:
            raise ValueError("bounds must be equal-length 1-d sequences")
        if not (np.all(np.isfinite(lows)) and np.all(np.isfinite(highs))):
            raise ValueError("box bounds must be finite")
        if np.any(lows > highs):
            raise ValueError("box has lo > hi in some dimension")
        if closed_hi is None:
            closed_hi = np.ones(lows.size, dtype=bool)
        else:
            closed_hi = np.asarray(closed_hi, dtype=bool).copy()
        self._adopt(lows.copy(), highs.copy(), closed_hi)

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
        return cls(np.full(dims, float(lo)), np.full(dims, float(hi)))

    @classmethod
    def from_intervals(cls, pairs):
        pairs = [(iv.lo, iv.hi) if isinstance(iv, Interval) else tuple(iv)
                 for iv in pairs]
        return cls([p[0] for p in pairs], [p[1] for p in pairs])

    @property
    def dims(self):
        return self.lows.size

    @property
    def widths(self):
        return self.highs - self.lows

    @property
    def midpoint(self):
        return 0.5 * (self.lows + self.highs)

    @property
    def intervals(self):
        return tuple(Interval(lo, hi) for lo, hi in zip(self.lows, self.highs))

    def interval(self, d):
        return Interval(self.lows[d], self.highs[d])

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
        return rng.uniform(self.lows, self.highs)

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

    def intersect(self, other):
        lows = np.maximum(self.lows, other.lows)
        highs = np.minimum(self.highs, other.highs)
        if np.any(lows > highs):
            raise ValueError("boxes do not intersect")
        return BoxDomain(lows, highs)

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


def partition(box, k, rng=None):
    """Split ``box`` into ``k`` interior-disjoint boxes covering it.

    Recursive bisection: repeatedly split the largest-volume piece at
    the midpoint of its widest dimension.  Deterministic; the ``rng``
    argument is accepted for interface symmetry and unused.
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
    a pair of float locals, each operator one call of its rule."""

    params = "lo, hi"
    namespace = {"inf": _INF, "_Poison": _Poison,
                 **{f"_{k}": rule for k, rule in _RULES.items()}}

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
        if k not in _RULES:
            raise ValueError(f"unknown node kind {k!r}")
        operands = [end for pair in args for end in pair]
        if k == "pow":
            operands.append(repr(payload))
        return ((f"{temp}l", f"{temp}h"),
                [f"{temp}l, {temp}h = _{k}({', '.join(operands)})"])

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
        kernel = f.interval_kernel()
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
