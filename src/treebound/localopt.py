"""Bounded-budget local refinement of a point inside a box.

Projected limited-memory quasi-Newton descent: inverse-Hessian pairs
(memory 5), backtracking Armijo line search (c = 1e-4, step halving),
and projection of every iterate onto the box.  The evaluation budget
counts function and gradient calls separately, one each; the total
never exceeds ``budget + 1`` (the extra call is the initial value
needed for the report).  A budget of zero returns the start point.

Descent is strictly monotone: a trial point is accepted only if it does
not increase the objective, so ``final y <= f(x0)`` always holds.  NaN
trial values count as rejected steps; after 30 halvings the search
stops.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy._core.umath import clip as _clip

from .expr import as_objective

__all__ = ["LocalOptReport", "local_opt"]

ARMIJO_C = 1e-4
MEMORY = 5
MAX_HALVINGS = 30
GRAD_TOL = 1e-8
IMPROVE_TOL = 1e-12
CURVATURE_EPS = 1e-10


@dataclass
class LocalOptReport:
    x: np.ndarray
    y: float
    evaluations: int
    converged: bool


def _lbfgs_direction(memory, gamma, g):
    """Two-loop recursion over stored (s, y, 1 / s·y) pairs, scaled by
    ``gamma`` = s·y / y·y of the newest pair."""
    if not memory:
        return -g
    q = g.copy()
    alphas = []
    # Python floats: scaling an array by one costs less than by a numpy
    # scalar, and gives the same values
    for s, yk, rho in reversed(memory):
        a = rho * float(s.dot(q))
        q -= a * yk
        alphas.append(a)
    q *= gamma
    for (s, yk, rho), a in zip(memory, reversed(alphas)):
        b = rho * float(yk.dot(q))
        q += (a - b) * s
    return -q


def local_opt(f, x0, box, budget):
    """Refine ``x0`` within ``box`` using at most ``budget`` evaluations.

    ``f`` may be an expression or a compiled objective (whose counters
    then absorb the evaluations).  A bare Expression is compiled on every
    call; repeated callers should pass ``as_objective(f)``.
    """
    obj = as_objective(f)
    budget = int(budget)
    if budget < 0:
        raise ValueError("budget must be >= 0")
    x = np.asarray(x0, dtype=float).copy()
    if not box.encloses(x):
        raise ValueError("start point lies outside the box")

    # the loop runs on 10- to 100-element vectors, where numpy's Python
    # wrappers cost more than the arithmetic: read the bounds once and
    # call ndarray methods and the clip ufunc itself
    lows, highs = box.lows, box.highs
    value, gradient = obj.value, obj.gradient
    limit = budget + 1

    y = value(x)
    used = 1
    if budget == 0 or not math.isfinite(y):
        return LocalOptReport(x, y, used, False)

    g = gradient(x)
    used += 1
    if not np.isfinite(g).all():
        return LocalOptReport(x, y, used, False)

    converged = False
    memory = deque(maxlen=MEMORY)
    gamma = None
    while True:
        pg = x - _clip(x - g, lows, highs)
        if abs(pg).max() < GRAD_TOL:
            converged = True
            break

        d = _lbfgs_direction(memory, gamma, g)
        if d.dot(g) >= 0.0:
            d = -g

        alpha = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            if used >= limit:
                break
            # the first trial is x + 1.0 * d, exactly
            x_new = _clip(x + d if alpha == 1.0 else x + alpha * d,
                          lows, highs)
            y_new = value(x_new)
            used += 1
            s = x_new - x
            slope = float(g.dot(s))
            # require non-ascent even when projection spoils the slope
            if y_new == y_new and y_new <= y + ARMIJO_C * min(slope, 0.0):
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break

        improvement = y - y_new
        if improvement < IMPROVE_TOL * (1.0 + abs(y)):
            x, y = x_new, y_new
            converged = True
            break
        if used >= limit:
            x, y = x_new, y_new
            break
        g_new = gradient(x_new)
        used += 1
        if not np.isfinite(g_new).all():
            x, y = x_new, y_new
            break
        yk = g_new - g
        sy = float(s.dot(yk))
        yy = float(yk.dot(yk))
        if sy > CURVATURE_EPS * math.sqrt(float(s.dot(s))) * math.sqrt(yy):
            memory.append((s, yk, 1.0 / sy))
            gamma = sy / yy
        x, y, g = x_new, y_new, g_new

    return LocalOptReport(x, y, used, converged)
