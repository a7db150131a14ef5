"""Correctness checks on one search result, made apart from treebound.

Each check compares what ``optimize`` returned with a numpy formula or an
optimum from ``reference.py``; none of them calls back into the package.
A failed check is one failed operation of the benchmark run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# interval.py: enclosures are computed in ordinary doubles, so a bound may
# miss by an outward slack of 1e-12 * (1 + |bound|)
BOUND_SLACK = 1e-12
# the benchmark's formulas sum in another order than the compiled kernels
VALUE_RTOL = 1e-9
LEAF_COUNT = 4
POINTS_PER_LEAF = 64


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Outcome:
    """What the checks need from one search, kept after its tree is freed."""

    search_seed: int
    best_x: np.ndarray
    best_y: float
    root_lb: float
    trace: tuple      # (step, evaluations, wall_ms, best_y) per step
    lows: np.ndarray  # the search domain
    highs: np.ndarray
    leaves: tuple     # (lows, highs, lb) of a few leaves of the final tree


def _leaves(root):
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        else:
            out.append(node)
    return out


def outcome(result, box, search_seed):
    """Summarise a ``SearchResult``.  The leaves kept are the one holding
    the lowest bound, which sets ``root.lb``, and others evenly spaced in
    depth-first order."""
    leaves = _leaves(result.root)
    lowest = min(range(len(leaves)), key=lambda i: leaves[i].lb)
    picks = [lowest] + [int(i) for i in
                        np.linspace(0, len(leaves) - 1, LEAF_COUNT - 1)]
    return Outcome(
        search_seed=search_seed,
        best_x=np.array(result.x, dtype=float),
        best_y=float(result.y),
        root_lb=float(result.root.lb),
        trace=tuple((r.step, r.evaluations, r.wall_ms, r.best_y)
                    for r in result.trace),
        lows=np.array(box.lows), highs=np.array(box.highs),
        leaves=tuple((np.array(leaves[i].box.lows),
                      np.array(leaves[i].box.highs), float(leaves[i].lb))
                     for i in picks))


def _slack(bound):
    return BOUND_SLACK * (1.0 + abs(bound))


def check(out, f, fstar, fstar_tol, steps):
    """Run every check on one outcome.

    ``f`` is the numpy formula of the objective, ``fstar`` its optimum
    and ``fstar_tol`` the relative accuracy of that optimum.
    """
    x, y = out.best_x, out.best_y
    value = float(f(x))
    tol = fstar_tol * (1.0 + abs(fstar))
    checks = [
        Check("value", abs(value - y) <= VALUE_RTOL * max(1.0, abs(y)),
              f"formula {value!r}, best_y {y!r}"),
        Check("in_box", bool(np.all(x >= out.lows) and np.all(x <= out.highs)),
              f"best_x {x.tolist()}"),
        Check("lb_le_fstar", out.root_lb <= fstar + tol + _slack(out.root_lb),
              f"root.lb {out.root_lb!r}, f* {fstar!r}"),
        Check("fstar_le_best", fstar <= y + tol,
              f"f* {fstar!r}, best_y {y!r}"),
    ]
    steps_seen = [r[0] for r in out.trace]
    checks.append(Check("trace_steps", steps_seen == list(range(1, steps + 1)),
                        f"{len(steps_seen)} records for {steps} steps"))
    ys = [r[3] for r in out.trace]
    rises = [i for i in range(1, len(ys)) if ys[i] > ys[i - 1]]
    checks.append(Check("trace_monotone",
                        not rises and bool(ys) and ys[-1] == y,
                        f"rises at records {rises[:5]}, last "
                        f"{ys[-1] if ys else None!r}, best_y {y!r}"))
    rng = np.random.default_rng(out.search_seed)
    for k, (lows, highs, lb) in enumerate(out.leaves):
        pts = rng.uniform(lows, highs, size=(POINTS_PER_LEAF, lows.size))
        low = float(np.min(f(pts)))
        checks.append(Check(f"leaf_bound_{k}", low >= lb - _slack(lb),
                            f"min sampled f {low!r} below leaf lb {lb!r}"))
    return checks


def check_repeat(a, b, label):
    """Two searches with the same seed must agree exactly."""
    same = (a.trace == b.trace and a.best_y == b.best_y
            and np.array_equal(a.best_x, b.best_x))
    diff = next((i for i, (p, q) in enumerate(zip(a.trace, b.trace))
                 if p != q), None)
    return Check(label, same,
                 f"seed {a.search_seed}: first differing record {diff}, "
                 f"best_y {a.best_y!r} vs {b.best_y!r}")
