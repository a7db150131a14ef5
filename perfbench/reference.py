"""Objective formulas and optima computed apart from treebound.

Every function here uses numpy (and scipy for the optima) directly and
never calls into the treebound package, so the benchmark's checks do not
rely on the code they check.

    python3 perfbench/reference.py

prints the three optima the benchmark checks against.
"""

from __future__ import annotations

import math

import numpy as np

# seed of the criterion-9 network: N(0, 1) weights, domain [-2, 2]^10
RELU_NET_SEED = 1009
RELU_NET_SHAPE = (10, 16)
RELU_NET_DOMAIN = (-2.0, 2.0)

# grid and polish settings for the separable Michalewicz optimum
MICHALEWICZ_GRID = 200_001
MICHALEWICZ_XATOL = 1e-12

# HiGHS works to a primal feasibility tolerance of about 1e-7, so the
# MILP objective and the network's value at the MILP point agree only to
# about that; checks against f* allow this much on top of their own slack
FSTAR_TOL = 1e-6


def relu_net_payload(seed=RELU_NET_SEED):
    """The criterion-9 network as the weights JSON ``nn_problem`` reads."""
    n, h = RELU_NET_SHAPE
    rng = np.random.default_rng(seed)
    return {
        "n": n, "h": h,
        "W1": rng.normal(size=(h, n)).tolist(),
        "b1": rng.normal(size=h).tolist(),
        "w2": rng.normal(size=h).tolist(),
        "b2": float(rng.normal()),
        "domain": list(RELU_NET_DOMAIN),
    }


# ---------------------------------------------------------------------------
# formulas, vectorised over the last axis

def ackley(x):
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    return (-20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=-1) / n))
            - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=-1) / n)
            + 20.0 + math.e)


def michalewicz(x, steepness=10):
    x = np.asarray(x, dtype=float)
    i = np.arange(1, x.shape[-1] + 1)
    return -np.sum(np.sin(x) * np.sin(i * x * x / np.pi) ** (2 * steepness),
                   axis=-1)


def relu_net(payload):
    """Forward pass ``b2 + w2 . relu(W1 x + b1)`` of a weights payload."""
    w1 = np.asarray(payload["W1"], dtype=float)
    b1 = np.asarray(payload["b1"], dtype=float)
    w2 = np.asarray(payload["w2"], dtype=float)
    b2 = float(payload["b2"])

    def f(x):
        x = np.asarray(x, dtype=float)
        return b2 + np.maximum(0.0, x @ w1.T + b1) @ w2

    return f


# ---------------------------------------------------------------------------
# optima

def ackley_optimum(dims):
    """Ackley is 0 at the origin and positive elsewhere."""
    return 0.0


def michalewicz_optimum(dims, steepness=10):
    """Sum of the 1-d minima of the separable terms over [0, pi]: a dense
    grid locates each minimum, a bounded scalar minimizer polishes it."""
    from scipy.optimize import minimize_scalar

    grid = np.linspace(0.0, math.pi, MICHALEWICZ_GRID)
    step = grid[1] - grid[0]
    total = 0.0
    for i in range(1, dims + 1):
        def term(t, i=i):
            return -math.sin(t) * math.sin(i * t * t / math.pi) ** (2 * steepness)

        vals = -np.sin(grid) * np.sin(i * grid * grid / np.pi) ** (2 * steepness)
        k = int(np.argmin(vals))
        lo = max(0.0, grid[k] - step)
        hi = min(math.pi, grid[k] + step)
        res = minimize_scalar(term, bounds=(lo, hi), method="bounded",
                              options={"xatol": MICHALEWICZ_XATOL})
        total += min(float(res.fun), float(vals[k]))
    return total


def relu_net_optimum(payload):
    """Exact minimum of the network over its box, from a big-M MILP with
    one binary per hidden unit, solved with a zero relative gap.

    Variables are ``x`` (n), ``h`` (hidden outputs) and ``a`` (binaries).
    With ``z_j = W1_j x + b1_j`` and ``L_j <= z_j <= U_j`` over the box,
    ``h_j = max(0, z_j)`` is ``h_j >= z_j``, ``h_j >= 0``,
    ``h_j <= z_j - L_j (1 - a_j)`` and ``h_j <= U_j a_j``.  Returns the
    network's own value at the MILP point, after checking that it agrees
    with the MILP objective.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    w1 = np.asarray(payload["W1"], dtype=float)
    b1 = np.asarray(payload["b1"], dtype=float)
    w2 = np.asarray(payload["w2"], dtype=float)
    b2 = float(payload["b2"])
    lo, hi = payload["domain"]
    h, n = w1.shape
    centre = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo)
    spread = radius * np.abs(w1).sum(axis=1)
    upper = w1.sum(axis=1) * centre + b1 + spread
    lower = w1.sum(axis=1) * centre + b1 - spread

    eye = np.eye(h)
    zero = np.zeros((h, h))
    # column blocks [x | h | a]; one row block per constraint family
    a_ub = np.block([[-w1, eye, zero],                    # h - z >= 0
                     [-w1, eye, -np.diag(lower)],         # h - z + L(1-a) <= 0
                     [np.zeros((h, n)), eye, -np.diag(np.maximum(upper, 0.0))]])
    row_lo = np.concatenate([b1, np.full(2 * h, -np.inf)])
    row_hi = np.concatenate([np.full(h, np.inf), b1 - lower, np.zeros(h)])

    cost = np.concatenate([np.zeros(n), w2, np.zeros(h)])
    var_lo = np.concatenate([np.full(n, lo), np.zeros(2 * h)])
    var_hi = np.concatenate([np.full(n, hi), np.maximum(upper, 0.0),
                             np.ones(h)])
    integrality = np.concatenate([np.zeros(n + h), np.ones(h)])
    res = milp(cost, integrality=integrality, bounds=Bounds(var_lo, var_hi),
               constraints=LinearConstraint(a_ub, row_lo, row_hi),
               options={"mip_rel_gap": 0.0})
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    x = np.clip(res.x[:n], lo, hi)
    value = float(relu_net(payload)(x))
    milp_value = float(res.fun) + b2
    if abs(value - milp_value) > FSTAR_TOL * (1.0 + abs(value)):
        raise RuntimeError(f"MILP objective {milp_value} but the network is "
                           f"{value} at the MILP point")
    return value


if __name__ == "__main__":
    print(f"ackley-100d      f* = {ackley_optimum(100):.10f}")
    print(f"michalewicz-10d  f* = {michalewicz_optimum(10):.10f}")
    print(f"relu-10x16       f* = {relu_net_optimum(relu_net_payload()):.10f}")
