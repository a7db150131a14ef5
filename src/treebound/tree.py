"""The search tree: selection, expansion, node synthesis, backup, main loop.

The optimizer grows a tree of box-tagged sample nodes over the domain.
Each iteration selects a leaf by a modified upper-confidence rule that
scores a child by its best sample value, the interval lower bound of the
objective over its box, the log-volume of the box that bound came from,
and a visit-count exploration term:

    u(child) = -y*  -  c_lb * lb  -  c_v * V  +  c_x * sqrt(log(N_p) / N_c)

The selected leaf's box is split into ``num_children`` disjoint
sub-boxes, each seeded with a uniform sample and refined by the bounded
local optimizer.  A further synthesized node is produced from averaged
Hessian-diagonal and gradient samples around the best child (a
per-dimension Newton step where the curvature is positive, a clipped
gradient step elsewhere) and attached directly to the root so it
competes for selection immediately.  Best values, lower bounds and
volumes are propagated to the root after every iteration, and the
root's synthesized children are pruned back to a cap.

Runs are deterministic given (expression, domain, config): all sampling
goes through one seeded generator, and every tie-break picks the lowest
index, because every choice is made by Python's ``min``, ``max`` or
``next``, which return the first extremum or match.  Trace records
carry a wall-clock column only when the run is actually wall-clock
budgeted; step- or evaluation-budgeted runs write zero there so their
traces are byte-reproducible artifacts.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

import numpy as np

from .expr import as_objective
from .interval import BoxDomain, log_volume, lower_bound, partition
from .localopt import local_opt

__all__ = [
    "TreeNode",
    "SearchConfig",
    "SearchStats",
    "TraceRecord",
    "SearchResult",
    "DEFAULT_STEP_BUDGET",
    "uct_value",
    "classical_uct",
    "select",
    "expand",
    "learn",
    "backup",
    "prune_root",
    "optimize",
]

DEFAULT_STEP_BUDGET = 1000
_GRAD_STEP_EPS = 1e-12
_Y = attrgetter("y")
_LB = attrgetter("lb")
# the least value of each bounded field; an unset (None) field is exempt
_LEAST = {"c_lb": 0, "c_v": 0, "c_x": 0, "num_children": 1,
          "local_opt_budget": 0, "grad_samples": 1, "root_child_cap": 1,
          "seed": 0}


@dataclass(slots=True, eq=False, repr=False)
class TreeNode:
    """One node: best sample (x, y), box, lower bound, bound log-volume,
    visit count, and ordered children.  Nodes compare by identity."""

    box: BoxDomain
    lb: float
    log_vol: float
    x: np.ndarray | None = None
    y: float = math.inf
    parent: TreeNode | None = None
    visits: int = 0
    is_learned: bool = False
    children: list = field(default_factory=list, init=False)

    def __repr__(self):
        tag = "learned " if self.is_learned else ""
        return (f"TreeNode({tag}y={self.y:.6g}, lb={self.lb:.6g}, "
                f"V={self.log_vol:.6g}, visits={self.visits}, "
                f"children={len(self.children)})")


@dataclass(frozen=True)
class SearchConfig:
    """All search hyperparameters.

    ``num_children`` and ``grad_samples`` default to dimension-dependent
    values (10/20/30 children for <=50 / <=100 / more dimensions, and
    ``dims + 1`` gradient samples); ``resolve`` fills them in.  At least
    one of the three budgets must be set before a run; if none is, the
    run gets ``DEFAULT_STEP_BUDGET`` steps.  Every construction, including
    ``dataclasses.replace``, checks the values and raises ValueError on a
    wrong type or an out-of-range value.
    """

    c_lb: float = 50.0
    c_v: float = 0.5
    c_x: float = 0.5
    num_children: int | None = None
    local_opt_budget: int = 50
    delta_fraction: float = 0.1
    grad_samples: int | None = None
    root_child_cap: int = 64
    step_budget: int | None = None
    eval_budget: int | None = None
    wall_clock_budget_ms: float | None = None
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            # types as declared: an "int" field is a count, a "float" one
            # a real number that is finite as a float, a None default may
            # stay unset; no bools
            v = getattr(self, f.name)
            if v is None and f.default is None:
                continue
            count = f.type.startswith("int")
            if isinstance(v, bool) or not isinstance(
                    v, numbers.Integral if count else numbers.Real):
                raise ValueError(
                    f"{f.name} must be "
                    f"{'an integer' if count else 'a real number'}, got {v!r}")
            try:
                finite = count or math.isfinite(v)
            except OverflowError:  # an int too large for a float
                finite = False
            if not finite:
                raise ValueError(f"{f.name} must be finite")
            least = _LEAST.get(f.name)
            if least is not None and v < least:
                raise ValueError(f"{f.name} must be >= {least}")
        if not 0.0 < self.delta_fraction <= 1.0:
            raise ValueError("delta_fraction must be in (0, 1]")
        for name in ("step_budget", "eval_budget", "wall_clock_budget_ms"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive when set")

    def resolve(self, dims):
        """Fill dimension-dependent defaults and ensure some budget is set."""
        cfg = self
        if cfg.num_children is None:
            cfg = replace(cfg, num_children=(
                10 if dims <= 50 else (20 if dims <= 100 else 30)))
        if cfg.grad_samples is None:
            cfg = replace(cfg, grad_samples=dims + 1)
        if (cfg.step_budget is None and cfg.eval_budget is None
                and cfg.wall_clock_budget_ms is None):
            cfg = replace(cfg, step_budget=DEFAULT_STEP_BUDGET)
        return cfg


@dataclass
class SearchStats:
    learn_invocations: int = 0
    learn_nodes: int = 0
    learn_skipped: int = 0
    learn_zero_hessian: int = 0
    pruned_nodes: int = 0


@dataclass(frozen=True)
class TraceRecord:
    step: int
    evaluations: int
    wall_ms: float
    best_y: float


@dataclass
class SearchResult:
    x: np.ndarray
    y: float
    evaluations: int
    steps: int
    trace: list
    termination_reason: str
    elapsed_ms: float
    stats: SearchStats
    config: SearchConfig
    root: TreeNode = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# node scoring

def uct_value(child, parent_visits, config):
    """Score of a child for selection (higher is better)."""
    explore = math.sqrt(math.log(parent_visits) / child.visits)
    return (-child.y - config.c_lb * child.lb - config.c_v * child.log_vol
            + config.c_x * explore)


def classical_uct(total_reward, visits, parent_visits, exploration):
    """Visit-count-average UCT, kept as a reference for comparison."""
    return (total_reward / visits
            + exploration * math.sqrt(2.0 * math.log(parent_visits) / visits))


def select(root, config):
    """Descend from the root by argmax score, incrementing the visit count
    of every node along the path.  A parent's count is incremented before
    its children are scored."""
    node = root
    node.visits += 1
    while node.children:
        parent = node
        node = max(parent.children,
                   key=lambda c: uct_value(c, parent.visits, config))
        node.visits += 1
    return node


# ---------------------------------------------------------------------------
# growth

def _new_node(obj, config, box, x0, parent, learned=False):
    """A visited node over ``box``: its interval bound and log-volume,
    and the local refinement of ``x0`` as its sample."""
    report = local_opt(obj, x0, box, config.local_opt_budget)
    y = report.y if report.y == report.y else math.inf  # NaN sample -> worst
    return TreeNode(box, lower_bound(obj, box), log_volume(box), x=report.x,
                    y=y, parent=parent, visits=1, is_learned=learned)


def expand(leaf, f, config, rng):
    """Split the leaf's box into ``num_children`` disjoint pieces, sample
    one uniform point in each, refine it locally, and attach the pieces
    as children.  The leaf's own best sample is inherited by whichever
    child box contains it, so no information is lost when the backup
    rule later replaces the leaf's value with the child minimum.

    ``f`` is an Expression or a CompiledObjective.  A bare Expression is
    compiled on every call; repeated callers should pass
    ``as_objective(f)``."""
    obj = as_objective(f)
    children = [_new_node(obj, config, sub, sub.sample(rng), leaf)
                for sub in partition(leaf.box, config.num_children)]
    x = leaf.x
    if x is not None:
        # closed membership places a sample no half-open child holds
        host = (next((c for c in children if c.box.contains(x)), None)
                or next((c for c in children if c.box.encloses(x)), None))
        if host is not None and leaf.y < host.y:
            host.x = x
            host.y = leaf.y
    leaf.children.extend(children)
    return children


def _column_nanmean(rows):
    """Per-column mean ignoring non-finite entries; NaN where no column
    entry is finite."""
    arr = np.asarray(rows, dtype=float)
    finite = np.isfinite(arr)
    counts = finite.sum(axis=0)
    sums = np.where(finite, arr, 0.0).sum(axis=0)
    out = np.full(arr.shape[1], np.nan)
    nz = counts > 0
    out[nz] = sums[nz] / counts[nz]
    return out


def _ascend(node):
    while node.parent is not None:
        node = node.parent
    return node


def learn(leaf, children, f, config, rng, stats=None):
    """Synthesize a node from regional curvature and local gradients.

    The Hessian diagonal is averaged over every child's best sample; the
    gradient is averaged over ``grad_samples`` points drawn within
    ``delta_fraction * min-width`` of the best child's sample.  Each
    dimension moves by a Newton step where the averaged curvature is
    positive and by a gradient step clipped to one box width otherwise.
    The new node's box has the best child's side lengths, is centered at
    the stepped point, clipped into the domain, and the node is attached
    to the root.  Returns None (and counts a skip) when no dimension has
    a finite averaged gradient.

    ``f`` is an Expression or a CompiledObjective.  A bare Expression is
    compiled and differentiated on every call; repeated callers should
    pass ``as_objective(f)``.
    """
    if not children:
        raise ValueError("learn requires a non-empty child list")
    obj = as_objective(f)
    stats = stats if stats is not None else SearchStats()
    stats.learn_invocations += 1

    hbar = _column_nanmean([obj.hessian_diagonal(c.x) for c in children])
    if (hbar == 0.0).all():
        stats.learn_zero_hessian += 1

    best = min(children, key=_Y)
    xj = best.x
    bj = best.box

    root = _ascend(leaf)
    omega = root.box
    delta = config.delta_fraction * float(bj.widths.min())
    lows = np.maximum(omega.lows, xj - delta)
    highs = np.minimum(omega.highs, xj + delta)
    # row i holds what the i-th of grad_samples single draws would give
    points = rng.uniform(lows, highs, size=(config.grad_samples, omega.dims))
    gbar = _column_nanmean([obj.gradient(p) for p in points])
    if not np.isfinite(gbar).all():
        stats.learn_skipped += 1
        return None

    newton = hbar > 0.0  # NaN curvature falls through to the gradient branch
    newton_step = gbar / np.where(newton, hbar, 1.0)
    eta = np.minimum(1.0, bj.widths / (np.abs(gbar) + _GRAD_STEP_EPS))
    x_star = np.where(newton, xj - newton_step, xj - eta * gbar)
    x_star = omega.clip(x_star)

    half = 0.5 * bj.widths
    b_star = BoxDomain(np.maximum(omega.lows, x_star - half),
                       np.minimum(omega.highs, x_star + half))
    node = _new_node(obj, config, b_star, x_star, root, learned=True)
    root.children.append(node)
    stats.learn_nodes += 1
    return node


# ---------------------------------------------------------------------------
# propagation and pruning

def _aggregate(node):
    """Refresh (x, y, lb, V) of an internal node from its children."""
    if not node.children:
        return
    best = min(node.children, key=_Y)
    tight = min(node.children, key=_LB)
    node.y, node.x = best.y, best.x
    node.lb, node.log_vol = tight.lb, tight.log_vol


def backup(node):
    """Propagate best value, lower bound and bound volume from ``node``
    up to the root."""
    while node is not None:
        _aggregate(node)
        node = node.parent


def prune_root(root, config):
    """Drop the worst synthesized root children above the cap.

    Only learned nodes are candidates (partitioned children always
    cover the domain and stay).  Worst is the highest
    ``y + c_lb * lb`` score; the child holding the global best value is
    never removed.  Returns the number of removed nodes.
    """
    learned = [c for c in root.children if c.is_learned]
    excess = len(learned) - config.root_child_cap
    if excess <= 0:
        return 0
    protected = next((c for c in learned if c.y == root.y), None)
    candidates = [c for c in learned if c is not protected]
    candidates.sort(key=lambda c: c.y + config.c_lb * c.lb, reverse=True)
    doomed = set(id(c) for c in candidates[:excess])
    root.children = [c for c in root.children if id(c) not in doomed]
    _aggregate(root)
    return excess


# ---------------------------------------------------------------------------
# main loop

def optimize(f, omega, config=None, observer=None):
    """Minimize ``f`` (an Expression or a CompiledObjective) over the box
    ``omega``.

    Runs select / expand / learn / backup / prune iterations until a
    budget fires and returns the best sample with a per-step trace of
    the best value found so far.  Deterministic given (f, omega, config).
    Evaluations are counted from the start of this call, so passing one
    CompiledObjective to several runs reuses its kernels without
    changing their traces.  ``observer(root, step)`` is called after
    every iteration.  To record the sampled points, wrap the objective's
    ``value``.
    """
    config = (config or SearchConfig()).resolve(omega.dims)
    obj = as_objective(f)
    evals_before = obj.total_evaluations
    rng = np.random.default_rng(config.seed)

    root = TreeNode(omega, lower_bound(obj, omega), log_volume(omega))
    stats = SearchStats()
    trace = []
    timed = config.wall_clock_budget_ms is not None
    started = time.perf_counter()
    step = 0
    while True:
        step += 1
        leaf = select(root, config)
        children = expand(leaf, obj, config, rng)
        learn(leaf, children, obj, config, rng, stats)
        backup(leaf)
        stats.pruned_nodes += prune_root(root, config)

        elapsed_ms = (time.perf_counter() - started) * 1e3
        evaluations = obj.total_evaluations - evals_before
        trace.append(TraceRecord(step, evaluations,
                                 elapsed_ms if timed else 0.0, root.y))
        if observer is not None:
            observer(root, step)
        if config.step_budget is not None and step >= config.step_budget:
            reason = "steps"
            break
        if (config.eval_budget is not None
                and evaluations >= config.eval_budget):
            reason = "evals"
            break
        if timed and elapsed_ms >= config.wall_clock_budget_ms:
            reason = "wall_clock"
            break

    elapsed_ms = (time.perf_counter() - started) * 1e3
    best_x = None if root.x is None else np.array(root.x, dtype=float)
    return SearchResult(x=best_x, y=root.y,
                        evaluations=evaluations, steps=step,
                        trace=trace, termination_reason=reason,
                        elapsed_ms=elapsed_ms, stats=stats, config=config,
                        root=root)
