"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale runs (criterion 8) hold 60 and 120 second wall budgets per
seed and dominate the runtime of this module; run with ``pytest -v -s
tests/test_acceptance.py`` to watch progress.
"""

import json
import math
import time

import numpy as np
import pytest

import treebound as tb
from treebound import bench
from treebound import expr as ex
from treebound.cli import main
from treebound.tree import TreeNode

from helpers import (
    central_diff,
    converged_second_diff,
    membership_counts,
    random_box,
    random_expression,
    within_enclosure,
)

SEEDS = [0, 1, 2, 3, 4]


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _all_nodes(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


def test_criterion_01_interval_soundness_fuzz():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        dims = int(rng.integers(1, 4))
        f = ex.with_dims(random_expression(rng, dims, 4, kinks=True), dims)
        box = random_box(rng, dims)
        enclosure = tb.eval_interval(f, box)
        x = box.sample(rng)
        value = ex.evaluate(f, x)
        if math.isnan(value):
            continue  # no real value at this point, nothing to enclose
        if not within_enclosure(value, enclosure):
            violations += 1
    elapsed = time.perf_counter() - started
    _report(1, "interval soundness over 10,000 random triples",
            violations == 0 and elapsed < 30.0,
            f"{violations} violations, {elapsed:.1f}s")


def test_criterion_02_derivatives_match_finite_differences():
    rng = np.random.default_rng(1002)
    started = time.perf_counter()
    checked = 0
    worst_g = worst_h = 0.0
    while checked < 1000:
        dims = int(rng.integers(1, 4))
        f = ex.with_dims(random_expression(rng, dims, 4), dims)
        x = rng.uniform(-2.0, 2.0, size=dims)
        grad = [ex.evaluate(c, x) for c in ex.gradient(f)]
        hess = [ex.evaluate(c, x) for c in ex.hessian_diagonal(f)]
        fx = ex.evaluate(f, x)
        if not (np.isfinite(fx) and abs(fx) < 1e2
                and all(np.isfinite(v) and abs(v) < 1e6 for v in grad)
                and all(np.isfinite(v) and abs(v) < 1e6 for v in hess)):
            continue
        fd_g = [central_diff(f, x, d, 1e-6 * (1.0 + abs(x[d])))
                for d in range(dims)]
        fd_h = [converged_second_diff(f, x, d) for d in range(dims)]
        if not (all(np.isfinite(v) for v in fd_g)
                and all(v is not None for v in fd_h)):
            continue
        checked += 1
        for sym, fd in zip(grad, fd_g):
            worst_g = max(worst_g, abs(sym - fd) / max(1.0, abs(sym)))
        for sym, fd in zip(hess, fd_h):
            worst_h = max(worst_h, abs(sym - fd) / max(1.0, abs(sym)))
    elapsed = time.perf_counter() - started
    _report(2, "1,000 smooth pairs: gradient/Hessian match differences",
            worst_g < 1e-5 and worst_h < 1e-4 and elapsed < 30.0,
            f"grad {worst_g:.2e}, hess {worst_h:.2e}, {elapsed:.1f}s")


def test_criterion_03_partition_oracle():
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(200):
        dims = int(rng.integers(1, 6))
        box = random_box(rng, dims)
        k = int(rng.integers(1, 33))
        pieces = tb.partition(box, k)
        points = rng.uniform(box.lows, box.highs, size=(10_000, dims))
        if not np.all(membership_counts(pieces, points) == 1):
            ok = False
            break
        total = sum(math.exp(tb.log_volume(p)) for p in pieces)
        parent = math.exp(tb.log_volume(box))
        if abs(total - parent) > 1e-9 * parent:
            ok = False
            break
    _report(3, "partition covers disjointly and preserves volume", ok)


def test_criterion_04_backup_invariants_on_ackley_5d():
    problem = bench.make_ackley(5)
    config = bench.table_defaults("ackley", 5, tb.SearchConfig(
        step_budget=200, seed=0))
    failures = []

    def check(root, step):
        nodes = _all_nodes(root)
        if root.y != min(n.y for n in nodes):
            failures.append((step, "root best"))
        for node in nodes:
            if not node.children:
                continue
            if node.y != min(c.y for c in node.children):
                failures.append((step, "child min"))
            lbs = [c.lb for c in node.children]
            j = lbs.index(min(lbs))
            if (node.lb != node.children[j].lb
                    or node.log_vol != node.children[j].log_vol):
                failures.append((step, "lb/volume propagation"))

    result = tb.optimize(problem.expression, problem.box, config,
                         observer=check)
    _report(4, "backup equalities hold on every of 200 iterations",
            result.steps == 200 and not failures,
            f"{len(failures)} violations")


def test_criterion_05_uct_unit_vectors():
    cfg = tb.SearchConfig(c_lb=50.0, c_v=0.5, c_x=0.5)

    def node(y, lb, vol, visits):
        return TreeNode(tb.BoxDomain.cube(0.0, 1.0, 1), lb, vol, y=y,
                        visits=visits)

    checks = [
        tb.uct_value(node(0.0, -1.0, 0.0, 1), 1, cfg) == 50.0,
        (tb.uct_value(node(1.0, -2.0, 0.5, 3), 5, cfg)
         > tb.uct_value(node(1.0, -1.0, 0.5, 3), 5, cfg)),
        tb.uct_value(node(-3.0, -10.0, 2.0, 1), math.e, cfg) == 502.5,
        tb.classical_uct(1.0, 1, 1, 1.0) == 1.0,
        tb.classical_uct(0.0, 1, math.e ** 2, 1.0) == 2.0,
        tb.classical_uct(4.0, 2, 2, 0.0) == 2.0,
    ]
    _report(5, "score formula substitution vectors reproduce exactly",
            all(checks), f"{sum(checks)}/6")


def test_criterion_06_learn_newton_exactness():
    n = 5
    f = ex.balanced_sum([ex.pow_int(ex.sub(ex.var(i), ex.const(1.0)), 2)
                         for i in range(n)])
    box = tb.BoxDomain.cube(-2.0, 2.0, n)
    ok = True
    detail = ""
    for seed in SEEDS:
        cfg = tb.SearchConfig(local_opt_budget=0, seed=seed).resolve(n)
        rng = np.random.default_rng(seed)
        root = TreeNode(box, tb.lower_bound(f, box), tb.log_volume(box))
        children = tb.expand(root, f, cfg, rng)
        node = tb.learn(root, children, f, cfg, rng)
        if node is None:
            ok = False
            detail = f"seed {seed}: synthesis skipped"
            break
        best = min(children, key=lambda c: c.y)
        delta = cfg.delta_fraction * float(np.min(best.box.widths))
        err = float(np.max(np.abs(node.x - 1.0)))
        if err >= 10.0 * delta:
            ok = False
            detail = f"seed {seed}: err {err:.3g} vs 10*delta {10 * delta:.3g}"
            break
    _report(6, "one Newton synthesis lands within 10*delta of the optimum",
            ok, detail)


def test_criterion_07_completeness_proxy_bimodal(monkeypatch):
    f = ex.parse("min((x0 + 0.5)^2, (x0 - 0.5)^2 + 0.001)", 1)
    box = tb.BoxDomain.cube(-1.0, 1.0, 1)
    log = []
    value = ex.CompiledObjective.value

    def logged_value(obj, x):
        log.append(float(x[0]))
        return value(obj, x)

    monkeypatch.setattr(ex.CompiledObjective, "value", logged_value)
    ok = True
    for seed in SEEDS:
        log.clear()
        cfg = tb.SearchConfig(step_budget=500, seed=seed)
        tb.optimize(f, box, cfg)
        pts = np.array(log)
        if not (np.any(pts < 0.0) and np.any(pts >= 0.0)):
            ok = False
            break
    _report(7, "both basins of the bimodal objective sampled on 5 seeds", ok)


@pytest.mark.slow
@pytest.mark.parametrize("name,dims,seconds,threshold,min_hits", [
    ("ackley", 10, 60.0, 0.01, 4),
    ("levy", 10, 60.0, 0.1, 4),
    ("michalewicz", 10, 120.0, -8.0, 3),
])
def test_criterion_08_desk_scale(tmp_path, name, dims, seconds, threshold,
                                 min_hits):
    problem = bench.make_builtin(name, dims)
    config = bench.table_defaults(name, dims, tb.SearchConfig(
        wall_clock_budget_ms=seconds * 1000.0))
    bench.run_suite([problem], config, SEEDS, tmp_path, jobs=2)
    finals = []
    for seed in SEEDS:
        summary = json.loads(
            (tmp_path / f"{problem.label}-seed{seed}-summary.json")
            .read_text())
        finals.append(summary["best_y"])
    if name == "michalewicz":
        hits = sum(v <= threshold for v in finals)
        goal = f"<= {threshold}"
    else:
        hits = sum(v < threshold for v in finals)
        goal = f"< {threshold}"
    _report(8, f"{problem.label} {seconds:.0f}s: best {goal} on "
               f">= {min_hits}/5 seeds", hits >= min_hits,
            "finals " + ", ".join(f"{v:.3g}" for v in finals))


def test_criterion_09_relu_net_pathway(tmp_path):
    rng = np.random.default_rng(1009)
    payload = {
        "n": 10, "h": 16,
        "W1": rng.normal(size=(16, 10)).tolist(),
        "b1": rng.normal(size=16).tolist(),
        "w2": rng.normal(size=16).tolist(),
        "b2": float(rng.normal()),
        "domain": [-2.0, 2.0],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload))
    weights = bench.load_nn_weights(path)
    problem = bench.nn_problem(path)
    exact = all(
        ex.evaluate(problem.expression, x) == weights.forward(x)
        for x in (rng.uniform(-2.0, 2.0, size=10) for _ in range(100)))
    result = tb.optimize(problem.expression, problem.box,
                         tb.SearchConfig(step_budget=50, seed=0))
    stats = result.stats
    gradient_branch_only = (stats.learn_zero_hessian
                            == stats.learn_invocations == 50)
    _report(9, "network file round-trips exactly and synthesis always "
               "takes the gradient branch",
            exact and gradient_branch_only and stats.learn_skipped == 0,
            f"zero-hessian {stats.learn_zero_hessian}/"
            f"{stats.learn_invocations}")


def test_criterion_10_byte_identical_traces(tmp_path):
    args = ["optimize", "--fn", "michalewicz", "--dims", "4",
            "--steps", "40", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "michalewicz-4d-seed11.csv").read_bytes()
    b = (tmp_path / "b" / "michalewicz-4d-seed11.csv").read_bytes()
    _report(10, "re-running with identical config+seed reproduces the "
                "trace CSV byte for byte", a == b, f"{len(a)} bytes")
