import collections
import dataclasses
import importlib
import math

import numpy as np
import pytest

import treebound as tb
from treebound import bench
from treebound import expr as ex
from treebound.interval import log_volume, lower_bound
from treebound.tree import TreeNode, _aggregate

from helpers import membership_counts


def _node(y, lb, vol, visits=1, box=None, learned=False, x=None):
    box = box if box is not None else tb.BoxDomain.cube(0.0, 1.0, 1)
    return TreeNode(box, lb, vol, x=x, y=y, visits=visits, is_learned=learned)


def _all_nodes(root):
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    return out


class TestTreeNode:
    def test_slotted_record_compared_by_identity(self):
        a = _node(y=1.0, lb=0.0, vol=0.0)
        b = _node(y=1.0, lb=0.0, vol=0.0)
        assert a != b and a == a
        assert len({a, b}) == 2
        assert a.children == [] and a.children is not b.children
        assert (a.parent, a.is_learned) == (None, False)
        assert not hasattr(a, "__dict__")
        assert repr(a) == ("TreeNode(y=1, lb=0, V=0, visits=1, "
                           "children=0)")


class TestUctValue:
    def test_substitution_basic(self):
        cfg = tb.SearchConfig(c_lb=50.0, c_v=0.5, c_x=0.5)
        child = _node(y=0.0, lb=-1.0, vol=0.0, visits=1)
        assert tb.uct_value(child, 1, cfg) == 50.0

    def test_monotone_in_lower_bound(self):
        cfg = tb.SearchConfig()
        a = _node(y=1.0, lb=-2.0, vol=0.5, visits=3)
        b = _node(y=1.0, lb=-1.0, vol=0.5, visits=3)
        assert tb.uct_value(a, 5, cfg) > tb.uct_value(b, 5, cfg)

    def test_substitution_with_volume_and_exploration(self):
        cfg = tb.SearchConfig(c_lb=50.0, c_v=0.5, c_x=0.5)
        child = _node(y=-3.0, lb=-10.0, vol=2.0, visits=1)
        assert tb.uct_value(child, math.e, cfg) == 502.5


class TestClassicalUct:
    def test_substitutions(self):
        assert tb.classical_uct(1.0, 1, 1, 1.0) == 1.0
        assert tb.classical_uct(0.0, 1, math.e ** 2, 1.0) == 2.0
        assert tb.classical_uct(4.0, 2, 2, 0.0) == 2.0


class TestSelect:
    def test_childless_root_returned_and_counted(self):
        cfg = tb.SearchConfig()
        root = _node(y=math.inf, lb=0.0, vol=0.0, visits=0)
        got = tb.select(root, cfg)
        assert got is root
        assert root.visits == 1

    def test_tie_breaks_to_lowest_index(self):
        # c_lb = c_v = c_x = 0 makes u = -y, so y = (-5, -9, -9) gives
        # scores (5, 9, 9) and the tie resolves to index 1
        cfg = tb.SearchConfig(c_lb=0.0, c_v=0.0, c_x=0.0)
        root = _node(y=0.0, lb=0.0, vol=0.0, visits=0)
        for y in (-5.0, -9.0, -9.0):
            child = _node(y=y, lb=0.0, vol=0.0, visits=1)
            child.parent = root
            root.children.append(child)
        got = tb.select(root, cfg)
        assert got is root.children[1]
        assert root.visits == 1
        assert got.visits == 2

    def test_matches_brute_force_walk(self):
        rng = np.random.default_rng(61)
        cfg = tb.SearchConfig(c_lb=7.0, c_v=1.5, c_x=0.9)

        def build(depth, fanout):
            node = _node(y=float(rng.normal()), lb=float(rng.normal()),
                         vol=float(rng.normal()), visits=int(rng.integers(1, 9)))
            if depth > 0:
                for _ in range(fanout):
                    child = build(depth - 1, fanout)
                    child.parent = node
                    node.children.append(child)
            return node

        def oracle_path(root):
            # mirrors the rule: a parent's count includes the current
            # visit before its children are scored
            path = []
            node = root
            nv = node.visits + 1
            while node.children:
                best, best_u = None, -math.inf
                for c in node.children:
                    u = (-c.y - cfg.c_lb * c.lb - cfg.c_v * c.log_vol
                         + cfg.c_x * math.sqrt(math.log(nv) / c.visits))
                    if best is None or u > best_u:
                        best, best_u = c, u
                node = best
                nv = node.visits + 1
                path.append(node)
            return path

        for _ in range(25):
            root = build(3, 3)
            expected = oracle_path(root)
            got = tb.select(root, cfg)
            assert got is expected[-1]
            # every node on the path gained exactly one visit
            node, walked = got, []
            while node is not None:
                walked.append(node)
                node = node.parent
            assert walked[:-1][::-1] == expected


class TestExpand:
    def test_single_child_covers_parent(self):
        f = ex.parse("x0^2 + x1^2", 2)
        cfg = tb.SearchConfig(num_children=1, local_opt_budget=0)
        box = tb.BoxDomain.cube(-1.0, 1.0, 2)
        leaf = TreeNode(box, lower_bound(f, box), log_volume(box))
        rng = np.random.default_rng(0)
        children = tb.expand(leaf, f, cfg, rng)
        assert len(children) == 1
        assert children[0].box == box
        assert children[0].visits == 1
        assert children[0].parent is leaf

    def test_four_children_cover_disjointly(self):
        f = ex.parse("x0^2 + x1^2", 2)
        cfg = tb.SearchConfig(num_children=4, local_opt_budget=10)
        box = tb.BoxDomain.cube(-1.0, 1.0, 2)
        leaf = TreeNode(box, lower_bound(f, box), log_volume(box))
        rng = np.random.default_rng(1)
        children = tb.expand(leaf, f, cfg, rng)
        assert len(children) == 4
        total = sum(math.exp(log_volume(c.box)) for c in children)
        assert abs(total - 4.0) < 1e-9 * 4.0
        pts = rng.uniform(-1.0, 1.0, size=(10_000, 2))
        assert np.all(membership_counts([c.box for c in children], pts) == 1)
        parent_lb = lower_bound(f, box)
        assert min(c.lb for c in children) >= parent_lb - 1e-12

    def test_children_hold_feasible_samples(self):
        f = ex.parse("sin(x0) * x1", 2)
        cfg = tb.SearchConfig(num_children=5, local_opt_budget=8)
        box = tb.BoxDomain.cube(-2.0, 2.0, 2)
        leaf = TreeNode(box, lower_bound(f, box), log_volume(box))
        children = tb.expand(leaf, f, cfg, np.random.default_rng(2))
        for c in children:
            assert c.box.encloses(c.x)
            assert c.y <= ex.evaluate(f, c.x) + 1e-12

    def test_parent_sample_inherited_by_containing_child(self):
        f = ex.parse("x0^2", 1)
        cfg = tb.SearchConfig(num_children=3, local_opt_budget=0)
        # the pieces of [-1, 1] are [-1, -0.5), [-0.5, 0) and [0, 1]
        cases = [
            (0.001, True, 2),
            (-0.5, True, 1),  # on a split face: the upper piece holds it
            # on the leaf's open upper face no child contains it, so
            # closed membership places it
            (1.0, False, 2),
        ]
        for x, closed_hi, holder in cases:
            # an open upper face comes from a split: [-1, 1) of [-1, 3]
            box = (tb.BoxDomain([-1.0], [1.0]) if closed_hi
                   else tb.BoxDomain([-1.0], [3.0]).split(0)[0])
            leaf = TreeNode(box, lower_bound(f, box), log_volume(box),
                            x=np.array([x]), y=-5.0)  # better than any child
            children = tb.expand(leaf, f, cfg, np.random.default_rng(3))
            assert min(c.y for c in children) == -5.0
            holders = [c for c in children if c.y == -5.0]
            assert holders == [children[holder]]
            assert holders[0].box.contains(np.array([x])) is closed_hi
            assert holders[0].box.encloses(np.array([x]))


class TestLearn:
    def _expand_root(self, f, box, cfg, seed):
        root = TreeNode(box, lower_bound(f, box), log_volume(box))
        rng = np.random.default_rng(seed)
        children = tb.expand(root, f, cfg, rng)
        return root, children, rng

    def test_newton_step_on_shifted_quadratic(self):
        n = 5
        f = ex.balanced_sum(
            [ex.pow_int(ex.sub(ex.var(i), ex.const(1.0)), 2)
             for i in range(n)])
        box = tb.BoxDomain.cube(-2.0, 2.0, n)
        cfg = tb.SearchConfig(num_children=10, local_opt_budget=0,
                              grad_samples=n + 1).resolve(n)
        root, children, rng = self._expand_root(f, box, cfg, 4)
        stats = tb.SearchStats()
        node = tb.learn(root, children, f, cfg, rng, stats)
        assert node is not None and node.is_learned
        best = min(children, key=lambda c: c.y)
        delta = cfg.delta_fraction * float(np.min(best.box.widths))
        assert np.max(np.abs(node.x - 1.0)) < 10.0 * delta

    def test_relu_net_takes_gradient_branch(self):
        rng = np.random.default_rng(31)
        w = ex.ReluNetWeights(n=4, h=6,
                              w1=rng.normal(size=(6, 4)),
                              b1=rng.normal(size=6),
                              w2=rng.normal(size=6), b2=0.5)
        f = ex.relu_net_to_expression(w)
        box = tb.BoxDomain.cube(-1.0, 1.0, 4)
        cfg = tb.SearchConfig(local_opt_budget=5).resolve(4)
        root, children, rng2 = self._expand_root(f, box, cfg, 5)
        stats = tb.SearchStats()
        node = tb.learn(root, children, f, cfg, rng2, stats)
        assert node is not None
        assert stats.learn_zero_hessian == stats.learn_invocations == 1

    def test_concave_function_moves_downhill(self):
        f = ex.parse("-(x0^2)", 1)
        box = tb.BoxDomain.cube(-1.0, 1.0, 1)
        cfg = tb.SearchConfig(num_children=4, local_opt_budget=0,
                              grad_samples=3)
        root, children, rng = self._expand_root(f, box, cfg, 6)
        stats = tb.SearchStats()
        node = tb.learn(root, children, f, cfg, rng, stats)
        best = min(children, key=lambda c: c.y)
        assert node is not None
        assert ex.evaluate(f, node.x) <= best.y + 1e-12

    def test_learned_node_attaches_to_root(self):
        f = ex.parse("x0^2 + x1^2", 2)
        box = tb.BoxDomain.cube(-1.0, 1.0, 2)
        cfg = tb.SearchConfig(num_children=2, local_opt_budget=4).resolve(2)
        root, children, rng = self._expand_root(f, box, cfg, 7)
        deep = children[0]
        grand = tb.expand(deep, f, cfg, rng)
        node = tb.learn(deep, grand, f, cfg, rng)
        assert node in root.children
        assert node.parent is root
        assert root.box.encloses(node.x)
        assert node.box.widths == pytest.approx(grand[0].box.widths)

    def test_empty_child_list_rejected(self):
        f = ex.parse("x0^2", 1)
        box = tb.BoxDomain.cube(-1.0, 1.0, 1)
        root = TreeNode(box, lower_bound(f, box), log_volume(box))
        with pytest.raises(ValueError, match="non-empty"):
            tb.learn(root, [], f, tb.SearchConfig().resolve(1),
                     np.random.default_rng(0))

    def test_no_finite_gradient_skips(self):
        # sqrt(x0) is NaN over the whole box
        f = ex.parse("sqrt(x0) + x1", 2)
        box = tb.BoxDomain([-2.0, 0.0], [-1.0, 1.0])
        cfg = tb.SearchConfig(num_children=4, local_opt_budget=5).resolve(2)
        root, children, rng = self._expand_root(f, box, cfg, 8)
        stats = tb.SearchStats()
        assert tb.learn(root, children, f, cfg, rng, stats) is None
        assert stats.learn_skipped == 1
        res = tb.optimize(f, box, tb.SearchConfig(step_budget=3, seed=8))
        assert res.y == math.inf
        assert res.stats.learn_skipped == 3


class TestBackup:
    def test_componentwise_minima(self):
        root = _node(y=math.inf, lb=0.0, vol=0.0)
        # the last child ties the best y and the lowest lb; both ties
        # resolve to the earlier child
        specs = [(3.0, -5.0, 0.0), (1.0, -4.0, 0.0), (2.0, -9.0, 7.0),
                 (1.0, -9.0, 8.0)]
        for i, (y, lb, vol) in enumerate(specs):
            child = _node(y=y, lb=lb, vol=vol, x=np.array([float(i)]))
            child.parent = root
            root.children.append(child)
        tb.backup(root.children[0])
        assert root.y == 1.0
        assert root.lb == -9.0
        assert root.log_vol == 7.0
        assert root.x[0] == 1.0

    def test_single_child_copies(self):
        root = _node(y=math.inf, lb=0.0, vol=0.0)
        child = _node(y=4.5, lb=-2.5, vol=1.5, x=np.array([0.0]))
        child.parent = root
        root.children.append(child)
        tb.backup(child)
        assert (root.y, root.lb, root.log_vol) == (4.5, -2.5, 1.5)

    def test_three_levels_root_equals_global_min(self):
        rng = np.random.default_rng(67)

        def build(depth):
            node = _node(y=float(rng.normal()), lb=float(rng.normal()),
                         vol=float(rng.normal()), x=np.array([0.0]))
            if depth > 0:
                for _ in range(3):
                    child = build(depth - 1)
                    child.parent = node
                    node.children.append(child)
            return node

        for _ in range(20):
            root = build(2)
            # backup from every leaf, as the search would
            leaves = [n for n in _all_nodes(root) if not n.children]
            for leaf in leaves:
                tb.backup(leaf)
            assert root.y == min(n.y for n in _all_nodes(root))


class TestPruneRoot:
    def _root_with_learned(self, scores, cfg, best_index=None):
        root = _node(y=math.inf, lb=0.0, vol=0.0)
        for i, s in enumerate(scores):
            # score = y + c_lb * lb; build with lb = 0 so score == y
            child = _node(y=float(s), lb=0.0, vol=0.0, learned=True,
                          x=np.array([float(i)]))
            child.parent = root
            root.children.append(child)
        _aggregate(root)
        return root

    def test_worst_score_removed(self):
        # among equal scores the earliest children are removed first, and
        # the first child holding the best value is the protected one
        cases = [([1.0, 2.0, 3.0, 4.0], 3, [0, 1, 2]),
                 ([2.0, 1.0, 2.0, 1.0, 2.0], 3, [1, 3, 4]),
                 ([1.0, 1.0, 1.0, 1.0], 2, [0, 3])]
        for scores, cap, kept in cases:
            cfg = tb.SearchConfig(root_child_cap=cap)
            root = self._root_with_learned(scores, cfg)
            removed = tb.prune_root(root, cfg)
            assert removed == len(scores) - cap
            assert [int(c.x[0]) for c in root.children] == kept

    def test_under_cap_is_noop(self):
        cfg = tb.SearchConfig(root_child_cap=10)
        root = self._root_with_learned([1.0, 2.0], cfg)
        assert tb.prune_root(root, cfg) == 0
        assert len(root.children) == 2

    def test_partition_children_never_removed(self):
        cfg = tb.SearchConfig(root_child_cap=1)
        root = _node(y=math.inf, lb=0.0, vol=0.0)
        plain = _node(y=100.0, lb=0.0, vol=0.0, x=np.array([0.0]))
        plain.parent = root
        root.children.append(plain)
        for s in (1.0, 2.0, 3.0):
            child = _node(y=s, lb=0.0, vol=0.0, learned=True,
                          x=np.array([s]))
            child.parent = root
            root.children.append(child)
        _aggregate(root)
        tb.prune_root(root, cfg)
        assert plain in root.children
        learned = [c for c in root.children if c.is_learned]
        assert [c.y for c in learned] == [1.0]

    def test_sort_oracle_with_protected_best(self):
        rng = np.random.default_rng(71)
        cfg = tb.SearchConfig(root_child_cap=5, c_lb=50.0)
        root = _node(y=math.inf, lb=0.0, vol=0.0)
        for i in range(20):
            child = _node(y=float(rng.normal()), lb=float(rng.normal()),
                          vol=0.0, learned=True, x=np.array([float(i)]))
            child.parent = root
            root.children.append(child)
        _aggregate(root)
        learned = list(root.children)
        best = min(learned, key=lambda c: c.y)
        others = sorted((c for c in learned if c is not best),
                        key=lambda c: c.y + cfg.c_lb * c.lb)
        expected = {id(best)} | {id(c) for c in others[:4]}
        tb.prune_root(root, cfg)
        assert {id(c) for c in root.children} == expected
        assert len(root.children) == 5


class TestOptimize:
    def test_one_dimensional_quadratic(self):
        f = ex.parse("(x0 - 0.3)^2", 1)
        box = tb.BoxDomain.cube(-1.0, 1.0, 1)
        res = tb.optimize(f, box, tb.SearchConfig(step_budget=50, seed=0))
        assert res.y < 1e-6
        assert abs(res.x[0] - 0.3) < 1e-3

    def test_constant_objective(self):
        f = ex.parse("7", 1)
        box = tb.BoxDomain.cube(-1.0, 1.0, 1)
        res = tb.optimize(f, box, tb.SearchConfig(step_budget=3, seed=0))
        assert res.y == 7.0

    def test_trace_is_monotone_and_consistent(self):
        p = tb.make_ackley(3)
        res = tb.optimize(p.expression, p.box,
                          tb.SearchConfig(step_budget=40, seed=2))
        best = [r.best_y for r in res.trace]
        assert all(a >= b for a, b in zip(best, best[1:]))
        assert res.y == best[-1]
        steps = [r.step for r in res.trace]
        assert steps == list(range(1, len(best) + 1))
        evals = [r.evaluations for r in res.trace]
        assert all(a <= b for a, b in zip(evals, evals[1:]))
        assert res.evaluations == evals[-1]

    def test_determinism(self):
        p = tb.make_levy(3)
        cfg = tb.SearchConfig(step_budget=30, seed=9)
        r1 = tb.optimize(p.expression, p.box, cfg)
        r2 = tb.optimize(p.expression, p.box, cfg)
        assert r1.trace == r2.trace
        assert np.array_equal(r1.x, r2.x)

    def test_eval_budget_termination(self):
        p = tb.make_ackley(2)
        res = tb.optimize(p.expression, p.box,
                          tb.SearchConfig(eval_budget=500, seed=0))
        assert res.termination_reason == "evals"
        assert res.evaluations >= 500

    def test_root_holds_global_minimum_of_tree(self):
        p = tb.make_ackley(3)
        res = tb.optimize(p.expression, p.box,
                          tb.SearchConfig(step_budget=25, seed=4))
        nodes = _all_nodes(res.root)
        assert res.y == min(n.y for n in nodes)

    def test_backup_equalities_hold_each_iteration(self):
        p = tb.make_ackley(3)

        def check(root, step):
            for node in _all_nodes(root):
                if not node.children:
                    continue
                assert node.y == min(c.y for c in node.children)
                lbs = [c.lb for c in node.children]
                j = lbs.index(min(lbs))
                assert node.lb == node.children[j].lb
                assert node.log_vol == node.children[j].log_vol

        tb.optimize(p.expression, p.box,
                    tb.SearchConfig(step_budget=20, seed=5), observer=check)

    def test_root_lb_bounds_true_minimum(self):
        for p in (tb.make_ackley(2), tb.make_levy(2)):
            res = tb.optimize(p.expression, p.box,
                              tb.SearchConfig(step_budget=30, seed=6))
            assert res.root.lb <= 0.0 <= res.y

    def test_wall_clock_budget_stops(self):
        f = ex.parse("x0^2 + x1^2", 2)
        res = tb.optimize(f, tb.BoxDomain.cube(-1.0, 1.0, 2),
                          tb.SearchConfig(wall_clock_budget_ms=1e-3))
        assert res.termination_reason == "wall_clock"
        assert res.steps == 1
        assert res.trace[-1].wall_ms > 0

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ex.DimensionMismatch):
            tb.optimize(ex.parse("x0", 1), tb.BoxDomain.cube(0.0, 1.0, 2))

    def test_compiled_objective_reused_across_runs(self, tmp_path,
                                                   monkeypatch):
        p = tb.make_levy(3)
        cfg = tb.SearchConfig(step_budget=15, seed=8)
        bench.write_trace_csv(tmp_path / "plain.csv",
                           tb.optimize(p.expression, p.box, cfg).trace)
        built = []
        real_gradient = ex.gradient
        monkeypatch.setattr(
            ex, "gradient", lambda f: built.append(f) or real_gradient(f))
        obj = tb.as_objective(p.expression)
        for name in ("first.csv", "second.csv"):
            res = tb.optimize(obj, p.box, cfg)
            bench.write_trace_csv(tmp_path / name, res.trace)
            assert res.evaluations == res.trace[-1].evaluations
        plain = (tmp_path / "plain.csv").read_bytes()
        assert (tmp_path / "first.csv").read_bytes() == plain
        assert (tmp_path / "second.csv").read_bytes() == plain
        assert len(built) == 1

    def test_learned_nodes_pruned_to_cap(self):
        p = tb.make_ackley(2)
        cfg = tb.SearchConfig(step_budget=30, root_child_cap=5, seed=3)
        res = tb.optimize(p.expression, p.box, cfg)
        learned = [c for c in res.root.children if c.is_learned]
        assert len(learned) <= 5
        assert res.stats.pruned_nodes > 0


class TestCallPaths:
    """Per-layer profiling wraps exactly these names (see
    ``perfbench/tracing.py``), so a search must reach every bound, local
    refinement, partition and evaluation through them."""

    def test_search_calls_the_wrapped_names(self, monkeypatch):
        tree_mod = importlib.import_module("treebound.tree")
        calls = collections.Counter()

        def count(target, name):
            real = getattr(target, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(target, name, counted)

        for name in ("local_opt", "lower_bound", "partition"):
            count(tree_mod, name)
        for name in ("value", "gradient", "hessian_diagonal"):
            count(ex.CompiledObjective, name)
        p = tb.make_levy(4)
        res = tb.optimize(p.expression, p.box,
                          tb.SearchConfig(step_budget=12, num_children=5,
                                          seed=2))
        assert (calls["value"] + calls["gradient"]
                + calls["hessian_diagonal"]) == res.evaluations
        assert calls["hessian_diagonal"] == 12 * 5
        learned = res.stats.learn_nodes
        assert learned > 0
        assert calls["local_opt"] == 12 * 5 + learned
        assert calls["lower_bound"] == 1 + 12 * 5 + learned  # 1: the root
        assert calls["partition"] == 12


class TestSearchConfig:
    def test_resolution_by_dims(self):
        assert tb.SearchConfig().resolve(10).num_children == 10
        assert tb.SearchConfig().resolve(60).num_children == 20
        assert tb.SearchConfig().resolve(150).num_children == 30
        assert tb.SearchConfig().resolve(10).grad_samples == 11

    def test_default_budget_filled(self):
        cfg = tb.SearchConfig().resolve(2)
        assert cfg.step_budget == tb.tree.DEFAULT_STEP_BUDGET

    def test_explicit_values_kept(self):
        cfg = tb.SearchConfig(num_children=7, eval_budget=100).resolve(10)
        assert cfg.num_children == 7
        assert cfg.step_budget is None

    @pytest.mark.parametrize("bad", [
        {"c_lb": -1.0},
        {"c_x": math.nan},
        {"num_children": 0},
        {"local_opt_budget": -1},
        {"delta_fraction": 0.0},
        {"delta_fraction": 1.5},
        {"root_child_cap": 0},
        {"step_budget": 0},
        {"wall_clock_budget_ms": math.inf},
        {"eval_budget": math.nan},
        # wrong types, as a JSON config file can give them
        {"c_lb": "a"},
        {"seed": "x"},
        {"grad_samples": 2.5},
        {"num_children": 2.5},
        {"step_budget": True},
        # real fields must fit a float; uct_value would overflow mid-run
        {"c_lb": 10**400},
        {"c_v": -10**400},
        {"wall_clock_budget_ms": 10**400},
        {"seed": -1},
        {"grad_samples": 0},
    ])
    def test_validation_errors(self, bad):
        with pytest.raises(ValueError):
            tb.SearchConfig(**bad)

    def test_huge_counts_accepted(self):
        cfg = tb.SearchConfig(step_budget=10**400, eval_budget=10**400)
        assert (cfg.step_budget, cfg.eval_budget) == (10**400, 10**400)

    def test_numpy_numbers_accepted(self):
        cfg = tb.SearchConfig(num_children=np.int64(3), c_lb=np.float32(2.0),
                              seed=np.uint8(4)).resolve(2)
        assert (cfg.num_children, cfg.c_lb, cfg.seed) == (3, 2.0, 4)

    def test_checked_when_built_and_replaced(self):
        with pytest.raises(ValueError, match="^c_lb must be >= 0$"):
            tb.SearchConfig(c_lb=-1.0)
        with pytest.raises(ValueError,
                           match=r"^delta_fraction must be in \(0, 1\]$"):
            tb.SearchConfig(delta_fraction=3.0)
        with pytest.raises(ValueError, match="^num_children must be >= 1$"):
            dataclasses.replace(tb.SearchConfig(), num_children=0)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            dataclasses.replace(tb.SearchConfig(), seed=-1)
