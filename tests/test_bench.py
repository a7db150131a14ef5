import json
import math

import numpy as np
import pytest

import treebound as tb
from treebound import bench
from treebound import expr as ex
from treebound.cli import main
from treebound.tree import TraceRecord

from helpers import (
    ackley_reference,
    central_diff,
    levy_reference,
    michalewicz_reference_grid,
    untimed_summary,
)


class TestAckley:
    def test_origin_is_zero(self):
        p = bench.make_ackley(50)
        assert abs(ex.evaluate(p.expression, np.zeros(50))) < 1e-12
        assert p.optimum_value == 0.0

    def test_far_corner_plateau(self):
        p = bench.make_ackley(2)
        v = ex.evaluate(p.expression, np.full(2, 32.768))
        assert v > 19.0

    def test_lower_bound_over_full_domain(self):
        p = bench.make_ackley(3)
        assert tb.lower_bound(p.expression, p.box) <= 0.0

    def test_matches_reference_at_random_points(self):
        p = bench.make_ackley(4)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = p.box.sample(rng)
            ours = ex.evaluate(p.expression, x)
            assert math.isclose(ours, ackley_reference(x), rel_tol=1e-12,
                                abs_tol=1e-12)


class TestLevy:
    def test_all_ones_is_zero(self):
        p = bench.make_levy(7)
        assert abs(ex.evaluate(p.expression, np.ones(7))) < 1e-12

    def test_gradient_vanishes_at_minimum(self):
        p = bench.make_levy(4)
        g = ex.gradient(p.expression)
        ones = np.ones(4)
        for comp in g:
            assert abs(ex.evaluate(comp, ones)) < 1e-8

    def test_matches_reference_at_origin_and_random(self):
        p = bench.make_levy(2)
        assert math.isclose(ex.evaluate(p.expression, np.zeros(2)),
                            levy_reference(np.zeros(2)), rel_tol=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = p.box.sample(rng)
            assert math.isclose(ex.evaluate(p.expression, x),
                                levy_reference(x), rel_tol=1e-10,
                                abs_tol=1e-12)


class TestMichalewicz:
    def test_origin_is_zero(self):
        for n in (1, 5):
            p = bench.make_michalewicz(n)
            assert ex.evaluate(p.expression, np.zeros(n)) == 0.0

    def test_two_dimensional_grid_minimum(self):
        p = bench.make_michalewicz(2)
        ref = michalewicz_reference_grid(501)
        axis = np.linspace(0.0, math.pi, 501)
        ours = min(ex.evaluate(p.expression, (a, b))
                   for a in axis[::10] for b in axis[::10])
        assert ref < -1.7  # grid oracle lands near the known -1.8013
        assert abs(michalewicz_reference_grid(2001) - (-1.8013)) < 1e-3
        assert ours >= ref - 1e-12

    def test_values_bounded_below_by_minus_n(self):
        p = bench.make_michalewicz(6)
        rng = np.random.default_rng(4)
        for _ in range(200):
            assert ex.evaluate(p.expression, p.box.sample(rng)) >= -6.0

    def test_no_closed_form_optimum_stored(self):
        assert bench.make_michalewicz(5).optimum_value is None


class TestGeneratedGradients:
    @pytest.mark.parametrize("factory,dims", [
        (bench.make_ackley, 3),
        (bench.make_levy, 3),
        (bench.make_michalewicz, 3),
    ])
    def test_gradient_matches_finite_differences(self, factory, dims):
        p = factory(dims)
        g = ex.gradient(p.expression)
        rng = np.random.default_rng(5)
        for _ in range(100):
            # keep away from the very edge so central stencils stay inside
            x = p.box.lows + (0.05 + 0.9 * rng.random(dims)) * p.box.widths
            for d in range(dims):
                sym = ex.evaluate(g[d], x)
                fd = central_diff(p.expression, x, d,
                                  1e-6 * (1.0 + abs(x[d])))
                assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-5


class TestAggregate:
    def _trace(self, values):
        return [TraceRecord(i + 1, (i + 1) * 10, 0.0, v)
                for i, v in enumerate(values)]

    def test_single_trace(self):
        curve = bench.aggregate_traces([self._trace([5.0, 3.0, 1.0])])
        assert curve.mean == [5.0, 3.0, 1.0]
        assert curve.std == [0.0, 0.0, 0.0]
        assert curve.seed_count == 1

    def test_two_traces_population_std(self):
        curve = bench.aggregate_traces([self._trace([3.0, 2.0, 1.0]),
                                        self._trace([5.0, 2.0, 1.0])])
        assert curve.mean == [4.0, 2.0, 1.0]
        assert curve.std == [1.0, 0.0, 0.0]

    def test_short_trace_carries_forward(self):
        curve = bench.aggregate_traces([self._trace([4.0]),
                                        self._trace([2.0, 1.0])])
        assert curve.mean == [3.0, 2.5]

    def test_permutation_invariance(self):
        traces = [self._trace([3.0, 2.0]), self._trace([5.0, 4.0]),
                  self._trace([1.0, 0.5])]
        fwd = bench.aggregate_traces(traces)
        rev = bench.aggregate_traces(traces[::-1])
        assert fwd.mean == rev.mean and fwd.std == rev.std


class TestRunSuite:
    def test_artifacts_and_aggregate(self, tmp_path):
        p = bench.make_ackley(2)
        cfg = tb.SearchConfig(step_budget=5)
        curves = bench.run_suite([p], cfg, [0, 1], tmp_path)
        curve = curves["ackley-2d"]
        assert curve.seed_count == 2
        for seed in (0, 1):
            csv = tmp_path / f"ackley-2d-seed{seed}.csv"
            assert csv.exists()
            lines = csv.read_text().splitlines()
            assert lines[0] == "step,evals,wall_ms,best_y"
            assert len(lines) == 6
            summary = json.loads(
                (tmp_path / f"ackley-2d-seed{seed}-summary.json").read_text())
            assert summary["seed"] == seed
            assert summary["config"]["seed"] == seed
            assert summary["config"]["num_children"] == 10
        agg = json.loads((tmp_path / "ackley-2d-aggregate.json").read_text())
        assert agg["seeds"] == [0, 1]
        assert agg["std_convention"] == "population"
        assert len(agg["mean"]) == len(agg["steps"])

    def test_csv_reproducible(self, tmp_path):
        p = bench.make_levy(2)
        cfg = tb.SearchConfig(step_budget=4)
        bench.run_suite([p], cfg, [3], tmp_path / "a")
        bench.run_suite([p], cfg, [3], tmp_path / "b")
        a = (tmp_path / "a" / "levy-2d-seed3.csv").read_bytes()
        b = (tmp_path / "b" / "levy-2d-seed3.csv").read_bytes()
        assert a == b
        # worker processes write the same files as a run in this process
        bench.run_suite([p], cfg, [3, 4], tmp_path / "c", jobs=2)
        assert (tmp_path / "c" / "levy-2d-seed3.csv").read_bytes() == a
        assert (untimed_summary(tmp_path / "c" / "levy-2d-seed3-summary.json")
                == untimed_summary(tmp_path / "a"
                                   / "levy-2d-seed3-summary.json"))

    def test_long_expression_in_worker_processes(self, tmp_path):
        # the pool pickles the problem; a 1,500-term chain must not pass
        # the recursion limit there
        path = tmp_path / "chain.txt"
        path.write_text("dims: 1\ndomain: [-1, 1] x 1\n"
                        + " + ".join(["x0"] * 1500) + "\n")
        p = bench.load_expression_file(path)
        bench.run_suite([p], tb.SearchConfig(step_budget=2), [0, 1],
                        tmp_path / "out", jobs=2)
        assert (tmp_path / "out" / "chain-1d-seed1.csv").exists()

    def test_empty_seed_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            bench.run_suite([bench.make_ackley(2)], tb.SearchConfig(), [],
                            tmp_path)

    @pytest.mark.parametrize("seeds,message", [
        ([0, -1], "seed must be >= 0"),
        ([3, 3], "seeds must be distinct"),
    ], ids=["negative", "repeated"])
    def test_bad_seed_list_writes_nothing(self, tmp_path, seeds, message):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            bench.run_suite([bench.make_ackley(2)],
                            tb.SearchConfig(step_budget=1), seeds, out)
        assert not out.exists()

    def test_repeated_label_writes_nothing(self, tmp_path):
        # two files named f.txt give both problems the label f-1d, so the
        # second would overwrite the first's files
        problems = []
        for sub, body in (("a", "x0^2"), ("b", "(x0 - 0.5)^2 + 3")):
            path = tmp_path / sub / "f.txt"
            path.parent.mkdir()
            path.write_text(f"dims: 1\ndomain: [-1, 1] x 1\n{body}\n")
            problems.append(bench.load_expression_file(path))
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="problem labels must be distinct"):
            bench.run_suite(problems, tb.SearchConfig(step_budget=2), [0], out)
        assert not out.exists()


class TestTableDefaults:
    def test_children_scale_with_dims(self):
        for dims, children in ((50, 10), (100, 20), (200, 30)):
            cfg = bench.table_defaults("ackley", dims).resolve(dims)
            assert cfg.num_children == children

    def test_michalewicz_local_budget(self):
        assert bench.table_defaults("michalewicz", 50).local_opt_budget == 20
        assert bench.table_defaults("michalewicz", 100).local_opt_budget == 50
        assert bench.table_defaults("ackley", 50).local_opt_budget == 50

    def test_base_local_budget_kept(self):
        base = tb.SearchConfig(local_opt_budget=7)
        assert bench.table_defaults("ackley", 10, base).local_opt_budget == 7
        assert bench.table_defaults("michalewicz", 100,
                                    base).local_opt_budget == 7
        assert bench.table_defaults("michalewicz", 10,
                                    base).local_opt_budget == 20

    def test_shared_coefficients(self):
        cfg = bench.table_defaults("levy", 50)
        assert (cfg.c_lb, cfg.c_v, cfg.c_x) == (50.0, 0.5, 0.5)


class TestExpressionFiles:
    def test_cube_domain(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_text("dims: 2\ndomain: [-1.5, 2.5] x 2\nx0^2 + x1^2\n")
        p = bench.load_expression_file(path)
        assert p.dims == 2
        assert np.all(p.box.lows == -1.5) and np.all(p.box.highs == 2.5)
        assert ex.evaluate(p.expression, [1.0, 2.0]) == 5.0

    def test_per_dimension_domain_and_multiline(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(
            "dims: 2\ndomain: [-1, 1], [0, 4]\nx0^2 +\n  sin(x1)\n")
        p = bench.load_expression_file(path)
        assert p.box.lows[1] == 0.0 and p.box.highs[1] == 4.0
        assert ex.evaluate(p.expression, [2.0, 0.0]) == 4.0

    def test_comments_stripped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# objective\ndims: 1\ndomain: [0, 2] x 1  # cube\n"
                        "x0^2  # parabola\n")
        p = bench.load_expression_file(path)
        assert ex.evaluate(p.expression, [1.5]) == 2.25

    def test_domain_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("dims: 3\ndomain: [-1, 1] x 2\nx0\n")
        with pytest.raises(ValueError, match="dims"):
            bench.load_expression_file(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("x0 + 1\n")
        with pytest.raises(ValueError):
            bench.load_expression_file(path)


class TestNnFiles:
    def _weights_payload(self, rng, n=3, h=4):
        return {
            "n": n, "h": h,
            "W1": rng.normal(size=(h, n)).tolist(),
            "b1": rng.normal(size=h).tolist(),
            "w2": rng.normal(size=h).tolist(),
            "b2": float(rng.normal()),
        }

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        payload = self._weights_payload(rng)
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        w = bench.load_nn_weights(path)
        p = bench.nn_problem(path)
        assert p.dims == 3
        x = rng.uniform(-1, 1, size=3)
        assert ex.evaluate(p.expression, x) == w.forward(x)

    def test_domain_key(self, tmp_path):
        rng = np.random.default_rng(9)
        payload = self._weights_payload(rng)
        payload["domain"] = [-2.0, 3.0]
        path = tmp_path / "net.json"
        path.write_text(json.dumps(payload))
        p = bench.nn_problem(path)
        assert np.all(p.box.lows == -2.0) and np.all(p.box.highs == 3.0)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text(json.dumps({"n": 2, "h": 1}))
        with pytest.raises(ValueError, match="missing keys"):
            bench.load_nn_weights(path)

    @pytest.mark.parametrize("domain,message", [
        ([[0, 1], [2]], "domain must be one"),
        (5, "domain must be one"),
        (None, "must hold a JSON object"),  # the file holds 5
    ])
    def test_malformed_file_names_it(self, tmp_path, domain, message):
        payload = self._weights_payload(np.random.default_rng(10), n=2)
        payload["domain"] = domain
        path = tmp_path / "bad-net.json"
        path.write_text(json.dumps(payload if domain is not None else 5))
        with pytest.raises(ValueError, match=message) as err:
            bench.nn_problem(path)
        assert "bad-net.json" in str(err.value)

    @pytest.mark.parametrize("domain", [
        [0, 10**400],
        [[0, 1], [0, 10**400]],
    ], ids=["pair", "per-dimension"])
    def test_bound_too_large_for_a_float_is_an_error_line(self, tmp_path,
                                                          capsys, domain):
        payload = self._weights_payload(np.random.default_rng(10), n=2)
        payload["domain"] = domain
        path = tmp_path / "big-net.json"
        path.write_text(json.dumps(payload))
        code = main(["optimize", "--nn-weights", str(path), "--steps", "1",
                     "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: box bounds must be finite\n"

    @pytest.mark.parametrize("key,value,message", [
        ("n", None, "n must be an integer"),
        ("n", 4.7, "n must be an integer"),
        ("h", "5", "h must be an integer"),
        ("b2", None, "b2 must hold numbers"),
        pytest.param("b2", 10**400, "b2 must hold numbers", id="b2-10**400"),
        ("w2", {"a": 1}, "w2 must hold numbers"),
    ])
    def test_malformed_field_names_it(self, tmp_path, key, value, message):
        payload = self._weights_payload(np.random.default_rng(10), n=2)
        payload[key] = value
        path = tmp_path / "bad-net.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as err:
            bench.nn_problem(path)
        assert "bad-net.json" in str(err.value)
