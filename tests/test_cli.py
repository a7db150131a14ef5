import json

import numpy as np
import pytest

from treebound.bench import make_builtin
from treebound.cli import load_config, main
from treebound import expr as ex
from treebound.expr import unparse

from helpers import untimed_summary


@pytest.fixture
def expr_file(tmp_path):
    path = tmp_path / "quad.txt"
    path.write_text("dims: 2\ndomain: [-2, 2] x 2\n(x0 - 0.5)^2 + x1^2\n")
    return str(path)


@pytest.fixture
def nn_file(tmp_path):
    rng = np.random.default_rng(0)
    payload = {
        "n": 3, "h": 4,
        "W1": rng.normal(size=(4, 3)).tolist(),
        "b1": rng.normal(size=4).tolist(),
        "w2": rng.normal(size=4).tolist(),
        "b2": 0.0,
        "domain": [-1.0, 1.0],
    }
    path = tmp_path / "net.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestOptimizeCommand:
    def test_builtin_smoke(self, tmp_path, capsys):
        out = tmp_path / "runs"
        code = main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--steps", "5", "--seed", "1", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "best y" in printed and "trace:" in printed
        assert (out / "ackley-2d-seed1.csv").exists()
        summary = json.loads(
            (out / "ackley-2d-seed1-summary.json").read_text())
        assert summary["config"]["seed"] == 1
        assert summary["config"]["step_budget"] == 5
        assert summary["termination_reason"] == "steps"

    def test_expression_file(self, tmp_path, expr_file):
        code = main(["optimize", "--expr-file", expr_file, "--steps", "10",
                     "--out", str(tmp_path / "r")])
        assert code == 0
        summary = json.loads(
            (tmp_path / "r" / "quad-2d-seed0-summary.json").read_text())
        assert summary["best_y"] < 1e-4

    def test_nn_weights(self, tmp_path, nn_file):
        code = main(["optimize", "--nn-weights", nn_file, "--steps", "5",
                     "--out", str(tmp_path / "r")])
        assert code == 0

    def test_eval_budget_flag(self, tmp_path):
        out = tmp_path / "r"
        assert main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--evals", "50", "--out", str(out)]) == 0
        summary = json.loads(
            (out / "ackley-2d-seed0-summary.json").read_text())
        assert summary["termination_reason"] == "evals"
        assert summary["evaluations"] >= 50

    def test_seconds_flag(self, tmp_path):
        out = tmp_path / "r"
        assert main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--seconds", "0.000001", "--out", str(out)]) == 0
        summary = json.loads(
            (out / "ackley-2d-seed0-summary.json").read_text())
        assert summary["termination_reason"] == "wall_clock"

    def test_negative_seed_is_an_error_line(self, tmp_path, capsys):
        out = tmp_path / "r"
        code = main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--steps", "1", "--seed", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: seed must be >= 0\n"
        assert not out.exists()

    def test_zero_dims_is_usage_error(self):
        assert main(["optimize", "--fn", "ackley", "--dims", "0",
                     "--steps", "1"]) == 2

    def test_no_source_is_usage_error(self, capsys):
        assert main(["optimize", "--steps", "1"]) == 2

    def test_two_sources_is_usage_error(self, expr_file):
        assert main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--expr-file", expr_file, "--steps", "1"]) == 2

    def test_unknown_flag(self):
        assert main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--frobnicate"]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["optimize", "--fn", "levy", "--dims", "2",
                         "--steps", "8", "--seed", "7",
                         "--out", str(tmp_path / sub)]) == 0
        a = (tmp_path / "a" / "levy-2d-seed7.csv").read_bytes()
        b = (tmp_path / "b" / "levy-2d-seed7.csv").read_bytes()
        assert a == b


class TestSuiteCommand:
    def test_two_seeds(self, tmp_path, capsys):
        out = tmp_path / "suite"
        code = main(["suite", "--fn", "ackley", "--dims", "2",
                     "--steps", "4", "--seeds", "0,1", "--out", str(out)])
        assert code == 0
        assert (out / "ackley-2d-aggregate.json").exists()
        agg = json.loads((out / "ackley-2d-aggregate.json").read_text())
        assert agg["seeds"] == [0, 1]

    def test_bad_seed_list(self, tmp_path):
        assert main(["suite", "--fn", "ackley", "--dims", "2",
                     "--steps", "2", "--seeds", "0,x",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("seeds,message", [
        ("0,-1", "seed must be >= 0"),
        ("3,3", "seeds must be distinct"),
    ], ids=["negative", "repeated"])
    def test_bad_seed_is_an_error_line(self, tmp_path, capsys, seeds,
                                       message):
        out = tmp_path / "sout"
        assert main(["suite", "--fn", "ackley", "--dims", "2",
                     "--steps", "1", "--seeds", seeds,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_same_files_as_optimize(self, tmp_path):
        run = ["--fn", "michalewicz", "--dims", "3", "--steps", "6"]
        assert main(["optimize", *run, "--seed", "4",
                     "--out", str(tmp_path / "opt")]) == 0
        assert main(["suite", *run, "--seeds", "4",
                     "--out", str(tmp_path / "suite")]) == 0
        csvs = [(tmp_path / sub / "michalewicz-3d-seed4.csv").read_bytes()
                for sub in ("opt", "suite")]
        summaries = [untimed_summary(
            tmp_path / sub / "michalewicz-3d-seed4-summary.json")
            for sub in ("opt", "suite")]
        assert csvs[0] == csvs[1]
        assert summaries[0] == summaries[1]
        assert summaries[0]["trace_csv"] == "michalewicz-3d-seed4.csv"


class TestNonFiniteSummary:
    @pytest.mark.filterwarnings("error")
    def test_all_nan_objective_writes_null(self, tmp_path, capsys):
        # log is NaN on the whole domain, so no sample is ever finite
        path = tmp_path / "logneg.txt"
        path.write_text("dims: 1\ndomain: [-2, -1] x 1\nlog(x0)\n")
        out = tmp_path / "r"
        main(["optimize", "--expr-file", str(path), "--steps", "3",
              "--out", str(out)])
        capsys.readouterr()
        main(["suite", "--expr-file", str(path), "--steps", "3",
              "--seeds", "0,1", "--out", str(out / "suite")])
        assert ("logneg-1d: 2 seed(s), final best inf +/- nan"
                in capsys.readouterr().out.splitlines())

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        def load(p):
            return json.loads(p.read_text(), parse_constant=refuse)

        assert load(out / "logneg-1d-seed0-summary.json")["best_y"] is None
        assert load(out / "suite" / "logneg-1d-seed1-summary.json")[
            "best_y"] is None
        agg = load(out / "suite" / "logneg-1d-aggregate.json")
        assert agg["mean"] == [None] * 3 and agg["std"] == [None] * 3


class TestBoundCommand:
    def test_prints_enclosure(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("dims: 1\ndomain: [-1, 2] x 1\nx0^2\n")
        assert main(["bound", "--expr-file", str(path)]) == 0
        printed = capsys.readouterr().out
        assert "lb=0.0" in printed and "ub=4.0" in printed


class TestDiffCheckCommand:
    def test_smooth_expression_passes(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("dims: 2\ndomain: [-2, 2] x 2\nsin(x0) * x1 + x0^3\n")
        assert main(["diff-check", "--expr-file", str(path),
                     "--points", "25"]) == 0
        assert "PASS" in capsys.readouterr().out

    @staticmethod
    def _ackley_file(tmp_path):
        path = tmp_path / "ackley.txt"
        path.write_text("dims: 3\ndomain: [-32.768, 32.768] x 3\n"
                        + unparse(make_builtin("ackley", 3).expression))
        return str(path)

    def test_exact_ackley_derivatives_pass(self, tmp_path, capsys):
        # a plain second difference misses Ackley's Hessian diagonal by
        # 5.1e-4 at these points; its Richardson extrapolation does not
        assert main(["diff-check", "--expr-file", self._ackley_file(tmp_path),
                     "--points", "30", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "hessian diagonal max rel err = 2.168e-07" in out
        assert "PASS" in out

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        # the flag is checked before the (here missing) file is read
        assert main(["diff-check", "--expr-file", str(tmp_path / "none.txt"),
                     "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0\n"

    def test_wrong_derivative_rule_fails(self, tmp_path, capsys,
                                         monkeypatch):
        cos = ex._OPS["cos"]
        monkeypatch.setitem(ex._OPS, "cos", cos._replace(
            derive=lambda *a: ex.mul(ex.const(1.001), cos.derive(*a))))
        assert main(["diff-check", "--expr-file", self._ackley_file(tmp_path),
                     "--points", "30", "--seed", "4"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out


class TestLoadConfig:
    def test_empty_object_gives_defaults(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert (cfg.c_lb, cfg.c_v, cfg.c_x) == (50.0, 0.5, 0.5)
        assert cfg.root_child_cap == 64

    def test_negative_coefficient_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"c_lb": -1}))
        with pytest.raises(ValueError, match="c_lb"):
            load_config(path)

    def test_partial_override(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"num_children": 20}))
        cfg = load_config(path)
        assert cfg.num_children == 20
        assert cfg.c_lb == 50.0

    @pytest.mark.parametrize("bad", [{"c_lb": "a"}, {"seed": "x"},
                                     {"grad_samples": 2.5},
                                     {"num_children": 2.5},
                                     {"c_lb": 10**400}])  # no float holds it
    def test_wrong_type_is_an_error_line(self, tmp_path, capsys, bad):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(bad))
        code = main(["optimize", "--fn", "levy", "--dims", "2",
                     "--steps", "2", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {next(iter(bad))} must be")
        assert "Traceback" not in err

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"numchildren": 20}))
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(path)

    def test_config_flag_feeds_run(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps({"num_children": 3, "seed": 5}))
        out = tmp_path / "r"
        code = main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--steps", "3", "--config", str(cfg_path),
                     "--out", str(out)])
        assert code == 0
        summary = json.loads(
            (out / "ackley-2d-seed5-summary.json").read_text())
        assert summary["config"]["num_children"] == 3
        assert summary["config"]["seed"] == 5
        # an explicit flag still wins over the config file
        code = main(["optimize", "--fn", "ackley", "--dims", "2",
                     "--steps", "3", "--config", str(cfg_path),
                     "--seed", "8", "--out", str(out)])
        assert code == 0
        assert (out / "ackley-2d-seed8-summary.json").exists()

    def test_rerun_from_embedded_config_reproduces_trace(self, tmp_path):
        out = tmp_path / "first"
        assert main(["optimize", "--fn", "levy", "--dims", "2",
                     "--steps", "6", "--seed", "4",
                     "--out", str(out)]) == 0
        summary = json.loads(
            (out / "levy-2d-seed4-summary.json").read_text())
        cfg_path = tmp_path / "embedded.json"
        cfg_path.write_text(json.dumps(summary["config"]))
        again = tmp_path / "second"
        assert main(["optimize", "--fn", "levy", "--dims", "2",
                     "--config", str(cfg_path), "--out", str(again)]) == 0
        a = (out / "levy-2d-seed4.csv").read_bytes()
        b = (again / "levy-2d-seed4.csv").read_bytes()
        assert a == b
