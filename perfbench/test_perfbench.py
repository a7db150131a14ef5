"""Tests of the benchmark's own checks and of a tiny run of each workload.

    python3 -m pytest perfbench
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import treebound as tb

import checks as ck
import harness
import reference as ref
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MICHALEWICZ = WORKLOADS["michalewicz-10d"]


@pytest.fixture(scope="module")
def michalewicz_case():
    """A real outcome of a short Michalewicz search, with its checks'
    inputs: (outcome, formula, f*, steps)."""
    problem, config = MICHALEWICZ.build(None)
    steps = 5
    result = tb.optimize(problem.expression, problem.box,
                         replace(config, seed=3, step_budget=steps))
    return (ck.outcome(result, problem.box, 3), ref.michalewicz,
            ref.michalewicz_optimum(10), steps)


def _failed(case, out=None):
    outcome, f, fstar, steps = case
    return {c.name for c in ck.check(out or outcome, f, fstar,
                                     ref.FSTAR_TOL, steps) if not c.ok}


def test_true_outcome_passes(michalewicz_case):
    assert _failed(michalewicz_case) == set()


def test_best_y_below_optimum_is_rejected(michalewicz_case):
    out, _, fstar, _ = michalewicz_case
    assert "fstar_le_best" in _failed(michalewicz_case,
                                      replace(out, best_y=fstar - 1e-3))


def test_root_lb_above_optimum_is_rejected(michalewicz_case):
    out, _, fstar, _ = michalewicz_case
    assert _failed(michalewicz_case,
                   replace(out, root_lb=fstar + 1e-3)) == {"lb_le_fstar"}


def test_rising_trace_is_rejected(michalewicz_case):
    out = michalewicz_case[0]
    trace = list(out.trace)
    step, evals, wall, y = trace[-2]
    trace[-2] = (step, evals, wall, out.best_y - 1.0)
    assert _failed(michalewicz_case,
                   replace(out, trace=tuple(trace))) == {"trace_monotone"}


def test_short_trace_is_rejected(michalewicz_case):
    out = michalewicz_case[0]
    assert _failed(michalewicz_case,
                   replace(out, trace=out.trace[1:])) == {"trace_steps"}


def test_best_x_outside_box_is_rejected(michalewicz_case):
    out = michalewicz_case[0]
    x = out.best_x.copy()
    x[0] = out.highs[0] + 0.5
    assert "in_box" in _failed(michalewicz_case, replace(out, best_x=x))


def test_value_disagreeing_with_formula_is_rejected(michalewicz_case):
    out = michalewicz_case[0]
    assert _failed(michalewicz_case,
                   replace(out, best_y=out.best_y * (1 + 1e-6))) == {
                       "value", "trace_monotone"}


def test_leaf_bound_above_samples_is_rejected(michalewicz_case):
    out = michalewicz_case[0]
    lows, highs, _ = out.leaves[1]
    leaves = (out.leaves[0], (lows, highs, 1.0)) + out.leaves[2:]
    assert _failed(michalewicz_case,
                   replace(out, leaves=leaves)) == {"leaf_bound_1"}


def test_differing_repeat_is_rejected(michalewicz_case):
    out = michalewicz_case[0]
    other = replace(out, trace=out.trace[:-1] + (
        out.trace[-1][:1] + (out.trace[-1][1] + 1,) + out.trace[-1][2:],))
    assert ck.check_repeat(out, out, "repeat").ok
    assert not ck.check_repeat(out, other, "repeat").ok


def test_optima_match_documented_values():
    assert ref.michalewicz_optimum(10) == pytest.approx(-9.66015172, abs=1e-8)
    payload = ref.relu_net_payload()
    fstar = ref.relu_net_optimum(payload)
    assert fstar == pytest.approx(-60.8893725, abs=1e-7)
    # no point of the box may beat the exact minimum
    pts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(20000, 10))
    assert np.min(ref.relu_net(payload)(pts)) >= fstar
    assert ref.ackley(np.zeros(100)) == pytest.approx(0.0, abs=1e-12)


def test_relu_formula_matches_network_file(tmp_path):
    inputs = WORKLOADS["relu-10x16"].make_inputs(tmp_path)
    weights = tb.load_nn_weights(inputs["path"])
    pts = np.random.default_rng(1).uniform(-2.0, 2.0, size=(50, 10))
    ours = ref.relu_net(inputs["payload"])(pts)
    theirs = [weights.forward(p) for p in pts]
    assert np.allclose(ours, theirs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_finishes_and_reports_every_metric(name, trace, tmp_path):
    spec = json.loads(BENCHMARK_JSON.read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    workload = replace(WORKLOADS[name], steps=3, panel=1)
    t0 = time.perf_counter()
    summary = harness.run_workload(workload, seed=0, seconds=0.0, trace=trace,
                                   out_dir=tmp_path, log=lambda line: None)
    assert time.perf_counter() - t0 < 60.0
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] > 0
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert got == wanted
    assert all(math.isfinite(v["value"]) for v in summary["metrics"].values())
