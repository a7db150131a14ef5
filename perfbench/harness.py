"""One benchmark run of one workload: repeated rounds of set-up and search
through treebound's public API, then the checks and the metrics.

Untraced run (``trace=False``): each round times the set-up (building the
problem, the compiled value kernel, and the first gradient and Hessian
diagonal calls, which differentiate symbolically and generate their
kernels), then one ``optimize`` call at the step budget with an observer
that timestamps every step.  Rounds cycle through the panel of search
seeds, so every round after the first pass repeats an earlier search and
is checked to repeat it exactly.

Traced run (``trace=True``): each round runs the search untraced, then
again with a ``Tracer`` installed; the per-layer metrics come from the
traced search and the overhead is the difference of the two walls.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time

import numpy as np

import treebound as tb
from treebound.expr import CompiledObjective

import checks as ck
import reference as ref
import tracing as tr

clock = time.perf_counter

# a traced run passes over the first few seeds of the panel at least, and
# takes its counts and ratios from exactly those searches
TRACED_SEEDS = 4


def timed_setup(workload, inputs):
    gc.collect()
    t0 = clock()
    problem, config = workload.build(inputs)
    obj = CompiledObjective(problem.expression)
    x0 = problem.box.midpoint
    obj.gradient(x0)
    obj.hessian_diagonal(x0)
    return clock() - t0, problem, config


def timed_search(problem, config, search=tb.optimize, on_step=None):
    """One ``optimize`` call; returns wall seconds, steps/s and
    evaluations/s over steps 2..N, and the result."""
    stamps = []

    def observer(root, step):
        stamps.append(clock())
        if on_step is not None:
            on_step(root)

    gc.collect()
    t0 = clock()
    result = search(problem.expression, problem.box, config,
                    observer=observer)
    wall = clock() - t0
    window = stamps[-1] - stamps[0]
    evals = result.trace[-1].evaluations - result.trace[0].evaluations
    return wall, (len(stamps) - 1) / window, evals / window, result


def _tree_shape(root):
    nodes, depth, stack = 0, 0, [(root, 0)]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.children)
    return nodes, depth


class _HitCounter:
    """Counts synthesized nodes, and those that became the new global
    best in the step that made them."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.learned = 0
        self.hits = 0
        self.best = float("inf")

    def __call__(self, root):
        node = self.tracer.last_learned
        self.tracer.last_learned = None
        if node is not None:
            self.learned += 1
            if root.x is node.x and root.y < self.best:
                self.hits += 1
        self.best = root.y


def run_workload(workload, seed, seconds, trace, out_dir, log=print):
    """Run rounds for at least ``seconds``.  An untraced run makes at
    least one pass over the panel plus one round, so one search repeats;
    a traced run covers at least the first ``TRACED_SEEDS`` seeds.
    Returns the result object the benchmark prints."""
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = workload.make_inputs(out_dir)
    seeds = workload.search_seeds(seed)
    panel = len(seeds)
    min_rounds = min(panel, TRACED_SEEDS) if trace else panel + 1
    rows, outcomes, repeats, profiles = [], [], [], []
    tracer = tr.Tracer()
    origin = clock()
    r = 0
    while r < min_rounds or clock() - origin < seconds:
        s = seeds[r % panel]
        row = {"round": r, "search_seed": s}
        if trace:
            problem, config = workload.build(inputs)
            config = workload.configure(config, s)
            row["wall_s"], _, _, result = timed_search(problem, config)
            plain = ck.outcome(result, problem.box, s)
            del result
            hits = _HitCounter(tracer)
            first_report = len(tracer.local_opt_reports)
            with tracer.installed():
                root_span = len(tracer.starts)
                traced_wall, _, _, result = timed_search(
                    problem, config, tracer.wrap("optimize", tb.optimize),
                    hits)
            prof = tr.profile(tracer, root_span)
            prof["overhead_s"] = traced_wall - row["wall_s"]
            prof["nodes"], prof["max_depth"] = _tree_shape(result.root)
            prof["pruned_nodes"] = result.stats.pruned_nodes
            prof["learned"], prof["hits"] = hits.learned, hits.hits
            prof["local_opt_reports"] = tracer.local_opt_reports[first_report:]
            profiles.append(prof)
            row["traced_wall_s"] = traced_wall
            outcomes.append(ck.outcome(result, problem.box, s))
            repeats.append((r, plain, outcomes[-1], "traced_repeats_untraced"))
        else:
            row["setup_s"], problem, config = timed_setup(workload, inputs)
            config = workload.configure(config, s)
            (row["wall_s"], row["steps_per_s"], row["evals_per_s"],
             result) = timed_search(problem, config)
            outcomes.append(ck.outcome(result, problem.box, s))
            if r >= panel:
                repeats.append((r, outcomes[r - panel], outcomes[-1],
                                "repeats_same_seed"))
        del result
        row["best_y"] = outcomes[-1].best_y
        row["root_lb"] = outcomes[-1].root_lb
        row["evaluations"] = outcomes[-1].trace[-1][1]
        rows.append(row)
        log(json.dumps(row))
        r += 1

    # read before the optima pull in scipy, so it is the search's peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    f = workload.formula(inputs)
    fstar = workload.optimum(inputs)
    results = []
    for i, out in enumerate(outcomes):
        results += [(i, c) for c in ck.check(out, f, fstar, ref.FSTAR_TOL,
                                             workload.steps)]
    results += [(i, ck.check_repeat(a, b, label))
                for i, a, b, label in repeats]
    failed = [(i, c) for i, c in results if not c.ok]
    for i, c in failed:
        log(f"FAILED {c.name} (round {i}): {c.detail}")

    if trace:
        metrics = _layer_metrics(profiles, profiles[:min_rounds])
        tracer.write_csv(out_dir / f"{workload.name}-spans.csv", origin)
    else:
        metrics = _end_to_end(rows, outcomes[:panel], peak_rss_mb)
    summary = {"correct": not failed, "attempted": len(results),
               "failed": len(failed), "metrics": metrics}
    (out_dir / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": workload.name, "seed": seed,
                    "f_star": fstar, "rounds": rows, **summary}, indent=1))
    return summary


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(rows, panel_outcomes, peak_rss_mb):
    def med(key):
        return statistics.median(row[key] for row in rows)

    # the certificate of the panel's searches taken together: every
    # root.lb is a valid lower bound on f*, so the largest one is too
    gap = (min(o.best_y for o in panel_outcomes)
           - max(o.root_lb for o in panel_outcomes))
    return {
        "setup_s": _metric(med("setup_s"), "s"),
        "wall_s": _metric(med("wall_s"), "s"),
        "steps_per_s": _metric(med("steps_per_s"), "1/s"),
        "evals_per_s": _metric(med("evals_per_s"), "1/s"),
        "certified_gap": _metric(gap, "1"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _layer_metrics(profiles, counted):
    """Times are medians over every traced round (per-call percentiles
    pool the calls of all rounds); counts and ratios come from the
    searches in ``counted`` only, so they repeat exactly for a seed."""
    def per_call(name, q, key="calls"):
        values = [v for p in profiles for v in p[key].get(name, [])]
        return np.percentile(values, q) if values else 0.0

    def per_round(fn, rounds=profiles):
        return statistics.median(fn(p) for p in rounds)

    def count(name):
        return per_round(lambda p: len(p["calls"].get(name, [])), counted)

    def share(layer):
        return per_round(lambda p: tr.layer_busy(p, layer) / p["wall_s"])

    reports = [rep for p in counted for rep in p["local_opt_reports"]]
    learned = sum(p["learned"] for p in counted)
    m = {}
    for short, name in (("value", "value"), ("gradient", "gradient"),
                        ("hessian", "hessian_diagonal")):
        m[f"expr.{short}_us_p50"] = _metric(per_call(name, 50), "us")
        m[f"expr.{short}_us_p99"] = _metric(per_call(name, 99), "us")
        m[f"expr.{short}_calls"] = _metric(count(name), "count")
    m.update({
        "expr.differentiate_s": _metric(per_round(
            lambda p: p["inclusive_s"].get("differentiate", 0.0)), "s"),
        "expr.codegen_s": _metric(per_round(
            lambda p: p["inclusive_s"].get("codegen", 0.0)), "s"),
        "expr.busy_s": _metric(per_round(
            lambda p: tr.layer_busy(p, "expr")), "s"),
        "expr.share": _metric(share("expr"), "1"),
        "interval.lower_bound_us_p50": _metric(per_call("lower_bound", 50), "us"),
        "interval.lower_bound_us_p99": _metric(per_call("lower_bound", 99), "us"),
        "interval.lower_bound_calls": _metric(count("lower_bound"), "count"),
        "interval.lower_bound_busy_s": _metric(per_round(
            lambda p: p["self_s"].get("lower_bound", 0.0)), "s"),
        "interval.partition_busy_s": _metric(per_round(
            lambda p: p["self_s"].get("partition", 0.0)), "s"),
        "interval.share": _metric(share("interval"), "1"),
        "localopt.local_opt_us_p50": _metric(per_call("local_opt", 50), "us"),
        "localopt.local_opt_us_p99": _metric(per_call("local_opt", 99), "us"),
        "localopt.calls": _metric(count("local_opt"), "count"),
        "localopt.self_s": _metric(per_round(
            lambda p: p["self_s"].get("local_opt", 0.0)), "s"),
        "localopt.evals_per_call": _metric(
            sum(e for e, _ in reports) / len(reports), "count"),
        "localopt.converged_ratio": _metric(
            sum(1 for _, c in reports if c) / len(reports), "1"),
        "localopt.share": _metric(share("localopt"), "1"),
        "tree.select_us": _metric(per_call("select", 50), "us"),
        "tree.backup_us": _metric(per_call("backup", 50), "us"),
        "tree.prune_root_us": _metric(per_call("prune_root", 50), "us"),
        "tree.expand_self_us": _metric(
            per_call("expand", 50, "self_calls"), "us"),
        "tree.learn_self_us": _metric(
            per_call("learn", 50, "self_calls"), "us"),
        "tree.loop_self_s": _metric(per_round(
            lambda p: p["self_s"]["optimize"]), "s"),
        "tree.nodes": _metric(per_round(lambda p: p["nodes"], counted), "count"),
        "tree.max_depth": _metric(
            per_round(lambda p: p["max_depth"], counted), "count"),
        "tree.pruned_nodes": _metric(
            per_round(lambda p: p["pruned_nodes"], counted), "count"),
        "tree.learn_hit_ratio": _metric(
            sum(p["hits"] for p in counted) / learned if learned else 0.0, "1"),
        "tree.share": _metric(share("tree"), "1"),
        "trace.wall_s": _metric(per_round(lambda p: p["wall_s"]), "s"),
        "trace.overhead_s": _metric(per_round(lambda p: p["overhead_s"]), "s"),
    })
    return m
