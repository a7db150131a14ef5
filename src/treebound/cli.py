"""Command-line front end.

Subcommands:
  optimize    one run on a problem, writing a trace CSV and summary JSON
  suite       several seeds per problem plus an aggregate JSON
  bound       print the interval enclosure of an expression file's
              objective over its domain
  diff-check  compare symbolic derivatives against finite differences

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import bench
from .expr import as_objective
from .interval import eval_interval
from .tree import SearchConfig


class UsageError(ValueError):
    pass


_CONFIG_KEYS = {f.name for f in fields(SearchConfig)}


def _read_config_overrides(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    return data


def load_config(path):
    """SearchConfig from a JSON file; unspecified keys keep defaults."""
    return SearchConfig(**_read_config_overrides(path))


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _positive_float(text):
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_problem_args(p):
    p.add_argument("--fn", choices=sorted(bench._BUILTINS),
                   help="built-in benchmark function")
    p.add_argument("--dims", type=_positive_int,
                   help="dimension for --fn")
    p.add_argument("--expr-file", help="expression file path")
    p.add_argument("--nn-weights", help="ReLU network weights JSON path")


def _add_run_args(p):
    p.add_argument("--steps", type=_positive_int, help="step budget")
    p.add_argument("--seconds", type=_positive_float,
                   help="wall-clock budget in seconds")
    p.add_argument("--evals", type=_positive_int, help="evaluation budget")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", default="runs", help="output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treebound",
        description="Global optimization of analytic functions over boxes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run a single optimization")
    _add_problem_args(p_opt)
    _add_run_args(p_opt)
    p_opt.add_argument("--seed", type=int, default=None,
                       help="run seed (default: config file seed, else 0)")
    p_opt.set_defaults(handler=_cmd_optimize)

    p_suite = sub.add_parser("suite", help="run one problem over many seeds")
    _add_problem_args(p_suite)
    _add_run_args(p_suite)
    p_suite.add_argument("--seeds", default="0,1,2,3,4",
                         help="comma-separated seed list")
    p_suite.add_argument("--jobs", type=_positive_int, default=1,
                         help="parallel worker processes")
    p_suite.set_defaults(handler=_cmd_suite)

    p_bound = sub.add_parser("bound",
                             help="interval enclosure over the file's domain")
    p_bound.add_argument("--expr-file", required=True)
    p_bound.set_defaults(handler=_cmd_bound)

    p_diff = sub.add_parser("diff-check",
                            help="symbolic vs finite-difference derivatives")
    p_diff.add_argument("--expr-file", required=True)
    p_diff.add_argument("--points", type=_positive_int, default=100)
    p_diff.add_argument("--seed", type=int, default=0)
    p_diff.set_defaults(handler=_cmd_diff_check)

    return parser


def _resolve_problem(args):
    sources = [s for s in
               (("--fn", args.fn), ("--expr-file", args.expr_file),
                ("--nn-weights", args.nn_weights)) if s[1]]
    if len(sources) != 1:
        raise UsageError("exactly one of --fn, --expr-file, --nn-weights "
                         "is required")
    if args.fn:
        if not args.dims:
            raise UsageError("--fn requires --dims")
        return bench.make_builtin(args.fn, args.dims)
    if args.expr_file:
        return bench.load_expression_file(args.expr_file)
    return bench.nn_problem(args.nn_weights)


def _build_config(args, problem):
    if args.fn:
        config = bench.table_defaults(problem.name, problem.dims)
    else:
        config = SearchConfig()
    if args.config:
        config = replace(config, **_read_config_overrides(args.config))
    if args.steps is not None:
        config = replace(config, step_budget=args.steps)
    if args.seconds is not None:
        config = replace(config, wall_clock_budget_ms=args.seconds * 1000.0)
    if args.evals is not None:
        config = replace(config, eval_budget=args.evals)
    return config


def _format_point(x, limit=8):
    vals = [f"{v:.6g}" for v in x[:limit]]
    if len(x) > limit:
        vals.append("...")
    return "(" + ", ".join(vals) + ")"


def _cmd_optimize(args):
    problem = _resolve_problem(args)
    config = _build_config(args, problem)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    result = bench.run_one(problem, config, Path(args.out))
    print(f"best y = {result.y!r} at x = {_format_point(result.x)}")
    print(f"steps = {result.steps}, evaluations = {result.evaluations}, "
          f"stopped by {result.termination_reason}")
    print(f"trace: {bench._trace_path(args.out, problem, config.seed)}")
    return 0


def _cmd_suite(args):
    problem = _resolve_problem(args)
    config = _build_config(args, problem)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"cannot parse --seeds {args.seeds!r}")
    if not seeds:
        raise UsageError("--seeds must list at least one seed")
    curves = bench.run_suite([problem], config, seeds, args.out,
                             jobs=args.jobs)
    curve = curves[problem.label]
    print(f"{problem.label}: {curve.seed_count} seed(s), "
          f"final best {curve.mean[-1]!r} +/- {curve.std[-1]!r}")
    print(f"aggregate: {Path(args.out) / (problem.label + '-aggregate.json')}")
    return 0


def _cmd_bound(args):
    problem = bench.load_expression_file(args.expr_file)
    enclosure = eval_interval(problem.expression, problem.box)
    print(f"lb={enclosure.lo!r} ub={enclosure.hi!r}")
    return 0


def _second_difference(obj, x, fx, d, h):
    """Central second difference of ``obj`` at ``x`` along ``d``."""
    xp, xm = x.copy(), x.copy()
    xp[d] += h
    xm[d] -= h
    return (obj.value(xp) - 2.0 * fx + obj.value(xm)) / (h * h)


def _cmd_diff_check(args):
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    problem = bench.load_expression_file(args.expr_file)
    obj = as_objective(problem.expression)
    rng = np.random.default_rng(args.seed)
    worst_g, worst_h = 0.0, 0.0
    for _ in range(args.points):
        x = problem.box.sample(rng)
        fx = obj.value(x)
        grad = obj.gradient(x)
        hess = obj.hessian_diagonal(x)
        for d in range(obj.dims):
            sym_g, sym_h = grad[d], hess[d]
            hg = 1e-6 * (1.0 + abs(x[d]))
            hh = 1e-4 * (1.0 + abs(x[d]))
            xp, xm = x.copy(), x.copy()
            xp[d] += hg
            xm[d] -= hg
            fd_g = (obj.value(xp) - obj.value(xm)) / (2.0 * hg)
            # Richardson extrapolation cancels the h^2 f^(4) / 12 error
            # term, which otherwise exceeds the tolerance at large |x_d|
            fd_h = (4.0 * _second_difference(obj, x, fx, d, 0.5 * hh)
                    - _second_difference(obj, x, fx, d, hh)) / 3.0
            if not all(np.isfinite(v) for v in (sym_g, sym_h, fd_g, fd_h)):
                continue
            worst_g = max(worst_g, abs(sym_g - fd_g) / max(1.0, abs(sym_g)))
            worst_h = max(worst_h, abs(sym_h - fd_h) / max(1.0, abs(sym_h)))
    print(f"gradient max rel err = {worst_g:.3e}")
    print(f"hessian diagonal max rel err = {worst_h:.3e}")
    ok = worst_g < 1e-5 and worst_h < 1e-4
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
