"""Benchmark problems, suite runner, and trace aggregation.

The three built-in families use the standard forms:

  ackley(x)       = -20 exp(-0.2 sqrt(mean(x^2))) - exp(mean(cos(2 pi x)))
                    + 20 + e                       on [-32.768, 32.768]^n
  levy(x)         = sin^2(pi w_1)
                    + sum_{i<n} (w_i - 1)^2 [1 + 10 sin^2(pi w_i + 1)]
                    + (w_n - 1)^2 [1 + sin^2(2 pi w_n)],
                    w_i = 1 + (x_i - 1)/4           on [-10, 10]^n
  michalewicz(x)  = -sum_i sin(x_i) sin(i x_i^2 / pi)^20   on [0, pi]^n

Ackley and Levy have known optimum 0 (at the origin and at all-ones);
the Michalewicz optimum has no closed form and is stored as absent.

Problems may also be loaded from expression files (``dims:`` /
``domain:`` header plus the formula) or from one-hidden-layer ReLU
network weight files in JSON.
"""

from __future__ import annotations

import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from . import expr as ex
from .interval import BoxDomain
from .tree import SearchConfig, optimize

__all__ = [
    "BenchmarkProblem",
    "AggregateCurve",
    "make_ackley",
    "make_levy",
    "make_michalewicz",
    "table_defaults",
    "aggregate_traces",
    "run_one",
    "run_suite",
    "write_trace_csv",
    "load_expression_file",
    "load_nn_weights",
    "nn_problem",
]

DEFAULT_NN_DOMAIN = (-1.0, 1.0)


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    dims: int
    box: BoxDomain
    expression: ex.Expression
    optimum_value: float | None = None
    optimizer: np.ndarray | None = None

    def __post_init__(self):
        if self.expression.dims != self.dims:
            raise ValueError(
                f"expression dims {self.expression.dims} != {self.dims}")
        if self.box.dims != self.dims:
            raise ValueError(f"box dims {self.box.dims} != {self.dims}")
        if self.optimum_value is not None and self.optimizer is not None:
            got = ex.evaluate(self.expression, self.optimizer)
            if abs(got - self.optimum_value) > 1e-9:
                raise ValueError(
                    f"stated optimum {self.optimum_value} but f(optimizer) "
                    f"= {got}")

    @property
    def label(self):
        return f"{self.name}-{self.dims}d"


def make_ackley(n):
    xs = [ex.var(i) for i in range(n)]
    inv_n = ex.const(1.0 / n)
    mean_sq = ex.mul(inv_n, ex.balanced_sum([ex.pow_int(x, 2) for x in xs]))
    radial = ex.mul(ex.const(-20.0),
                    ex.exp(ex.mul(ex.const(-0.2), ex.sqrt(mean_sq))))
    two_pi = ex.const(2.0 * math.pi)
    mean_cos = ex.mul(inv_n,
                      ex.balanced_sum([ex.cos(ex.mul(two_pi, x)) for x in xs]))
    f = ex.add(ex.sub(radial, ex.exp(mean_cos)), ex.const(20.0 + math.e))
    return BenchmarkProblem("ackley", n, BoxDomain.cube(-32.768, 32.768, n),
                            ex.with_dims(f, n), 0.0, np.zeros(n))


def make_levy(n):
    def w(i):
        return ex.add(ex.const(1.0),
                      ex.mul(ex.const(0.25),
                             ex.sub(ex.var(i), ex.const(1.0))))

    pi = ex.const(math.pi)
    terms = [ex.pow_int(ex.sin(ex.mul(pi, w(0))), 2)]
    for i in range(n - 1):
        wi = w(i)
        bump = ex.add(ex.const(1.0),
                      ex.mul(ex.const(10.0),
                             ex.pow_int(ex.sin(ex.add(ex.mul(pi, wi),
                                                      ex.const(1.0))), 2)))
        terms.append(ex.mul(ex.pow_int(ex.sub(wi, ex.const(1.0)), 2), bump))
    wn = w(n - 1)
    tail_bump = ex.add(ex.const(1.0),
                       ex.pow_int(ex.sin(ex.mul(ex.const(2.0 * math.pi), wn)),
                                  2))
    terms.append(ex.mul(ex.pow_int(ex.sub(wn, ex.const(1.0)), 2), tail_bump))
    f = ex.balanced_sum(terms)
    return BenchmarkProblem("levy", n, BoxDomain.cube(-10.0, 10.0, n),
                            ex.with_dims(f, n), 0.0, np.ones(n))


def make_michalewicz(n):
    terms = []
    for i in range(n):
        x = ex.var(i)
        arg = ex.mul(ex.const((i + 1) / math.pi), ex.pow_int(x, 2))
        terms.append(ex.mul(ex.sin(x),
                            ex.pow_int(ex.sin(arg), 20)))
    f = ex.neg(ex.balanced_sum(terms))
    return BenchmarkProblem("michalewicz", n, BoxDomain.cube(0.0, math.pi, n),
                            ex.with_dims(f, n))


_BUILTINS = {"ackley": make_ackley, "levy": make_levy,
             "michalewicz": make_michalewicz}


def make_builtin(name, dims):
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin function {name!r}; "
                         f"choose from {sorted(_BUILTINS)}") from None
    return factory(dims)


def table_defaults(name, dims, base=None):
    """``base`` (default ``SearchConfig()``) with per-problem defaults:
    only the shallow Michalewicz class (up to 50 dimensions) changes, to
    a local budget of 20.  The children per expansion follow the
    dimension through ``SearchConfig.resolve``."""
    cfg = base if base is not None else SearchConfig()
    if name == "michalewicz" and dims <= 50:
        return replace(cfg, local_opt_budget=20)
    return cfg


# ---------------------------------------------------------------------------
# aggregation

@dataclass
class AggregateCurve:
    steps: list
    mean: list
    std: list
    seed_count: int


def aggregate_traces(traces):
    """Mean/std (population) of best value per step across runs; a run
    shorter than the longest carries its final value forward."""
    if not traces:
        raise ValueError("no traces to aggregate")
    horizon = max(len(t) for t in traces)
    rows = []
    for t in traces:
        vals = [r.best_y for r in t]
        vals.extend([vals[-1]] * (horizon - len(vals)))
        rows.append(vals)
    arr = np.asarray(rows, dtype=float)
    # a step where no run has a finite value has mean inf and std NaN
    with np.errstate(invalid="ignore"):
        mean, std = arr.mean(axis=0), arr.std(axis=0)
    return AggregateCurve(steps=list(range(1, horizon + 1)),
                          mean=mean.tolist(), std=std.tolist(),
                          seed_count=len(traces))


# ---------------------------------------------------------------------------
# file formats

def write_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        fh.write("step,evals,wall_ms,best_y\n")
        for r in trace:
            fh.write(f"{r.step},{r.evaluations},{r.wall_ms!r},{r.best_y!r}\n")


def _write_json(path, payload):
    # a non-finite float would be written as Infinity or NaN, which is not
    # JSON: writers map those to None first, and this refuses any left over
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite_or_none(v):
    return float(v) if math.isfinite(v) else None


def _trace_path(out_dir, problem, seed):
    return Path(out_dir) / f"{problem.label}-seed{seed}.csv"


def run_one(problem, config, out_dir, objective=None):
    """Run one search on ``objective`` (default: the problem's
    expression) and write ``<label>-seed<k>.csv`` and
    ``<label>-seed<k>-summary.json`` into ``out_dir``, made first.
    Returns the ``SearchResult`` with ``root`` set to None, so a worker
    process sends back a flat object, not the whole tree."""
    path = _trace_path(out_dir, problem, config.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    result = optimize(objective or problem.expression, problem.box, config)
    write_trace_csv(path, result.trace)
    _write_json(path.with_name(f"{path.stem}-summary.json"), {
        "problem": problem.label,
        "dims": problem.dims,
        "seed": result.config.seed,
        "best_y": _finite_or_none(result.y),
        "best_x": [float(v) for v in result.x],
        "steps": result.steps,
        "evaluations": result.evaluations,
        "termination_reason": result.termination_reason,
        "elapsed_ms": result.elapsed_ms,
        "config": asdict(result.config),
        "stats": asdict(result.stats),
        "trace_csv": path.name,
    })
    return replace(result, root=None)


def run_suite(problems, config, seeds, out_dir, jobs=1):
    """Run every (problem, seed) pair with ``run_one`` and write one
    aggregate JSON per problem; returns {label: AggregateCurve}.  Seeds
    must be distinct, and each run's config is checked before the first
    run makes ``out_dir``.  With ``jobs`` > 1 the runs go to worker
    processes, else they share the problem's compiled kernels."""
    if not seeds:
        raise ValueError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct")
    curves = {}
    for problem in problems:
        resolved = config.resolve(problem.dims)
        configs = [replace(resolved, seed=s) for s in seeds]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(run_one, [problem] * len(configs),
                                        configs, [out_dir] * len(configs)))
        else:
            obj = ex.as_objective(problem.expression)
            results = [run_one(problem, c, out_dir, obj) for c in configs]
        curve = aggregate_traces([r.trace for r in results])
        _write_json(Path(out_dir) / f"{problem.label}-aggregate.json", {
            "name": problem.name,
            "dims": problem.dims,
            "seeds": list(seeds),
            "steps": curve.steps,
            "mean": [_finite_or_none(v) for v in curve.mean],
            "std": [_finite_or_none(v) for v in curve.std],
            "std_convention": "population",
            "config": asdict(resolved),
        })
        curves[problem.label] = curve
    return curves


# ---------------------------------------------------------------------------
# loading problems from files

_DOMAIN_ITEM = re.compile(r"\[\s*([^\s,\]]+)\s*,\s*([^\s\]]+)\s*\]")


def _parse_domain(text, dims):
    text = text.strip()
    rep = re.fullmatch(r"(\[[^\]]*\])\s*x\s*(\d+)", text)
    if rep:
        count = int(rep.group(2))
        if count != dims:
            raise ValueError(
                f"domain repeats {count} times but dims is {dims}")
        m = _DOMAIN_ITEM.fullmatch(rep.group(1).strip())
        if not m:
            raise ValueError(f"cannot parse domain interval {rep.group(1)!r}")
        lo, hi = float(m.group(1)), float(m.group(2))
        return BoxDomain.cube(lo, hi, dims)
    items = _DOMAIN_ITEM.findall(text)
    if len(items) != dims:
        raise ValueError(
            f"domain lists {len(items)} interval(s) but dims is {dims}")
    return BoxDomain([float(a) for a, _ in items],
                     [float(b) for _, b in items])


def load_expression_file(path):
    """Expression file: line 1 ``dims: <n>``, line 2 ``domain: [lo,hi] x n``
    (or a per-dimension interval list), remaining lines the formula."""
    raw = Path(path).read_text(encoding="utf-8")
    # '#' cannot occur in the grammar, so everything after one is comment
    lines = [ln.split("#", 1)[0] for ln in raw.splitlines()]
    body = [ln for ln in lines if ln.strip()]
    if len(body) < 3:
        raise ValueError(f"{path}: expected dims, domain and formula lines")
    m = re.fullmatch(r"dims:\s*(\d+)", body[0].strip())
    if not m:
        raise ValueError(f"{path}: first line must be 'dims: <n>'")
    dims = int(m.group(1))
    if dims < 1:
        raise ValueError(f"{path}: dims must be >= 1")
    if not body[1].strip().startswith("domain:"):
        raise ValueError(f"{path}: second line must start with 'domain:'")
    box = _parse_domain(body[1].strip()[len("domain:"):], dims)
    formula = "\n".join(body[2:])
    expression = ex.parse(formula, dims)
    return BenchmarkProblem(Path(path).stem, dims, box, expression)


def _read_nn(path):
    """The parsed weights JSON of ``path`` and its network."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: weights file must hold a JSON object")
    missing = {"n", "h", "W1", "b1", "w2", "b2"} - set(data)
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")
    try:
        weights = ex.ReluNetWeights(n=data["n"], h=data["h"], w1=data["W1"],
                                    b1=data["b1"], w2=data["w2"], b2=data["b2"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return data, weights


def load_nn_weights(path):
    """Weights JSON: {n, h, W1, b1, w2, b2}, optional "domain"."""
    return _read_nn(path)[1]


def _is_pair(v):
    return (isinstance(v, list) and len(v) == 2
            and all(isinstance(e, (int, float)) for e in v))


def nn_problem(path):
    data, weights = _read_nn(path)
    domain = data.get("domain", list(DEFAULT_NN_DOMAIN))
    if _is_pair(domain):
        box = BoxDomain.cube(domain[0], domain[1], weights.n)
    elif (isinstance(domain, list) and len(domain) == weights.n
          and all(map(_is_pair, domain))):
        box = BoxDomain([d[0] for d in domain], [d[1] for d in domain])
    else:
        raise ValueError(f"{path}: domain must be one [lo, hi] pair or "
                         f"{weights.n} pairs")
    expression = ex.relu_net_to_expression(weights)
    return BenchmarkProblem(Path(path).stem, weights.n, box, expression)
