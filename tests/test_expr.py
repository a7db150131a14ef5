import ast
import copy
import functools
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treebound as tb
from treebound import bench, interval, localopt, tree
from treebound import expr as ex
from treebound import make_ackley, make_levy
from treebound.bench import make_builtin

import golden
from helpers import (
    central_diff,
    edge_expressions,
    identical_trees,
    random_expression,
    reference_derivative,
    second_central_diff,
    spy_on_codegen,
)


class TestParse:
    def test_basic_structure(self):
        f = ex.parse("x0^2 + sin(x1)", 2)
        assert f.kind == "add"
        left, right = f.args
        assert left.kind == "pow" and left.payload == 2
        assert left.args[0].kind == "var" and left.args[0].payload == 0
        assert right.kind == "sin"
        assert right.args[0].payload == 1

    def test_division_by_zero_is_not_a_parse_error(self):
        f = ex.parse("x0 / (x1 - x1)", 2)
        assert f.kind == "div"
        assert math.isnan(ex.evaluate(f, [1.0, 2.0]))

    def test_variable_out_of_range(self):
        with pytest.raises(ex.ParseError, match="x5 out of range"):
            ex.parse("x5", 2)

    def test_unknown_function(self):
        with pytest.raises(ex.ParseError, match="unknown function 'foo'"):
            ex.parse("foo(x0)", 1)

    def test_syntax_error_has_position(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse("x0 + ", 1)
        assert err.value.line == 1
        assert err.value.column == 6
        # columns restart after each newline; tabs and "\r" count as one
        for text, line, column in [("x0 +\n\t x1 $", 2, 6),
                                   ("x0 +\n", 2, 1),
                                   ("x0 *\r\n  (x1", 2, 6),
                                   ("sin(x0)\n\n  @", 3, 3)]:
            with pytest.raises(ex.ParseError) as err:
                ex.parse(text, 2)
            assert (err.value.line, err.value.column) == (line, column), text

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ex.ParseError, match="integer"):
            ex.parse("x0^2.5", 1)

    def test_wrong_arity(self):
        with pytest.raises(ex.ParseError, match="max expects 2"):
            ex.parse("max(x0)", 1)
        with pytest.raises(ex.ParseError, match="sin expects 1"):
            ex.parse("sin(x0, x1)", 2)

    def test_step_is_not_in_the_grammar(self):
        with pytest.raises(ex.ParseError, match="unknown function"):
            ex.parse("step(x0)", 1)

    def test_precedence_and_unary_minus(self):
        f = ex.parse("-x0^2 + 2*x1", 2)
        assert ex.evaluate(f, [3.0, 5.0]) == 1.0

    @pytest.mark.parametrize("src,dims", [
        ("x0^2 + sin(x1)", 2),
        ("-x0 * (x1 - 3.5) / max(x0, 2)", 2),
        ("exp(-0.5 * x0^2) + log(abs(x1) + 1)", 2),
        ("min(x0, x1) - sqrt(abs(x0 - x1))", 2),
        ("1e-3 * x0 + 2.5e2", 1),
        ("cos(x0)^4", 1),
    ])
    def test_unparse_round_trip(self, src, dims):
        first = ex.parse(src, dims)
        again = ex.parse(ex.unparse(first), dims)
        assert identical_trees(first, again)

    def test_unparse_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f = ex.with_dims(random_expression(rng, 3, 4, kinks=True), 3)
            again = ex.parse(ex.unparse(f), 3)
            assert identical_trees(f, again)


class TestEvaluate:
    def test_simple_product(self):
        f = ex.parse("x0*x1 + 2", 2)
        assert ex.evaluate(f, (3.0, 4.0)) == 14.0

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_ackley_origin(self, n):
        f = make_ackley(n).expression
        assert abs(ex.evaluate(f, np.zeros(n))) < 1e-12

    @pytest.mark.parametrize("n", [2, 7, 50])
    def test_levy_at_ones(self, n):
        f = make_levy(n).expression
        assert abs(ex.evaluate(f, np.ones(n))) < 1e-12

    def test_domain_errors_become_nan(self):
        assert math.isnan(ex.evaluate(ex.parse("log(x0)", 1), [-1.0]))
        assert math.isnan(ex.evaluate(ex.parse("sqrt(x0)", 1), [-4.0]))
        assert math.isnan(ex.evaluate(ex.parse("1 / x0", 1), [0.0]))
        assert math.isnan(ex.evaluate(ex.parse("x0^-1", 1), [0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            ex.evaluate(ex.parse("x0 + x1", 2), [1.0])

    def test_square_is_the_kernels_product(self):
        # libm's pow(x, 2.0) gives 1.9936741314761215 here, one ulp above
        # the correctly rounded x * x that the kernels compute
        x = -1.4119752588045307
        f = ex.parse("x0^2", 1)
        assert ex.evaluate(f, [x]) == x * x == ex.compile_function(f)([x])

    def test_never_raises_on_finite_input(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            f = ex.with_dims(random_expression(rng, 3, 5, kinks=True), 3)
            x = rng.uniform(-10, 10, size=3)
            v = ex.evaluate(f, x)
            assert isinstance(v, float)

    def test_compiled_matches_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(400):
            f = ex.with_dims(random_expression(rng, 3, 5, kinks=True), 3)
            fn = ex.compile_function(f)
            x = rng.uniform(-10, 10, size=3)
            ref = ex.evaluate(f, x)
            got = fn(x)
            assert (got == ref) or (math.isnan(got) and math.isnan(ref))


class TestDifferentiate:
    def test_square(self):
        g = ex.gradient(ex.parse("x0^2", 1))
        assert ex.unparse(g[0]) == "2.0 * x0"

    def test_product_of_sin(self):
        g = ex.gradient(ex.parse("sin(x0) * x1", 2))
        assert ex.unparse(g[0]) == "cos(x0) * x1"
        assert ex.unparse(g[1]) == "sin(x0)"

    def test_ackley_2d_against_central_difference(self):
        f = make_ackley(2).expression
        g = ex.gradient(f)
        x = np.array([0.5, -0.3])
        for d in range(2):
            sym = ex.evaluate(g[d], x)
            fd = central_diff(f, x, d, 1e-5)
            assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-6

    def test_cube_second_derivative(self):
        h = ex.hessian_diagonal(ex.parse("x0^3", 1))
        assert ex.evaluate(h[0], [2.0]) == 12.0
        assert ex.evaluate(h[0], [-1.5]) == -9.0

    def test_bilinear_has_zero_diagonal(self):
        h = ex.hessian_diagonal(ex.parse("x0 * x1", 2))
        for comp in h:
            assert comp.kind == "const" and comp.payload == 0.0

    def test_levy_3d_hessian_against_central_difference(self):
        f = make_levy(3).expression
        h = ex.hessian_diagonal(f)
        x = np.array([0.2, 0.7, -1.1])
        for d in range(3):
            sym = ex.evaluate(h[d], x)
            fd = second_central_diff(f, x, d, 1e-4 * (1.0 + abs(x[d])))
            assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-4

    def test_abs_kink_convention(self):
        g = ex.gradient(ex.parse("abs(x0)", 1))
        assert ex.evaluate(g[0], [0.0]) == 0.0
        assert ex.evaluate(g[0], [2.0]) == 1.0
        assert ex.evaluate(g[0], [-2.0]) == -1.0

    def test_max_tie_takes_first_branch(self):
        # both branches equal at 0; the first argument's slope (1) wins
        g = ex.gradient(ex.parse("max(x0, 2*x0)", 1))
        assert ex.evaluate(g[0], [0.0]) == 1.0

    def test_min_tie_takes_first_branch(self):
        g = ex.gradient(ex.parse("min(3*x0, x0)", 1))
        assert ex.evaluate(g[0], [0.0]) == 3.0

    def test_fuzz_against_finite_differences(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 300:
            f = ex.with_dims(random_expression(rng, 3, 4), 3)
            g = ex.gradient(f)
            x = rng.uniform(-2.0, 2.0, size=3)
            vals = [ex.evaluate(g[d], x) for d in range(3)]
            if not all(np.isfinite(v) and abs(v) < 1e6 for v in vals):
                continue
            if not all(abs(ex.evaluate(f, p)) < 1e4 and np.isfinite(ex.evaluate(f, p))
                       for p in (x,)):
                continue
            ok = True
            fds = []
            for d in range(3):
                h = 1e-6 * (1.0 + abs(x[d]))
                fd = central_diff(f, x, d, h)
                if not np.isfinite(fd):
                    ok = False
                    break
                fds.append(fd)
            if not ok:
                continue
            checked += 1
            for sym, fd in zip(vals, fds):
                assert abs(sym - fd) / max(1.0, abs(sym)) < 1e-5


def _assert_matches_reference(f, sources):
    """Every gradient and Hessian-diagonal component equals the dense
    reference walk's, constants bit for bit, and compiles to the same
    kernel source."""
    grad = ex.gradient(f)
    hess = ex.hessian_diagonal(f)
    want_g = [reference_derivative(f, d) for d in range(f.dims)]
    want_h = [reference_derivative(g, d) for d, g in enumerate(want_g)]
    assert len(grad) == len(hess) == f.dims
    for got, want in zip(grad + hess, want_g + want_h):
        assert identical_trees(got, want), ex.unparse(f)
    assert identical_trees(ex.differentiate(f, f.dims - 1), want_g[-1])
    for got, want in ((grad, want_g), (hess, want_h)):
        sources.clear()
        ex.compile_vector(got, f.dims)
        ex.compile_vector(want, f.dims)
        assert sources[0] == sources[1], ex.unparse(f)


def _with_constant(rng, c):
    """Random expression over x0..x2 with the constant ``c`` built in."""
    a = random_expression(rng, 3, 3, kinks=True)
    b = random_expression(rng, 3, 3, kinks=True)
    k = ex.const(c)
    shapes = [ex.add(ex.mul(k, a), b), ex.div(a, k), ex.div(k, a),
              ex.sub(ex.cos(ex.mul(k, a)), b), ex.maximum(a, ex.mul(b, k)),
              ex.pow_int(ex.sub(a, k), 2), ex.exp(ex.mul(k, ex.var(1))),
              ex.mul(ex.sin(ex.add(a, k)), ex.log(b))]
    return ex.with_dims(shapes[int(rng.integers(len(shapes)))], 3)


class TestSparseDifferentiation:
    """The sparse walk against the dense per-variable reference."""

    def test_fuzz_corpus(self, monkeypatch):
        sources = spy_on_codegen(monkeypatch)
        rng = np.random.default_rng(31)
        for kinks in (True, False):
            for _ in range(150):
                f = ex.with_dims(random_expression(rng, 3, 5, kinks), 3)
                _assert_matches_reference(f, sources)

    def test_nan_inf_and_zero_constants(self, monkeypatch):
        sources = spy_on_codegen(monkeypatch)
        rng = np.random.default_rng(37)
        for c in (math.nan, math.inf, -math.inf, 0.0, -0.0):
            for _ in range(30):
                _assert_matches_reference(_with_constant(rng, c), sources)

    def test_literal_zero_divisor_and_kinks(self, monkeypatch):
        sources = spy_on_codegen(monkeypatch)
        for text in ("x0 / 0", "sin(x1) / 0 + x0 * x2", "(x0 * x1) / (0 * x2)",
                     "abs(x0 - x1)", "max(x0, 2*x0) + min(3*x1, x1)",
                     "min(3*x0, x1) * abs(x1)", "max(abs(x0), min(x1, x2))",
                     "cos(x1) + 0 * x2", "cos(x1)"):
            _assert_matches_reference(ex.parse(text, 3), sources)

    def test_100d_builtins(self, monkeypatch):
        sources = spy_on_codegen(monkeypatch)
        for name in ("ackley", "levy", "michalewicz"):
            _assert_matches_reference(make_builtin(name, 100).expression,
                                      sources)

    def test_long_chain_is_iterative(self, monkeypatch):
        # affine steps over a nonlinear base, so both derivatives walk all
        # 50,000 levels but their kernels stay small enough to compile fast
        sources = spy_on_codegen(monkeypatch)
        x1 = ex.var(1)
        steps = [lambda e: ex.add(e, x1), lambda e: ex.mul(e, ex.const(0.5)),
                 lambda e: ex.sub(ex.const(2.0), e), ex.neg]
        e = ex.mul(ex.sin(ex.var(0)), ex.maximum(x1, ex.var(0)))
        for i in range(35_000):
            e = steps[i % 4](e)
        f = ex.with_dims(e, 2)
        assert len(ex._postorder([f])) >= 50_000
        _assert_matches_reference(f, sources)

    def test_absent_variable_keeps_negative_zero(self):
        # d cos(x1) / d x0 = -(sin(x1) * 0) folds to -0.0
        g = ex.gradient(ex.parse("cos(x1)", 2))
        assert math.copysign(1.0, g[0].payload) == -1.0
        fn = ex.compile_vector(g, 2)
        assert math.copysign(1.0, fn([0.3, 0.4])[0]) == -1.0

    def test_setup_grows_linearly_with_dimension(self, monkeypatch):
        # deterministic stand-in for timing: nodes built by gradient and
        # hessian_diagonal; the dense walk grows 4x per doubling of n
        built = {}
        init = ex.Expression.__init__

        def counting_init(self, *args, **kwargs):
            built[n] += 1
            init(self, *args, **kwargs)

        for n in (200, 400):
            f = make_builtin("ackley", n).expression
            built[n] = 0
            with monkeypatch.context() as m:
                m.setattr(ex.Expression, "__init__", counting_init)
                ex.gradient(f)
                ex.hessian_diagonal(f)
        assert built[400] / built[200] < 2.5


class TestCompileVectorFallback:
    def test_domain_error_evaluates_every_component(self):
        # math.log raises on -1, so the kernel falls back to the walk
        shared = ex.parse("log(x0) + x1", 2)
        comps = (shared, ex.mul(shared, ex.var(1)), ex.parse("x0 * x1", 2),
                 ex.parse("sqrt(x1)", 2))
        fn = ex.compile_vector(comps, 2)
        for x in ([-1.0, 2.0], [3.0, -4.0], [2.0, 5.0]):
            want = [ex.evaluate(c, x) for c in comps]
            got = fn(x)
            assert len(got) == len(comps)
            for g, w in zip(got, want):
                assert g == w or (math.isnan(g) and math.isnan(w))


def _bits(values):
    return [float(v).hex() for v in values]


# the point kernels convert their input once; every sequence of numbers
# must give the tree walk's value bit for bit
INPUT_FORMS = {
    "float64": lambda x: np.asarray(x, dtype=np.float64),
    "float32": lambda x: np.asarray(x, dtype=np.float32),
    "int_list": lambda x: [int(v) for v in np.floor(x)],
    "tuple": lambda x: tuple(float(v) for v in x),
}


# signed zeros, and ties wherever two coordinates are equal
EDGE_POINTS = list(itertools.product([0.0, -0.0, 1.0, -1.0], repeat=3))


class TestKernelInputs:
    @pytest.mark.parametrize("form", sorted(INPUT_FORMS))
    def test_kernels_match_walk_bit_for_bit(self, form):
        rng = np.random.default_rng(17)
        convert = INPUT_FORMS[form]
        cases = [(ex.with_dims(random_expression(rng, 3, 4, kinks=True), 3),
                  [rng.uniform(-5.0, 5.0, size=3)]) for _ in range(150)]
        cases += [(f, EDGE_POINTS) for f in edge_expressions()]
        for f, points in cases:
            comps = ex.gradient(f)
            value, grad = ex.compile_function(f), ex.compile_vector(comps, 3)
            for x in map(convert, points):
                assert _bits([value(x)]) == _bits([ex.evaluate(f, x)])
                assert _bits(grad(x)) == _bits(ex.evaluate(c, x)
                                               for c in comps)

    @pytest.mark.parametrize("form", sorted(INPUT_FORMS))
    def test_domain_error_falls_back_to_walk(self, form):
        # math.log and math.sqrt raise here, where the walk gives NaN
        f = ex.parse("log(x0) + sqrt(x1) * x2", 3)
        comps = (f, ex.parse("x0 * x2", 3))
        x = INPUT_FORMS[form]([-1.0, 4.0, 2.0])
        assert math.isnan(ex.compile_function(f)(x))
        got = ex.compile_vector(comps, 3)(x)
        assert _bits(got) == _bits(ex.evaluate(c, x) for c in comps)
        assert math.isnan(got[0]) and got[1] == -2.0

    @pytest.mark.parametrize("x", [[1.0, 2.0], [1, 2, 3, 4], np.ones((3, 1)),
                                   np.ones((1, 3)), 1.0])
    def test_wrong_shape_raises(self, x):
        f = ex.parse("x0 + x1 * x2", 3)
        with pytest.raises(ex.DimensionMismatch):
            ex.compile_function(f)(x)
        with pytest.raises(ex.DimensionMismatch):
            ex.compile_vector((f, ex.var(0)), 3)(x)


def _nesting(src):
    """Deepest bracket nesting of ``src``; CPython's tokenizer allows 200."""
    depth = deepest = 0
    for ch in src:
        if ch in "([{":
            depth += 1
            deepest = max(deepest, depth)
        elif ch in ")]}":
            depth -= 1
    return deepest


def _operations(src):
    """(BinOp, UnaryOp, Call) node counts of a kernel source."""
    kinds = [type(n) for n in ast.walk(ast.parse(src))]
    return tuple(kinds.count(t) for t in (ast.BinOp, ast.UnaryOp, ast.Call))


def _mixed_chain(depth):
    """``depth`` nested neg, sub and max nodes over x0 and x1."""
    x0, x1, two = ex.var(0), ex.var(1), ex.const(2.0)
    steps = [ex.neg, lambda e: ex.sub(e, x1), lambda e: ex.maximum(x0, e),
             lambda e: ex.sub(two, e)]
    e = ex.sin(x0)
    for i in range(depth):
        e = steps[i % 4](e)
    return ex.with_dims(e, 2)


def _long_sum(terms):
    """A parsed chain of ``terms`` terms joined by + and -."""
    atoms = ["x0", "x1", "0.5", "x2"]
    return ex.parse(atoms[0] + "".join(f" {'+-'[i % 2]} {atoms[i % 4]}"
                                       for i in range(1, terms)), 3)


# (BinOp, UnaryOp, Call) counts of the value, gradient and Hessian-diagonal
# kernels, as written with one line per node: folding moves text only
KERNEL_OPERATIONS = {
    "ackley-10d": [(44, 2, 13), (142, 31, 23), (284, 51, 23)],
    "levy-10d": [(119, 0, 11), (191, 0, 22), (295, 11, 22)],
    "michalewicz-10d": [(49, 1, 20), (120, 10, 40), (260, 30, 40)],
    "relu-10x16": [(352, 93, 16), (806, 257, 16), (0, 0, 0)],
}

# constants that the fold must carry through unchanged
_EDGE_CONSTANTS = [math.nan, math.inf, -math.inf, 0.0, -0.0]


class TestFold:
    """Point-kernel temporaries referenced once are folded into their one
    consumer; the kernels still match the tree walk bit for bit."""

    @pytest.mark.parametrize("build", [lambda: _long_sum(5_000),
                                       lambda: _mixed_chain(10_000)],
                             ids=["sum-5000", "mixed-10000"])
    def test_deep_chains_compile_and_match_walk(self, build, monkeypatch):
        f = build()
        sources = spy_on_codegen(monkeypatch)
        comps = ex.gradient(f)
        value, grad = ex.compile_function(f), ex.compile_vector(comps, f.dims)
        assert max(map(_nesting, sources)) < 200
        rng = np.random.default_rng(5)
        for x in [rng.uniform(-3.0, 3.0, size=f.dims) for _ in range(3)]:
            assert _bits([value(x)]) == _bits([ex.evaluate(f, x)])
            assert _bits(grad(x)) == _bits(ex.evaluate(c, x) for c in comps)

    @pytest.mark.parametrize("name", sorted(KERNEL_OPERATIONS))
    def test_no_operation_is_repeated(self, name, monkeypatch):
        f = golden.KERNEL_PROBLEMS[name]()
        sources = spy_on_codegen(monkeypatch)
        ex.compile_function(f)
        ex.compile_vector(ex.gradient(f), f.dims)
        ex.compile_vector(ex.hessian_diagonal(f), f.dims)
        assert list(map(_operations, sources)) == KERNEL_OPERATIONS[name]

    @pytest.mark.parametrize("name, limit", [("relu-10x16", 40),
                                             ("ackley-100d", 1_000)])
    def test_few_locals(self, name, limit):
        # deterministic stand-in for the kernels' speed: one float local
        # per node made the relu gradient 849 locals and the ackley-100d
        # Hessian diagonal 3,308
        f = golden.KERNEL_PROBLEMS[name]()
        grad = ex._codegen(ex.gradient(f), "_v")
        hess = ex._codegen(ex.hessian_diagonal(f), "_v")
        assert max(grad.__code__.co_nlocals,
                   hess.__code__.co_nlocals) < limit

    @settings(deadline=None, database=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1),
           constant=st.sampled_from(_EDGE_CONSTANTS),
           x=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                st.floats(-5.0, 5.0)),
                      min_size=3, max_size=3))
    def test_kernels_match_walk_with_edge_constants(self, seed, constant, x):
        f = _with_constant(np.random.default_rng(seed), constant)
        comps = ex.gradient(f)
        value, grad = ex.compile_function(f), ex.compile_vector(comps, 3)
        assert _bits([value(x)]) == _bits([ex.evaluate(f, x)])
        assert _bits(grad(x)) == _bits(ex.evaluate(c, x) for c in comps)


def _every_kind(n=100):
    """An n-d sum whose lane terms use every kind the point kernels
    compute on arrays, with constants that differ between lanes.  Lanes
    ``i % 10 == 0`` lack the last term, so two groups are read at a
    subset of their lanes through an index array."""
    terms = []
    for i in range(n):
        x = ex.var(i)
        u = ex.mul(ex.const(1.0 + i / n), x)
        v = ex.sub(ex.sin(u), ex.cos(x))
        w = ex.add(ex.sqrt(ex.add(x, ex.const(2.0))), ex.absolute(ex.neg(v)))
        q = ex.div(ex.pow_int(w, 2), ex.mul(x, ex.const(0.5 + i % 7)))
        terms.append(ex.add(q, ex.cos(u)) if i % 10 else q)
    return ex.with_dims(ex.balanced_sum(terms), n)


def _chain(x):
    """Nine operations over ``x`` that the kernels compute on arrays."""
    square = ex.pow_int(x, 2)
    ratio = ex.div(ex.sqrt(ex.add(square, ex.const(1.0))),
                   ex.add(square, ex.const(2.0)))
    return ex.mul(ex.sin(x), ex.add(ex.cos(x), ratio))


def _per_lane(n, term):
    """``term(x_i, i)`` for each of n lanes, as one 100-d kernel's roots."""
    return tuple(ex.with_dims(term(ex.var(i), i), n) for i in range(n))


LANE_PROBLEMS = {
    **{f"{name}-100d": (lambda name=name: make_builtin(name, 100).expression)
       for name in ("ackley", "levy", "michalewicz")},
    "every-kind-100d": _every_kind,
}


@functools.cache
def _lane_kernels(name):
    """(roots, compiled kernel) of the value, gradient and Hessian
    diagonal of ``LANE_PROBLEMS[name]``."""
    f = LANE_PROBLEMS[name]()
    out = []
    for roots in ((f,), ex.gradient(f), ex.hessian_diagonal(f)):
        out.append((roots, ex.compile_vector(roots, f.dims)))
    return out


# inputs where numpy sets a floating-point flag or a scalar operation
# raises: -5.0 takes sqrt of a negative, 0.0 divides by zero, 1e308
# overflows a square
_LANE_EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -5.0, 5e-324,
               1e308, -1e308, 1.0, -1.0]

# np.sin and np.cos must equal math.sin and math.cos here
_TRIG_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e-300, 1e-8, 0.5, math.pi, 1e22, -1e22, 2.0**53 + 1.0,
               1e300, 1e308, -1e308, 1.7976931348623157e308]


class TestLanes:
    """Wide groups of isomorphic per-dimension terms computed with one
    numpy operation each; every result equals the tree walk bit for bit."""

    @settings(deadline=None, database=None, max_examples=60)
    @given(name=st.sampled_from(sorted(LANE_PROBLEMS)),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 3.0, 30.0]),
           edges=st.lists(st.tuples(st.integers(0, 99),
                                    st.sampled_from(_LANE_EDGES)),
                          max_size=3))
    def test_kernels_match_walk_at_100d(self, name, seed, scale, edges):
        x = np.random.default_rng(seed).uniform(-scale, scale, 100)
        for i, v in edges:
            x[i] = v
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for roots, kernel in _lane_kernels(name):
                assert (_bits(kernel(x))
                        == _bits(ex._evaluate_all(roots, x.tolist())))

    @pytest.mark.parametrize("name", sorted(LANE_PROBLEMS))
    def test_ordinary_points_need_no_walk(self, name, monkeypatch):
        # a malformed array line (a broadcast of mismatched lanes) raises
        # ValueError, which the fallback would hide behind the walk's
        # correct result
        kernels = _lane_kernels(name)
        monkeypatch.setattr(ex, "_evaluate_all", None)
        rng = np.random.default_rng(43)
        for x in rng.uniform(0.1, 1.0, (3, 100)):
            for _, kernel in kernels:
                assert np.isfinite(kernel(x)).all()

    @pytest.mark.parametrize("name", sorted(LANE_PROBLEMS))
    def test_wide_kernels_use_arrays(self, name, monkeypatch):
        # Ackley's value kernel would unpack 200 of its 300 array lanes,
        # so it stays scalar; sums are never numpy reductions
        sources = spy_on_codegen(monkeypatch)
        f = LANE_PROBLEMS[name]()
        ex.compile_function(f)
        ex.compile_vector(ex.gradient(f), f.dims)
        ex.compile_vector(ex.hessian_diagonal(f), f.dims)
        arrays = ["(a):\n" in src for src in sources]
        assert arrays == [name != "ackley-100d", True, True]
        for src in sources:
            assert ".sum(" not in src and "np.add" not in src

    def test_lanes_read_alone_use_item(self, monkeypatch):
        # Levy's scalar code reads its first and last lanes of some
        # groups; one .item(p) each is cheaper than unpacking 100 lanes
        sources = spy_on_codegen(monkeypatch)
        f = LANE_PROBLEMS["levy-100d"]()
        ex.compile_vector(ex.gradient(f), f.dims)
        assert sources[0].count(".item(") == 4
        assert sources[0].count(".tolist()") == 1

    def test_ackley_100d_trig_call_sites(self, monkeypatch):
        # deterministic stand-in for the speed-up: the scalar kernels had
        # 100 sin and 100 cos call sites each
        sources = spy_on_codegen(monkeypatch)
        f = make_builtin("ackley", 100).expression
        ex.compile_vector(ex.gradient(f), 100)
        ex.compile_vector(ex.hessian_diagonal(f), 100)
        for src in sources:
            assert src.count("sin(") + src.count("cos(") <= 4, src

    @pytest.mark.parametrize("call, term", [
        ("exp(", lambda x, i: ex.exp(ex.mul(ex.const(0.5 + i), x))),
        ("log(", lambda x, i: ex.log(ex.add(x, ex.const(2.0 + i)))),
        ("**", lambda x, i: ex.pow_int(ex.sub(x, ex.const(0.5 * i)), 3)),
        ("**", lambda x, i: ex.pow_int(ex.sin(x), -2)),
    ], ids=["exp", "log", "cube", "inverse-square"])
    def test_exp_log_and_powers_stay_scalar(self, call, term, monkeypatch):
        # numpy's exp, log and power differ from math's in the last bit on
        # some inputs; their operands are arrays, the operations are not
        sources = spy_on_codegen(monkeypatch)
        roots = _per_lane(100, lambda x, i: ex.add(term(x, i), _chain(x)))
        kernel = ex.compile_vector(roots, 100)
        src = sources[0]
        assert "(a):\n" in src
        assert "np.exp" not in src and "np.log" not in src
        assert "np.power" not in src and "np.float_power" not in src
        assert src.count(call) == 100  # one per lane
        x = np.random.default_rng(3).uniform(-1.0, 1.0, 100)
        assert _bits(kernel(x)) == _bits(ex._evaluate_all(roots, x.tolist()))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_zero_divisor_falls_back_like_the_scalar_kernel(self, value):
        # (2 + i) x_i / (1 / (x0 * x1)) with every x_i infinite or NaN:
        # numpy's inf / 0 is inf and sets no flag, Python's float division
        # raises and the walk gives NaN
        s = ex.div(ex.const(1.0), ex.mul(ex.var(0), ex.var(1)))
        roots = _per_lane(100, lambda x, i: ex.div(
            ex.mul(ex.const(2.0 + i), x), s))
        kernel = ex.compile_vector(roots, 100)
        assert type(kernel(np.ones(100))) is np.ndarray
        x = np.full(100, value)
        x[:2] = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel(x)
        assert _bits(got) == _bits(ex._evaluate_all(roots, x.tolist()))
        assert all(math.isnan(v) for v in got)
        assert type(got) is np.ndarray  # the walk's result too

    def test_numpy_trig_matches_math(self):
        # the array kernels call np.sin and np.cos where the scalar ones
        # call math.sin and math.cos; a platform whose float64 numpy
        # trigonometry differs would silently change the searches
        rng = np.random.default_rng(41)
        x = np.concatenate([
            _TRIG_EDGES, np.negative(_TRIG_EDGES),
            rng.uniform(-10.0, 10.0, 20_000),
            np.ldexp(rng.uniform(0.5, 1.0, 20_000),
                     rng.integers(-1074, 1024, 20_000)),
            np.nextafter(np.pi * rng.integers(-10**6, 10**6, 2_000), 0.0)])
        values = x.tolist()
        for vector, scalar in ((np.sin, math.sin), (np.cos, math.cos)):
            want = [scalar(v) for v in values]
            got = vector(x).tolist()
            bad = [v for v, g, w in zip(values, got, want) if g != w]
            assert not bad, f"{vector.__name__} differs at {bad[:5]}"


class TestReluNet:
    def test_single_unit(self):
        w = ex.ReluNetWeights(n=1, h=1, w1=[[1.0]], b1=[0.0], w2=[1.0], b2=0.0)
        f = ex.relu_net_to_expression(w)
        assert f.kind == "max"
        assert ex.evaluate(f, [3.0]) == 3.0
        assert ex.evaluate(f, [-3.0]) == 0.0

    def test_absolute_value_net(self):
        w = ex.ReluNetWeights(n=1, h=2, w1=[[1.0], [-1.0]], b1=[0.0, 0.0],
                              w2=[1.0, 1.0], b2=0.0)
        f = ex.relu_net_to_expression(w)
        assert ex.evaluate(f, [-3.0]) == 3.0
        assert ex.evaluate(f, [2.5]) == 2.5

    def test_random_net_matches_forward_pass_exactly(self):
        rng = np.random.default_rng(23)
        w = ex.ReluNetWeights(n=2, h=4,
                              w1=rng.normal(size=(4, 2)),
                              b1=rng.normal(size=4),
                              w2=rng.normal(size=4),
                              b2=float(rng.normal()))
        f = ex.relu_net_to_expression(w)
        fn = ex.compile_function(f)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=2)
            assert fn(x) == w.forward(x)
            assert ex.evaluate(f, x) == w.forward(x)

    def test_hessian_diagonal_is_identically_zero(self):
        rng = np.random.default_rng(29)
        w = ex.ReluNetWeights(n=3, h=5,
                              w1=rng.normal(size=(5, 3)),
                              b1=rng.normal(size=5),
                              w2=rng.normal(size=5),
                              b2=0.0)
        h = ex.hessian_diagonal(ex.relu_net_to_expression(w))
        for comp in h:
            assert comp.kind == "const" and comp.payload == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="w1 must be"):
            ex.ReluNetWeights(n=2, h=2, w1=[[1.0, 2.0]], b1=[0.0, 0.0],
                              w2=[1.0, 1.0], b2=0.0)
        with pytest.raises(ValueError, match="non-finite"):
            ex.ReluNetWeights(n=1, h=1, w1=[[np.inf]], b1=[0.0], w2=[1.0],
                              b2=0.0)


class TestConstruction:
    def test_constant_folding(self):
        f = ex.add(ex.const(2.0), ex.const(3.0))
        assert f.kind == "const" and f.payload == 5.0
        assert ex.mul(ex.const(0.0), ex.var(0)).payload == 0.0
        assert ex.pow_int(ex.var(0), 1).kind == "var"

    def test_balanced_sum_depth(self):
        terms = [ex.var(i) for i in range(1000)]
        f = ex.balanced_sum(terms)
        assert ex.evaluate(f, np.ones(1000)) == 1000.0

    def test_with_dims_narrowing_rejected(self):
        f = ex.parse("x0 + x2", 3)
        with pytest.raises(ex.DimensionMismatch):
            ex.with_dims(f, 2)

    def test_unknown_kind_rejected_everywhere(self):
        # Expression accepts any kind; every consumer of the operator
        # table rejects one it lacks the same way
        f = ex.add(ex.Expression("frob", (ex.var(0),)), ex.var(1))
        box = tb.BoxDomain([0.0, 0.0], [1.0, 1.0])
        for use in (lambda: ex.evaluate(f, [0.5, 0.5]),
                    lambda: ex.differentiate(f, 0),
                    lambda: ex.compile_function(f),
                    lambda: tb.eval_interval(f, box)):
            with pytest.raises(ex.ExpressionError, match="unknown node kind"):
                use()

    def test_pickle_round_trip_is_flat(self):
        # 5,000 nested adds: a recursive pickler would pass the
        # recursion limit; sharing and declared dims survive
        x0 = ex.var(0)
        chain = x0
        for _ in range(4999):
            chain = ex.add(chain, x0)
        ackley = ex.with_dims(make_builtin("ackley", 100).expression, 100)
        for f in (ex.with_dims(chain, 2), ackley):
            for again in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
                assert identical_trees(f, again)
                assert again.dims == f.dims
                assert len(ex._postorder([again])) == len(ex._postorder([f]))
        assert len(ex._postorder([ackley])) == 612


def test_every_export_resolves():
    # a stale name in __all__ would break `from treebound import *`
    for module in (tb, ex, bench, interval, localopt, tree):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
