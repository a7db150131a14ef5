import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treebound import (
    BoxDomain,
    Interval,
    eval_interval,
    log_volume,
    lower_bound,
    make_ackley,
    partition,
)
from treebound import expr as ex
from treebound.expr import _OPS, _Poison
from treebound.interval import LOWER_BOUND_CLAMP, compile_interval

from helpers import (
    edge_expressions,
    interval_bits,
    membership_counts,
    random_box,
    random_expression,
    reference_interval,
    within_enclosure,
)


def _slack(v):
    return 1e-12 * (1.0 + abs(v))


class TestInterval:
    def test_nan_becomes_poison(self):
        iv = Interval(math.nan, 1.0)
        assert iv.poison
        assert iv.lo == -math.inf and iv.hi == math.inf

    def test_out_of_order_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_contains(self):
        assert Interval(-1.0, 2.0).contains(0.0)
        assert not Interval(-1.0, 2.0).contains(3.0)


class TestEvalInterval:
    def test_even_power(self):
        iv = eval_interval(ex.parse("x0^2", 1), BoxDomain([-1.0], [2.0]))
        assert iv.lo == 0.0 and iv.hi == 4.0

    def test_sin_over_half_period(self):
        iv = eval_interval(ex.parse("sin(x0)", 1), BoxDomain([0.0], [math.pi]))
        assert abs(iv.lo) <= 1e-12
        assert abs(iv.hi - 1.0) <= 1e-12

    def test_cos_catches_interior_minimum(self):
        iv = eval_interval(ex.parse("cos(x0)", 1), BoxDomain([2.0], [4.0]))
        assert iv.lo == -1.0

    def test_division_spanning_zero_is_unbounded(self):
        iv = eval_interval(ex.parse("1 / x0", 1), BoxDomain([-1.0], [1.0]))
        assert iv.lo == -math.inf and iv.hi == math.inf
        assert not iv.poison

    def test_log_of_negative_box_poisons(self):
        iv = eval_interval(ex.parse("log(x0)", 1), BoxDomain([-2.0], [-1.0]))
        assert iv.poison

    def test_overflowed_difference_poisons(self):
        # exp overflows to [inf, inf] on both sides, and inf - inf is NaN
        f = ex.parse("exp(x0) - exp(x1)", 2)
        box = BoxDomain.cube(800.0, 900.0, 2)
        assert eval_interval(f, box).poison
        assert lower_bound(f, box) == -LOWER_BOUND_CLAMP

    def test_ackley_2d_encloses_grid(self):
        problem = make_ackley(2)
        f = problem.expression
        box = BoxDomain.cube(-1.0, 1.0, 2)
        iv = eval_interval(f, box)
        assert iv.lo <= 0.0 <= iv.hi
        axis = np.linspace(-1.0, 1.0, 101)
        grid_min = min(ex.evaluate(f, (a, b)) for a in axis for b in axis)
        assert iv.lo <= grid_min + _slack(grid_min)

    def test_dimension_mismatch(self):
        with pytest.raises(ex.DimensionMismatch):
            eval_interval(ex.parse("x0 + x1", 2), BoxDomain([0.0], [1.0]))


class TestLowerBound:
    def test_constant(self):
        assert lower_bound(ex.parse("5", 1), BoxDomain([-9.0], [9.0])) == 5.0

    def test_even_power(self):
        assert lower_bound(ex.parse("x0^2", 1), BoxDomain([-1.0], [2.0])) == 0.0

    def test_clamped_from_minus_infinity(self):
        lb = lower_bound(ex.parse("1 / x0", 1), BoxDomain([-1.0], [1.0]))
        assert lb == -LOWER_BOUND_CLAMP


class TestLogVolume:
    def test_unit_box(self):
        for n in (1, 3, 10):
            assert log_volume(BoxDomain.cube(0.0, 1.0, n)) == 0.0

    def test_compensating_widths(self):
        box = BoxDomain([0.0, 0.0], [2.0, 0.5])
        assert abs(log_volume(box)) < 1e-15

    def test_cube_of_ten(self):
        assert abs(log_volume(BoxDomain.cube(0.0, 10.0, 3))
                   - 3.0 * math.log(10.0)) < 1e-12

    def test_degenerate_width_stays_finite(self):
        box = BoxDomain([0.0, 0.0], [0.0, 1.0])
        assert math.isfinite(log_volume(box))

    def test_monotone_under_shrinking(self):
        box = BoxDomain.cube(-2.0, 2.0, 3)
        smaller = BoxDomain([-2.0, -2.0, -2.0], [2.0, 1.0, 2.0])
        assert log_volume(smaller) < log_volume(box)


class TestPartition:
    def test_single_piece_is_the_box(self):
        box = BoxDomain.cube(0.0, 1.0, 2)
        pieces = partition(box, 1)
        assert len(pieces) == 1
        assert pieces[0] == box

    def test_two_pieces_of_unit_square(self):
        rng = np.random.default_rng(3)
        box = BoxDomain.cube(0.0, 1.0, 2)
        pieces = partition(box, 2)
        assert len(pieces) == 2
        for piece in pieces:
            assert abs(log_volume(piece) - math.log(0.5)) < 1e-12
        points = rng.uniform(0.0, 1.0, size=(10_000, 2))
        assert np.all(membership_counts(pieces, points) == 1)

    @pytest.mark.parametrize("k", [3, 7, 16])
    def test_membership_and_volume(self, k):
        rng = np.random.default_rng(100 + k)
        box = random_box(rng, 3)
        pieces = partition(box, k)
        assert len(pieces) == k
        points = rng.uniform(box.lows, box.highs, size=(10_000, 3))
        assert np.all(membership_counts(pieces, points) == 1)
        total = sum(math.exp(log_volume(p)) for p in pieces)
        parent = math.exp(log_volume(box))
        assert abs(total - parent) <= 1e-9 * parent

    def test_no_pieces_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            partition(BoxDomain.cube(0.0, 1.0, 2), 0)

    def test_boundary_points_belong_to_exactly_one_piece(self):
        box = BoxDomain.cube(0.0, 1.0, 2)
        pieces = partition(box, 4)
        probes = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0],
                           [1.0, 1.0], [0.0, 0.0], [1.0, 0.5]])
        assert np.all(membership_counts(pieces, probes) == 1)


class TestSoundness:
    def test_fuzz_lower_and_upper(self):
        rng = np.random.default_rng(41)
        violations = 0
        for _ in range(1500):
            dims = int(rng.integers(1, 4))
            f = ex.with_dims(random_expression(rng, dims, 4, kinks=True), dims)
            box = random_box(rng, dims)
            iv = eval_interval(f, box)
            for _ in range(8):
                x = box.sample(rng)
                v = ex.evaluate(f, x)
                if math.isnan(v):
                    continue
                if not within_enclosure(v, iv):
                    violations += 1
        assert violations == 0

    def test_inclusion_isotonicity(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            dims = int(rng.integers(1, 4))
            f = ex.with_dims(random_expression(rng, dims, 4, kinks=True), dims)
            outer = random_box(rng, dims)
            mid = outer.lows + rng.uniform(0.1, 0.9, dims) * outer.widths
            half = 0.5 * rng.uniform(0.0, 1.0, dims) * outer.widths
            inner = BoxDomain(np.maximum(outer.lows, mid - half),
                              np.minimum(outer.highs, mid + half))
            big = eval_interval(f, outer)
            small = eval_interval(f, inner)
            # a poisoned enclosure means no real value exists over that box,
            # so there is nothing for the inclusion to say
            if big.poison or small.poison:
                continue
            if math.isfinite(big.lo):
                assert small.lo >= big.lo - _slack(big.lo)
            else:
                assert small.lo >= big.lo
            if math.isfinite(big.hi):
                assert small.hi <= big.hi + _slack(big.hi)
            else:
                assert small.hi <= big.hi


def _sub_boxes(rng, box, count):
    for _ in range(count):
        a = rng.uniform(box.lows, box.highs)
        b = rng.uniform(box.lows, box.highs)
        yield BoxDomain(np.minimum(a, b), np.maximum(a, b))


def _bits(compute):
    """``interval_bits`` of ``compute()``'s (lo, hi), or of the poisoned
    enclosure when it raises ``_Poison``."""
    try:
        return interval_bits(*compute(), False)
    except _Poison:
        return interval_bits(-math.inf, math.inf, True)


class TestCompiledKernel:
    """The compiled kernel against a plain walk over the same rules."""

    @staticmethod
    def _same(f, box):
        iv = eval_interval(f, box)
        return (interval_bits(iv.lo, iv.hi, iv.poison)
                == interval_bits(*reference_interval(f, box)))

    def test_fuzz_matches_reference_walk(self):
        rng = np.random.default_rng(47)
        poisoned = 0
        for _ in range(2000):
            dims = int(rng.integers(1, 4))
            f = ex.with_dims(random_expression(rng, dims, 5, kinks=True), dims)
            box = random_box(rng, dims)
            assert self._same(f, box)
            poisoned += eval_interval(f, box).poison
        assert poisoned > 0
        # zero-width and half-open sides at signed zeros, equal sides for
        # max/min ties, and log, sqrt and division on sides touching 0
        sides = [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (-1.0, -0.0),
                 (0.0, 2.0), (-1.0, 2.0)]
        for f in edge_expressions():
            for box in itertools.product(sides, repeat=3):
                lows, highs = zip(*box)
                assert self._same(f, BoxDomain(lows, highs))

    def test_inline_rules_at_edges_match_reference_walk(self):
        # the kernel's own result, not eval_interval's, which would turn
        # a NaN the kernel failed to poison into a poisoned enclosure
        def same(kernel, f, box):
            return (_bits(lambda: kernel(box.lows.tolist(),
                                         box.highs.tolist()))
                    == interval_bits(*reference_interval(f, box)))

        x0, x1 = ex.var(0), ex.var(1)
        tiny = 5e-324
        # a constant on either side with either sign; subnormal and tiny
        # constants and sides, where c*x underflows to -0.0, and huge ones,
        # where it overflows
        consts = [2.0, -3.0, 0.5, tiny, -tiny, 1e-300, -1e-300, 1e300,
                  -1e300]
        cases = []
        for c in map(ex.const, consts):
            cases += [ex.mul(c, x0), ex.mul(x0, c), ex.add(c, x0),
                      ex.add(x0, c), ex.sub(c, x0), ex.sub(x0, c),
                      ex.maximum(c, x0), ex.minimum(x0, c),
                      ex.mul(c, ex.mul(x0, x1)), ex.add(ex.mul(c, x0), x1)]
        ends = [-1e300, -1.0, -1e-300, -tiny, -0.0, 0.0, tiny, 1e-300, 1.0,
                1e300]
        sides = [(lo, hi) for lo in ends for hi in ends if lo <= hi]
        x1_sides = [(-1.0, 1.0), (-tiny, -0.0), (0.0, 1e-300), (1e300, 1e300)]
        for f in cases:
            f = ex.with_dims(f, 2)
            kernel = compile_interval(f)
            for (a, b), (c, d) in itertools.product(sides, x1_sides):
                assert same(kernel, f, BoxDomain([a, c], [b, d]))
        # exp(1000*x) overflows to [inf, inf]; inf - inf in an add or sub
        # must poison, also where a max or an infinite constant follows
        big0, big1 = (ex.exp(ex.mul(ex.const(1000.0), x)) for x in (x0, x1))
        overflow = [ex.sub(big0, big1), ex.add(big0, ex.neg(big1)),
                    ex.sub(x1, big0), ex.add(big0, x1),
                    ex.sub(ex.neg(big0), ex.neg(big1)),
                    ex.sub(ex.mul(ex.const(3.0), big0), ex.const(2.0)),
                    ex.maximum(ex.const(0.0), ex.sub(big0, big1)),
                    ex.add(ex.const(math.inf), ex.neg(big0)),
                    ex.sub(big1, ex.const(math.inf))]
        poisoned = 0
        for f in overflow:
            f = ex.with_dims(f, 2)
            kernel = compile_interval(f)
            for box in (BoxDomain([1.0, 1.0], [2.0, 2.0]),
                        BoxDomain([-1.0, 1.0], [2.0, 2.0]),
                        BoxDomain([1.0, -2.0], [2.0, 0.0])):
                assert same(kernel, f, box)
                poisoned += reference_interval(f, box)[2]
        assert poisoned >= 8

    def test_relu_net_matches_reference_walk(self):
        # the network of acceptance criterion 9: every hidden unit reuses
        # the same ten variables, so the kernel's CSE merges many nodes
        rng = np.random.default_rng(1009)
        weights = ex.ReluNetWeights(
            n=10, h=16, w1=rng.normal(size=(16, 10)), b1=rng.normal(size=16),
            w2=rng.normal(size=16), b2=float(rng.normal()))
        f = ex.relu_net_to_expression(weights)
        obj = ex.as_objective(f)
        box = BoxDomain.cube(-2.0, 2.0, 10)
        for sub in [box, *_sub_boxes(rng, box, 50)]:
            assert self._same(f, sub)
            assert eval_interval(obj, sub) == eval_interval(f, sub)

    def test_balanced_sum_of_repeated_terms_matches_reference_walk(self):
        # structurally equal terms built apart: one kernel temp each
        xs = [ex.var(i) for i in range(4)]
        terms = [ex.mul(ex.sin(xs[i % 4]), ex.pow_int(ex.sub(xs[i % 4],
                                                             ex.const(0.5)), 2))
                 for i in range(12)]
        f = ex.with_dims(ex.balanced_sum(terms), 4)
        rng = np.random.default_rng(53)
        for sub in _sub_boxes(rng, BoxDomain.cube(-3.0, 3.0, 4), 50):
            assert self._same(f, sub)

    def test_log_of_negative_box_poisons_through_kinks(self):
        f = ex.parse("max(abs(log(x0)), 1) + sqrt(abs(log(x0)) + x1^2)", 2)
        box = BoxDomain([-2.0, -1.0], [-1.0, 1.0])
        iv = eval_interval(f, box)
        assert iv.poison
        assert reference_interval(f, box)[2]
        assert lower_bound(f, box) == -LOWER_BOUND_CLAMP
        assert not eval_interval(f, BoxDomain([0.5, -1.0], [2.0, 1.0])).poison

    def test_objective_compiles_its_kernel_once_on_first_bound(self):
        f = ex.parse("x0 * x1 - cos(x1)", 2)
        obj = ex.as_objective(f)
        assert "interval_kernel" not in vars(obj)
        box = BoxDomain.cube(-1.0, 1.0, 2)
        assert lower_bound(obj, box) == lower_bound(f, box)
        kernel = obj.interval_kernel
        lower_bound(obj, BoxDomain.cube(0.0, 1.0, 2))
        assert obj.interval_kernel is kernel
        assert obj.total_evaluations == 0


# ordered endpoints: any two non-NaN doubles, lower first, with signed
# zeros, the smallest subnormals and infinities drawn often
_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf,
                                     -math.inf]),
                    st.floats(allow_nan=False))
_ENDS = st.lists(_FLOATS, min_size=2, max_size=2).map(sorted)


class TestInlineRules:
    """The kinds that the interval kernel computes inline, each as one
    node in a kernel, against its rule in ``_OPS``.  The nodes are built
    directly, so no constant folding replaces them."""

    @pytest.mark.parametrize("kind", ["add", "sub", "mul", "max", "min"])
    @settings(deadline=None, database=None, max_examples=300)
    @given(a=_ENDS, b=_ENDS, c=_FLOATS,
           side=st.sampled_from(["none", "left", "right"]))
    # ties between signed zeros, where c*x underflows to -0.0 next to a
    # 0.0 product, and between the operands of max and min
    @example(a=[-5e-324, 0.0], b=[-5e-324, 0.0], c=5e-324, side="left")
    @example(a=[0.0, 5e-324], b=[0.0, 1.0], c=-5e-324, side="right")
    @example(a=[0.0, 0.0], b=[-0.0, -0.0], c=1.0, side="none")
    def test_binary_kind_matches_its_rule(self, kind, a, b, c, side):
        x0, x1 = ex.var(0), ex.var(1)
        if side == "left":
            args, operands = (ex.const(c), x1), (c, c, *b)
        elif side == "right":
            args, operands = (x0, ex.const(c)), (*a, c, c)
        else:
            args, operands = (x0, x1), (*a, *b)
        kernel = compile_interval(ex.Expression(kind, args, dims=2))
        assert (_bits(lambda: kernel([a[0], b[0]], [a[1], b[1]]))
                == _bits(lambda: _OPS[kind].interval(*operands)))

    @settings(deadline=None, database=None, max_examples=300)
    @given(a=_ENDS)
    def test_neg_matches_its_rule(self, a):
        kernel = compile_interval(ex.Expression("neg", (ex.var(0),), dims=1))
        assert (_bits(lambda: kernel([a[0]], [a[1]]))
                == _bits(lambda: _OPS["neg"].interval(*a)))


class TestBoxDomain:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoxDomain([0.0], [math.inf])
        with pytest.raises(ValueError):
            BoxDomain([1.0], [0.0])
        with pytest.raises(ValueError):
            BoxDomain([], [])

    def test_split_builds_valid_read_only_boxes(self):
        # split skips the constructor's checks, so its pieces must be
        # boxes the constructor would accept as they are
        box = BoxDomain([0.0, -1.0], [2.0, 3.0])
        left, right = box.split(1)
        assert left.highs.tolist() == [2.0, 1.0]
        assert right.lows.tolist() == [0.0, 1.0]
        assert left.closed_hi.tolist() == [True, False]
        assert right.closed_hi.tolist() == [True, True]
        for piece in (left, right):
            assert piece == BoxDomain(piece.lows, piece.highs)
            for arr in (piece.lows, piece.highs, piece.closed_hi):
                assert not arr.flags.writeable
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="finite"):
            BoxDomain([1e308], [1.7e308]).split(0)

    def test_bound_too_large_for_a_float_is_not_finite(self):
        with pytest.raises(ValueError, match="box bounds must be finite"):
            BoxDomain([0.0], [10**400])
        with pytest.raises(ValueError, match="box bounds must be finite"):
            BoxDomain.cube(0, 10**400, 2)

    def test_clip_and_sample(self):
        box = BoxDomain.cube(-1.0, 1.0, 3)
        assert np.all(box.clip([5.0, -5.0, 0.5]) == [1.0, -1.0, 0.5])
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert box.encloses(box.sample(rng))

    def test_sample_matches_uniform_and_its_range_check(self):
        # sample draws what rng.uniform(lows, highs) draws, and fails as it
        # does on a box whose width overflows a double
        wide = BoxDomain([-8e307, 0.0, 2.0], [8e307, 1.0, 2.0])
        mine, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(20):
            x = wide.sample(mine)
            assert x.tobytes() == ref.uniform(wide.lows, wide.highs).tobytes()
            assert wide.encloses(x)
        too_wide = BoxDomain([-1e308, 0.0], [1e308, 1.0])
        with np.errstate(over="ignore"):
            with pytest.raises(OverflowError):
                ref.uniform(too_wide.lows, too_wide.highs)
            with pytest.raises(OverflowError):
                too_wide.sample(mine)
        assert mine.random() == ref.random()
