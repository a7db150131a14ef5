import hashlib
import struct

import numpy as np
import pytest

from treebound import BoxDomain, CompiledObjective, local_opt
from treebound import expr as ex
from treebound.bench import make_builtin

import golden
from helpers import random_expression


def _replay_problems():
    """(expression, box, budget) of the problems whose refinements
    ``test_reports_keep_their_bits`` replays."""
    for name, dims, budget in (("michalewicz", 10, 60), ("levy", 10, 60),
                               ("ackley", 100, 40)):
        problem = make_builtin(name, dims)
        yield problem.expression, problem.box, budget
    f, box, _ = golden._relu_net()
    yield f, box, 60


# SHA-256 of the replayed reports as the L-BFGS loop gave them with numpy
# scalars, before it took Python floats; like the golden traces, the bits
# rest on numpy's dot product (see tests/golden.py)
REPLAY_DIGEST = (
    "fd21775777eb11c275497bda2d2b2672c0a1f19a72f2215850d71c35e35d2cd4")


def _sum_of_squares(n):
    return ex.balanced_sum([ex.pow_int(ex.var(i), 2) for i in range(n)])


class TestLocalOpt:
    def test_strongly_convex_quadratic(self):
        n = 4
        f = _sum_of_squares(n)
        box = BoxDomain.cube(-1.0, 1.0, n)
        report = local_opt(f, np.full(n, 0.5), box, 50)
        assert report.y < 1e-10
        assert report.converged
        assert report.evaluations <= 51

    def test_zero_budget_is_identity(self):
        f = _sum_of_squares(2)
        box = BoxDomain.cube(-1.0, 1.0, 2)
        x0 = np.array([0.25, -0.5])
        report = local_opt(f, x0, box, 0)
        assert np.array_equal(report.x, x0)
        assert report.y == ex.evaluate(f, x0)
        assert report.evaluations <= 1

    def test_linear_objective_pins_to_face(self):
        f = ex.parse("x0", 1)
        box = BoxDomain([0.0], [1.0])
        report = local_opt(f, np.array([0.7]), box, 50)
        assert report.x[0] == 0.0
        assert report.y == 0.0

    def test_start_outside_box_rejected(self):
        f = _sum_of_squares(1)
        with pytest.raises(ValueError, match="outside"):
            local_opt(f, np.array([2.0]), BoxDomain([-1.0], [1.0]), 10)

    def test_negative_budget_rejected(self):
        f = _sum_of_squares(1)
        with pytest.raises(ValueError, match="budget must be >= 0"):
            local_opt(f, np.array([0.5]), BoxDomain([-1.0], [1.0]), -1)

    def test_monotone_feasible_and_within_budget(self):
        rng = np.random.default_rng(59)
        for _ in range(150):
            dims = int(rng.integers(1, 4))
            f = ex.with_dims(random_expression(rng, dims, 4), dims)
            center = rng.uniform(-2.0, 2.0, dims)
            half = rng.uniform(0.1, 1.5, dims)
            box = BoxDomain(center - half, center + half)
            x0 = box.clip(rng.uniform(box.lows, box.highs))
            budget = int(rng.integers(0, 40))
            obj = CompiledObjective(f)
            y0 = ex.evaluate(f, x0)
            report = local_opt(obj, x0, box, budget)
            assert report.evaluations <= budget + 1
            assert box.encloses(report.x)
            if np.isfinite(y0):
                assert report.y <= y0

    def test_counters_accumulate_on_shared_objective(self):
        f = _sum_of_squares(2)
        obj = CompiledObjective(f)
        box = BoxDomain.cube(-1.0, 1.0, 2)
        r1 = local_opt(obj, np.array([0.5, 0.5]), box, 20)
        base = obj.total_evaluations
        assert base == r1.evaluations
        r2 = local_opt(obj, np.array([-0.3, 0.9]), box, 20)
        assert obj.total_evaluations == base + r2.evaluations

    def test_nan_start_reports_without_crash(self):
        f = ex.parse("log(x0)", 1)
        box = BoxDomain([-2.0], [-1.0])
        report = local_opt(f, np.array([-1.5]), box, 10)
        assert np.isnan(report.y)
        assert not report.converged

    def test_non_finite_first_gradient_stops(self):
        # sqrt is finite at 0 but its derivative is not
        x0 = np.array([0.0])
        report = local_opt(ex.parse("sqrt(x0)", 1), x0, BoxDomain([0.0], [1.0]),
                           10)
        assert report.evaluations == 2
        assert not report.converged
        assert np.array_equal(report.x, x0)

    def test_reports_keep_their_bits(self):
        # 80 refinements from seeded starts over the whole domain, 3,781
        # evaluations: every report's x, y, count and flag, bit for bit
        digest = hashlib.sha256()
        for f, box, budget in _replay_problems():
            obj = CompiledObjective(f)
            rng = np.random.default_rng(f.dims)
            for _ in range(20):
                report = local_opt(obj, rng.uniform(box.lows, box.highs), box,
                                   budget)
                digest.update(report.x.tobytes())
                digest.update(struct.pack("<d?q", report.y, report.converged,
                                          report.evaluations))
        assert digest.hexdigest() == REPLAY_DIGEST
