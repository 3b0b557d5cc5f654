import math

import numpy as np
import pytest

import inspect

from pwsint import (
    SolveStats,
    bracketed_root,
    fixed_point,
    newton,
    quadratic_root_bound,
    solvers,
)
from pwsint.errors import (
    BracketError,
    DivergingFixedPoint,
    NoConvergence,
    NoRealSeparation,
    SingularJacobian,
)

from conftest import midpoint_harmonic_step


class TestSolveStats:
    def test_fields_in_order(self):
        assert list(inspect.signature(SolveStats).parameters) == [
            "iterations", "residual", "contraction_estimate", "method_used"]

    def test_keyword_construction_and_equality(self):
        stats = SolveStats(iterations=3, residual=1e-15, contraction_estimate=0.1,
                           method_used="fixed_point")
        assert stats == SolveStats(3, 1e-15, 0.1, "fixed_point")
        assert (stats.iterations, stats.residual, stats.contraction_estimate,
                stats.method_used) == (3, 1e-15, 0.1, "fixed_point")
        assert stats != SolveStats(4, 1e-15, 0.1, "fixed_point")
        assert stats != SolveStats(3, 1e-15, 0.1, "newton")

    def test_immutable(self):
        stats = SolveStats(1, 0.0, 0.0, "fixed_point")
        with pytest.raises(AttributeError):
            stats.iterations = 2


class TestFixedPoint:
    def test_affine_contraction(self):
        x, stats = fixed_point(lambda x: 0.5 * x + 1.0, np.array([0.0]))
        assert math.isclose(float(x[0]), 2.0, rel_tol=0, abs_tol=1e-13)
        assert stats.method_used == "fixed_point"
        assert 0.4 < stats.contraction_estimate < 0.6

    def test_expansive_map_flagged(self):
        with pytest.raises(DivergingFixedPoint):
            fixed_point(lambda x: 2.0 * x + 1.0, np.array([0.0]))

    def test_postcondition_residual(self):
        map_ = lambda x: np.array([0.5 * x[0] + 0.3, 0.2 * x[1] - 1.0])
        x, _ = fixed_point(map_, np.array([0.0, 0.0]))
        assert np.linalg.norm(map_(x) - x) <= solvers.FP_TOL * (1 + np.linalg.norm(x))

    def test_implicit_midpoint_step_map(self):
        # Step map of the oscillator (omega^2 = 1), tau = 0.1, from (1, 1);
        # oracle is the direct 2x2 linear solve.
        tau, x0 = 0.1, np.array([1.0, 1.0])
        expected = midpoint_harmonic_step(1.0, x0, tau)

        def step_map(x):
            mid = 0.5 * (x0 + x)
            return x0 + tau * np.array([mid[1], -mid[0]])

        x, _ = fixed_point(step_map, x0)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-14)
        np.testing.assert_allclose(x, [1.0947630922693268, 0.89526184538653364],
                                   rtol=0, atol=1e-12)

    def test_iteration_cap(self):
        with pytest.raises(NoConvergence):
            fixed_point(lambda x: 0.9999 * x + 1.0, np.array([0.0]), max_iter=3)

    def test_update_of_at_most_the_tolerance_accepts_at_once(self):
        x, stats = fixed_point(lambda x: np.array([solvers.FP_TOL]), np.array([0.0]))
        assert (x.tolist(), stats.iterations, stats.residual) == (
            [solvers.FP_TOL], 1, solvers.FP_TOL)

    def test_mixed_tolerance_scales_with_the_iterate(self):
        # At |x| = 1e3 an update of 5e-12 is above FP_TOL but below
        # FP_TOL * (1 + |x|), about 1e-11: accepted at once.  One of
        # 2e-11 is above both: iterated once more, to a zero update.
        x0 = np.array([1e3])
        x, stats = fixed_point(lambda x: x0 + 5e-12, x0)
        assert stats.iterations == 1
        assert solvers.FP_TOL < stats.residual <= solvers.FP_TOL * (1.0 + abs(x[0]))
        x, stats = fixed_point(lambda x: x0 + 2e-11, x0)
        assert (stats.iterations, stats.residual) == (2, 0.0)

    def test_nan_map_does_not_converge(self):
        # A nan update passes no test: not the stop test, and not the
        # contraction monitor either, so the cap is what ends it.
        with pytest.raises(NoConvergence):
            fixed_point(lambda x: np.full(2, np.nan), np.array([1.0, 1.0]))


class TestNewton:
    def test_sqrt2(self):
        x, stats = newton(lambda x: x * x - 2.0, np.array([1.0]))
        assert math.isclose(float(x[0]), math.sqrt(2.0), rel_tol=1e-12)
        assert stats.method_used == "newton"

    def test_degenerate_double_root_converges_slowly(self):
        # F = x^2 at the root x = 0 has a singular Jacobian in the limit;
        # Newton halves the iterate each time and needs many iterations.
        x, stats = newton(lambda x: x * x, np.array([1.0]))
        assert abs(float(x[0])) < 1e-6
        assert stats.iterations > 15

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobian):
            newton(lambda x: np.array([1.0]), np.array([0.0]))

    def test_2d_system(self):
        def F(z):
            return np.array([z[0] ** 2 + z[1] ** 2 - 4.0, z[0] - z[1]])
        x, _ = newton(F, np.array([1.0, 0.5]))
        np.testing.assert_allclose(x, [math.sqrt(2.0), math.sqrt(2.0)], rtol=1e-10)

    def test_agrees_with_fixed_point_on_midpoint_steps(self):
        # 100 random oscillator steps: both solvers must land on the same
        # point to within 10x the solve tolerance.
        rng = np.random.default_rng(42)
        for _ in range(100):
            x0 = rng.uniform(-2.0, 2.0, size=2)
            tau = float(rng.uniform(1e-3, 5e-2))
            w2 = float(rng.uniform(0.5, 4.0))

            def step_map(x):
                mid = 0.5 * (x0 + x)
                return x0 + tau * np.array([mid[1], -w2 * mid[0]])

            xf, _ = fixed_point(step_map, x0)
            xn, _ = newton(lambda x: x - step_map(x), x0)
            assert np.linalg.norm(xf - xn) <= 10.0 * solvers.FP_TOL * (
                1 + np.linalg.norm(xf))


class TestBracketedRoot:
    def test_linear(self):
        assert math.isclose(bracketed_root(lambda t: t - 0.5, 0.0, 1.0), 0.5,
                            abs_tol=1e-13)

    def test_harmonic_first_crossing_equation(self):
        # cos t - sin t = 0 on [0, 1] is exactly the first-crossing
        # equation y(t) = 0 of the oscillator started at (1, 1).
        root = bracketed_root(lambda t: math.cos(t) - math.sin(t), 0.0, 1.0)
        assert math.isclose(root, math.pi / 4.0, abs_tol=1e-13)

    def test_cube_root(self):
        root = bracketed_root(lambda t: t ** 3 - 2.0, 1.0, 2.0)
        assert math.isclose(root, 2.0 ** (1.0 / 3.0), abs_tol=1e-13)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            bracketed_root(lambda t: t + 1.0, 0.0, 1.0)

    def test_never_evaluates_outside_bracket_and_terminates(self):
        # Kinked, non-differentiable at the root: the safeguard must still
        # converge, evaluating only inside [a, b].
        seen = []

        def phi(t):
            seen.append(t)
            r = t - 0.123456789
            return math.copysign(abs(r) ** 0.3, r)

        root = bracketed_root(phi, -1.0, 1.0)
        assert math.isclose(root, 0.123456789, abs_tol=1e-12)
        assert len(seen) <= 200  # the iteration cap of bracketed_root
        assert all(-1.0 <= t <= 1.0 for t in seen)


class TestQuadraticRootBound:
    def test_zero_c(self):
        assert quadratic_root_bound(1.0, 1.0, 0.0) == 0.0

    def test_half(self):
        r = quadratic_root_bound(1.0, 2.0, 0.5)
        assert math.isclose(r, (2.0 - math.sqrt(2.0)) / 2.0, rel_tol=1e-14)
        assert r <= 0.25 / (1.0 - 0.25)

    def test_fifth(self):
        r = quadratic_root_bound(1.0, 1.0, 0.2)
        assert math.isclose(r, (1.0 - math.sqrt(0.2)) / 2.0, rel_tol=1e-14)
        assert r <= 0.2 / (1.0 - 0.4)

    def test_no_real_separation(self):
        with pytest.raises(NoRealSeparation):
            quadratic_root_bound(1.0, 1.0, 0.3)  # c >= b^2/(4a) = 0.25

    def test_random_inputs_satisfy_bound_and_residual(self):
        # 1000 random (a, b, c) with c < b^2/(4a): the returned root must
        # satisfy the quadratic to 1e-12 relative and the series bound.
        rng = np.random.default_rng(7)
        for _ in range(1000):
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(0.1, 10.0))
            c = float(rng.uniform(0.0, 0.999)) * b * b / (4.0 * a)
            r = quadratic_root_bound(a, b, c)
            residual = a * r * r - b * r + c
            scale = max(abs(a * r * r), abs(b * r), abs(c), 1e-300)
            assert abs(residual) <= 1e-12 * scale
            assert r <= (c / b) / (1.0 - 2.0 * a * c / (b * b)) * (1.0 + 1e-12)
