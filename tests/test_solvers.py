import collections
import math

import numpy as np
import pytest

import inspect

from pwsint import (
    RegionSide,
    SolveStats,
    bracketed_root,
    elliptic_system,
    fixed_point,
    harmonic_system,
    implicit_midpoint_dvf,
    newton,
    quadratic_root_bound,
    resolve_scheme,
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
        # A non-normal contraction in three dimensions: J maps e1 to
        # 1.2 e2, e2 to 1.2 e3 and e3 to 0.5 e1, spectral radius 0.72^(1/3),
        # about 0.90.  Its update ratios cycle through 1.2, 1.2 and 0.5:
        # the first two are at least one, so it is never mixed, and no five
        # in a row are, so the divergence monitor never fires.  After 25
        # updates the update is still 0.72^8, about 0.07: the budget ends it.
        J = np.array([[0.0, 0.0, 0.5], [1.2, 0.0, 0.0], [0.0, 1.2, 0.0]])
        b = np.array([1.0, 0.0, 0.0])
        updates = []

        def map_(x):
            updates.append(x)
            return J @ x + b

        with pytest.raises(NoConvergence):
            fixed_point(map_, np.zeros(3))
        assert len(updates) == solvers.FP_MAX_ITER
        # Each iterate is the image before it: no update was mixed.
        assert all(np.array_equal(x, J @ y + b) for y, x in zip(updates, updates[1:]))

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

    def test_overflowing_update_diverges(self):
        # The update norm overflows to inf, and so would the tolerance it
        # is tested against: accepting it would return [1e200, 1e200].
        with np.errstate(over="ignore"), pytest.raises(DivergingFixedPoint,
                                                       match="overflows at iteration 1"):
            fixed_point(lambda x: 1e200 * x, np.array([1.0, 1.0]))

    def test_tolerance_of_a_huge_iterate_does_not_overflow(self):
        # |x| near 2e160: its square overflows, and a tolerance scaled by
        # an overflowed |x| would accept the first update, 2.5e-11 off.
        x, stats = fixed_point(lambda x: 0.5 * x + 1e160, np.array([2e160 - 1e150]))
        assert stats.iterations > 1
        assert abs(x[0] - 2e160) <= 1e-15 * 2e160

    def test_nan_map_does_not_converge(self):
        # A nan update passes no test: not the stop test, and not the
        # contraction monitor either, so the cap is what ends it.
        with pytest.raises(NoConvergence):
            fixed_point(lambda x: np.full(2, np.nan), np.array([1.0, 1.0]))


def plain_fixed_point(map_, x, max_iter=200):
    """x <- map(x) until the update passes fixed_point's stop test.

    The reference the accelerated solve is held to: returns the map
    image whose update passed, the number of updates, the ratio of the
    first two update norms (0.0 for a one-update solve), and whether
    mixing would pay after some update: one from the third on, of a map
    whose first two updates contract, or else its second and third, with
    r^2 times the update above the tolerance, r the ratio of its norm to
    the one before.  Norms are taken as the solver takes them: an
    update's by ``math.sqrt`` of the Python sum of its squares, and the
    image's by ``math.hypot``.
    """
    deltas = []
    pays = False
    for it in range(1, max_iter + 1):
        g = np.asarray(map_(x), dtype=float)
        f = (g - x).tolist()
        delta = math.sqrt(sum(v * v for v in f))
        deltas.append(delta)
        tol = solvers.FP_TOL * (1.0 + math.hypot(*g.tolist()))
        if delta <= solvers.FP_TOL or delta <= tol:
            return g, it, deltas[1] / deltas[0] if it > 1 else 0.0, pays
        if it >= 3 and (deltas[1] < deltas[0] or deltas[2] < deltas[1]):
            pays = pays or (delta / deltas[-2]) ** 2 * delta > tol
        x = g
    raise AssertionError("the plain iteration did not converge")


def midpoint_step_map(dvf, t_a, x_a, tau):
    """The step map of an implicit field over tau, as the engine builds
    it, and its Euler-predictor start."""
    evaluate = dvf.evaluate
    h = np.array(tau)

    def step_map(x):
        return x_a + h * evaluate(t_a, x_a, t_a + tau, x)

    return step_map, step_map(x_a)


def pendulum(w2):
    return implicit_midpoint_dvf(lambda t, x: np.array([x[1], -w2 * math.sin(x[0])]))


def random_step_maps(field_name, n, tau_range, seed):
    """n seeded (step map, Euler start) pairs of the generic midpoint
    field of a nonlinear field: the elliptic field's minus region, or a
    pendulum xdot = y, ydot = -w2 sin x with a random w2."""
    rng = np.random.default_rng(seed)
    elliptic = resolve_scheme("dmm-midpoint", elliptic_system(), RegionSide.MINUS)
    for _ in range(n):
        tau = float(rng.uniform(*tau_range))
        if field_name == "elliptic":
            dvf, x_a = elliptic, rng.uniform(-1.5, 1.5, size=2)
        else:
            dvf = pendulum(float(rng.uniform(0.5, 4.0)))
            x_a = np.array([rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)])
        yield midpoint_step_map(dvf, float(rng.uniform(0.0, 10.0)), x_a, tau)


class TestAndersonAcceleration:
    """fixed_point mixes the updates of a contracting map, and only when it pays."""

    @pytest.mark.parametrize("omega2", [1.0, 4.0])
    @pytest.mark.parametrize("tau", [0.05, 0.1])
    @pytest.mark.parametrize("x0", [[1.0, 1.0], [0.3, -2.0], [-1.5, 0.7]])
    def test_oscillator_step_within_four_updates(self, omega2, tau, x0):
        # The midpoint step map of a linear field is affine: three
        # updates give two difference pairs, whose mix is its fixed point.
        x0 = np.array(x0)
        oscillator = implicit_midpoint_dvf(lambda t, x: np.array([x[1], -omega2 * x[0]]))
        step_map, start = midpoint_step_map(oscillator, 0.0, x0, tau)
        x, stats = fixed_point(step_map, start)
        assert stats.iterations <= 4
        np.testing.assert_allclose(x, midpoint_harmonic_step(omega2, x0, tau),
                                   rtol=0, atol=1e-14)
        _, plain_iterations, ratio, _ = plain_fixed_point(step_map, start)
        assert plain_iterations >= 6
        # The first two updates are plain: their ratio is the estimate.
        assert stats.contraction_estimate == ratio

    def test_expansive_affine_map_still_diverges(self):
        # 1.5 times a rotation: plain updates grow by 1.5 each.  Mixing
        # the first three would land on the fixed point, but a map whose
        # first two updates do not contract is never mixed.
        c, s = math.cos(1.0), math.sin(1.0)
        A = 1.5 * np.array([[c, -s], [s, c]])
        b = np.array([1.0, -0.5])

        def map_(x):
            return A @ x + b

        fixed = np.linalg.solve(np.eye(2) - A, b)
        xs = [np.array([0.2, 0.3])]
        for _ in range(3):
            xs.append(map_(xs[-1]))
        g, f = np.array(xs[1:]), np.diff(xs, axis=0)
        gamma = np.linalg.lstsq(np.diff(f, axis=0).T, f[-1], rcond=None)[0]
        np.testing.assert_allclose(g[-1] - np.diff(g, axis=0).T @ gamma, fixed,
                                   rtol=0, atol=1e-12)
        with pytest.raises(DivergingFixedPoint):
            fixed_point(map_, xs[0])

    def test_a_non_normal_contraction_is_mixed_on_its_second_ratio(self):
        # J^2 = -0.9 I, so J contracts (spectral radius 0.95), but it
        # stretches the first update, (1, 1), by 1.45.  The second ratio,
        # below one, decides instead: the mix of the first three updates
        # is the fixed point of the affine map.  Plain updates shrink by
        # 0.9 every two and would run out of the budget.
        J = np.array([[0.0, 2.0], [-0.45, 0.0]])
        x, stats = fixed_point(lambda x: J @ x + 1.0, np.zeros(2))
        fixed = np.linalg.solve(np.eye(2) - J, np.ones(2))
        assert stats.iterations == 4 and stats.contraction_estimate > 1.0
        np.testing.assert_allclose(x, fixed, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("field_name", ["elliptic", "pendulum"])
    def test_nonlinear_step_maps_match_the_plain_iteration(self, field_name):
        iterations, plain_iterations = [], []
        for step_map, start in random_step_maps(field_name, 500, (0.01, 0.1), seed=11):
            x, stats = fixed_point(step_map, start)
            x_plain, n_plain, _, _ = plain_fixed_point(step_map, start)
            scale = 1.0 + np.linalg.norm(x)
            assert np.linalg.norm(x - x_plain) <= 1e-14 * scale
            assert np.linalg.norm(step_map(x) - x) <= solvers.FP_TOL * scale
            iterations.append(stats.iterations)
            plain_iterations.append(n_plain)
        assert sum(iterations) < sum(plain_iterations)

    @pytest.mark.parametrize("field_name", ["elliptic", "pendulum"])
    def test_solves_where_mixing_never_pays_take_the_plain_iterates(self, field_name):
        # Such a solve, every one that stops within three updates among
        # them, returns the same bits after the same updates.  The starts
        # lie 1e-13 to 1e-4 off the solution, as warm starts do.
        rng = np.random.default_rng(13)
        by_updates = collections.Counter()
        for step_map, start in random_step_maps(field_name, 300, (0.01, 0.1), seed=12):
            solution = plain_fixed_point(step_map, start)[0]
            start = solution + rng.normal(size=2) * 10.0 ** rng.uniform(-13.0, -4.0)
            x_plain, n_plain, ratio, pays = plain_fixed_point(step_map, start)
            if pays:
                continue
            by_updates[n_plain] += 1
            x, stats = fixed_point(step_map, start)
            assert x.tobytes() == x_plain.tobytes()
            assert (stats.iterations, stats.contraction_estimate) == (n_plain, ratio)
        assert by_updates[3] >= 40 and by_updates[4] + by_updates[5] >= 20

    def test_a_mix_whose_update_grows_ends_the_mixing(self):
        # Affine with its fixed point at -0.2 for x >= 0, where the first
        # three updates run, and 0.1 x below: the mix lands on -0.2,
        # whose update grows from 0.15 to 0.18.  Every later iterate is
        # the map image before it, down to the fixed point 0.
        calls = []

        def map_(x):
            g = 0.5 * x - 0.1 if x[0] >= 0.0 else 0.1 * x
            calls.append((x, g))
            return g

        x, stats = fixed_point(map_, np.array([1.0]))
        assert abs(x[0]) <= solvers.FP_TOL
        assert stats.contraction_estimate == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose([x[0] for x, _ in calls[:4]], [1.0, 0.4, 0.1, -0.2],
                                   rtol=0, atol=1e-15)
        for (_, g), (x, _) in zip(calls[3:], calls[4:]):
            assert x is g


def oscillator_step(omega2, x_a, tau):
    """The oscillator's midpoint step map from x_a and its Euler start."""
    oscillator = implicit_midpoint_dvf(lambda t, x: np.array([x[1], -omega2 * x[0]]))
    return midpoint_step_map(oscillator, 0.0, np.array(x_a), tau)


class TestCarriedPairs:
    """Difference pairs carried from one solve to the next of the same slope."""

    @pytest.mark.parametrize("omega2", [1.0, 4.0])
    @pytest.mark.parametrize("x_a", [[1.0, 1.0], [0.3, -2.0], [-1.5, 0.7]])
    def test_pairs_of_the_same_slope_stop_the_solve_at_the_second_update(self, omega2, x_a):
        # Every step map of a linear field by one tau has the same
        # affine slope; the pairs of a solve from elsewhere hold it.
        memory = []
        fixed_point(*oscillator_step(omega2, [0.8, -0.4], 0.1), memory=memory)
        assert len(memory) == 2
        step_map, start = oscillator_step(omega2, x_a, 0.1)
        x_plain, plain = fixed_point(step_map, start)
        x, stats = fixed_point(step_map, start, memory=memory)
        assert plain.iterations >= 4 and stats.iterations == 2
        assert np.linalg.norm(x - x_plain) <= 1e-14 * (1.0 + np.linalg.norm(x))
        np.testing.assert_allclose(x, midpoint_harmonic_step(omega2, x_a, 0.1),
                                   rtol=0, atol=1e-14)
        # It reports the ratio it gated on, |dg| / |dx| of the newest
        # carried pair: |M v| / |v| for M = (h/2) [[0, 1], [-omega^2, 0]],
        # between h/2 and h omega^2 / 2.
        bounds = sorted([0.05, 0.05 * omega2])
        assert bounds[0] * (1 - 1e-9) <= stats.contraction_estimate <= bounds[1] * (1 + 1e-9)

    @pytest.mark.parametrize("omega2, other", [(1.0, 4.0), (4.0, 1.0)])
    @pytest.mark.parametrize("x_a", [[1.0, 1.0], [0.3, -2.0], [-1.5, 0.7]])
    def test_pairs_of_another_slope_cost_no_more_updates(self, omega2, other, x_a):
        memory = []
        fixed_point(*oscillator_step(other, [0.8, -0.4], 0.1), memory=memory)
        step_map, start = oscillator_step(omega2, x_a, 0.1)
        _, plain = fixed_point(step_map, start)
        x, stats = fixed_point(step_map, start, memory=memory)
        assert stats.iterations <= plain.iterations
        np.testing.assert_allclose(x, midpoint_harmonic_step(omega2, x_a, 0.1),
                                   rtol=0, atol=1e-14)

    def test_the_list_never_holds_more_than_two_pairs(self):
        rng = np.random.default_rng(5)
        memory = []
        for _ in range(40):
            omega2 = float(rng.choice([1.0, 4.0]))
            step_map, start = oscillator_step(omega2, rng.uniform(-2.0, 2.0, size=2), 0.1)
            fixed_point(step_map, start + rng.normal(size=2) * 10.0 ** rng.uniform(-8, -1),
                        memory=memory)
            assert len(memory) <= 2
            assert all(len(dg) == len(df) == 2 and all(type(v) is float for v in dg + df)
                       for dg, df in memory)

    def test_a_solve_of_one_update_leaves_the_list_as_it_was(self):
        step_map, start = oscillator_step(1.0, [1.0, 1.0], 0.1)
        memory = []
        x, _ = fixed_point(step_map, start, memory=memory)
        before = [(list(dg), list(df)) for dg, df in memory]
        pairs = list(memory)
        _, stats = fixed_point(step_map, x, memory=memory)
        assert stats.iterations == 1
        assert memory == before and all(a is b for a, b in zip(memory, pairs))

    def test_one_dimensional_affine_map_takes_the_secant_step(self):
        # Two pairs in one dimension are collinear: the newest alone
        # gives the secant step, exact for an affine map.
        memory = []
        fixed_point(lambda x: 0.5 * x + 3.0, np.array([0.0]), memory=memory)
        assert len(memory) == 2
        x, stats = fixed_point(lambda x: 0.5 * x + 1.0, np.array([0.0]), memory=memory)
        assert stats.iterations == 2 and stats.contraction_estimate == 0.5
        assert abs(x[0] - 2.0) <= solvers.FP_TOL * 3.0

    def test_three_dimensional_affine_map_converges(self):
        # Two pairs cannot hold a slope in three dimensions: the carried
        # mix pays or not, and the solve converges either way.
        rng = np.random.default_rng(7)
        A = 0.3 * rng.uniform(-1.0, 1.0, size=(3, 3))
        memory = []
        for b in rng.normal(size=(4, 3)):
            x, stats = fixed_point(lambda x: A @ x + b, np.zeros(3), memory=memory)
            fixed = np.linalg.solve(np.eye(3) - A, b)
            assert np.linalg.norm(x - fixed) <= 1e-13 * (1.0 + np.linalg.norm(fixed))
            assert len(memory) == 2

    def test_a_mix_that_does_not_pay_empties_the_list(self):
        # Pairs of slope 0.1 mixed into a map of slope 0.5: the mix's
        # update, 4/9, is not below 0.1 times the first, 1.  The solve
        # goes on plainly and hands on pairs of its own slope.
        memory = []
        fixed_point(lambda x: 0.1 * x + 1.0, np.array([0.0]), memory=memory)
        assert [dg[0] / (dg[0] - df[0]) for dg, df in memory] == pytest.approx([0.1, 0.1])
        x, stats = fixed_point(lambda x: 0.5 * x + 1.0, np.array([0.0]), memory=memory)
        assert abs(x[0] - 2.0) <= solvers.FP_TOL * 3.0
        assert stats.contraction_estimate == pytest.approx(0.1)
        assert [dg[0] / (dg[0] - df[0]) for dg, df in memory] == pytest.approx([0.5, 0.5])

    def test_expansive_map_still_diverges_with_pairs_of_a_contracting_one(self):
        memory = []
        fixed_point(*oscillator_step(1.0, [1.0, 1.0], 0.1), memory=memory)
        one_d = [([dg[0]], [df[0]]) for dg, df in memory]
        with pytest.raises(DivergingFixedPoint):
            fixed_point(lambda x: 2.0 * x + 1.0, np.array([0.0]), memory=one_d)


def list_only(map_):
    """``map_``, asserting that it is handed and returns lists of floats."""
    def checked(x):
        assert type(x) is list and all(type(v) is float for v in x), x
        g = map_(x)
        assert type(g) is list and all(type(v) is float for v in g), g
        return g
    return checked


def oscillator_leg_map(omega2, x_a, tau):
    """The catalog oscillator's float step map from x_a over tau, and its
    array twin, built from the same field's ``evaluate``."""
    sys_ = harmonic_system(omega2, omega2)
    dvf = resolve_scheme("dmm-midpoint", sys_, RegionSide.MINUS)
    return (dvf.evaluate.leg_map(0.0, x_a, tau, tau),
            midpoint_step_map(dvf, 0.0, np.array(x_a), tau)[0])


class TestFloatLists:
    """fixed_point iterates lists of Python floats, and an array start
    goes through the array adapter: one iteration, the same bits."""

    def test_a_plain_solve_stays_on_lists(self):
        x, stats = fixed_point(list_only(lambda x: [1e-9 * x[0] + 1.0, 1e-9 * x[1] - 1.0]),
                               [0.0, 0.0])
        assert type(x) is list and stats.iterations == 3
        assert x == [1.0 + 1e-9, -1.0 - 1e-9]

    @pytest.mark.parametrize("omega2", [1.0, 4.0])
    @pytest.mark.parametrize("x_a", [[1.0, 1.0], [0.3, -2.0], [-1.5, 0.7]])
    def test_a_mixed_coarse_oscillator_solve_stays_on_lists(self, omega2, x_a):
        step_map, array_map = oscillator_leg_map(omega2, x_a, 0.1)
        start = step_map(x_a)
        x, stats = fixed_point(list_only(step_map), start)
        assert type(x) is list and stats.iterations <= 4
        assert plain_fixed_point(array_map, np.array(start))[1] >= 6
        np.testing.assert_allclose(x, midpoint_harmonic_step(omega2, x_a, 0.1),
                                   rtol=0, atol=1e-14)
        # The array adapter takes the same iterates.
        x_array, stats_array = fixed_point(array_map, np.array(start))
        assert isinstance(x_array, np.ndarray)
        assert (x_array.tolist(), stats_array) == (x, stats)

    def test_carried_pairs_stay_on_lists(self):
        memory = []
        fixed_point(list_only(oscillator_leg_map(4.0, [0.8, -0.4], 0.1)[0]), [0.8, -0.4],
                    memory=memory)
        assert len(memory) == 2
        assert all(type(v) is float for dg, df in memory for v in dg + df)
        step_map, array_map = oscillator_leg_map(4.0, [0.3, -2.0], 0.1)
        start = step_map([0.3, -2.0])
        array_memory = [(list(dg), list(df)) for dg, df in memory]
        x, stats = fixed_point(list_only(step_map), start, memory=memory)
        assert type(x) is list and stats.iterations == 2
        np.testing.assert_allclose(x, midpoint_harmonic_step(4.0, [0.3, -2.0], 0.1),
                                   rtol=0, atol=1e-14)
        x_array, stats_array = fixed_point(array_map, np.array(start), memory=array_memory)
        assert (x_array.tolist(), stats_array, array_memory) == (x, stats, memory)

    def test_an_array_start_takes_the_array_adapter(self):
        def array_only(map_):
            def checked(x):
                assert isinstance(x, np.ndarray) and x.dtype == float, x
                return map_(x)
            return checked

        x, stats = fixed_point(array_only(lambda x: 0.5 * x + 1.0), np.array([0.0]))
        assert isinstance(x, np.ndarray) and abs(x[0] - 2.0) <= 1e-13
        with pytest.raises(DivergingFixedPoint):
            fixed_point(array_only(lambda x: 2.0 * x + 1.0), np.array([0.0]))


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

    def test_target_of_a_huge_start_does_not_overflow(self):
        # |x0| near 2e160: a target scaled by an overflowed |x0| would
        # accept the start, 5e-11 off, after 0 iterations.
        x, stats = newton(lambda x: x - (0.5 * x + 1e160), np.array([2e160 - 1e150]))
        assert stats.iterations > 0
        assert abs(x[0] - 2e160) <= 1e-15 * 2e160

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
