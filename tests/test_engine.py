import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import pwsint.engine as engine
from pwsint import (
    ConservedSet,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    conserved_error_series,
    elliptic_oracle,
    harmonic_oracle,
    integrate,
    locate_crossing,
    resolve_scheme,
    rk4_dvf,
    side_of,
    smooth_step,
    solvers,
)
from pwsint.engine import _solve_leg
from pwsint.errors import (
    EvaluationError,
    FiniteTimeBlowUp,
    InvalidInitialCondition,
    NoConvergence,
    NonTransversalCrossing,
    RunawaySwitching,
    StepTooLarge,
)

from conftest import midpoint_harmonic_step

SQRT2 = math.sqrt(2.0)
PI4 = math.pi / 4.0


def run_harmonic(harmonic, schemes, T, tau, **kw):
    return integrate(harmonic, schemes[0], schemes[1], [1.0, 1.0], 0.0, T, tau, **kw)


class TestSmoothStep:
    def test_midpoint_step_oracle(self, harmonic_dmm):
        x = smooth_step(harmonic_dmm[1], 0.0, np.array([1.0, 1.0]), 0.1)
        np.testing.assert_allclose(x, midpoint_harmonic_step(1.0, [1.0, 1.0], 0.1),
                                   rtol=0, atol=1e-14)

    def test_zero_length_step_explicit(self, harmonic_rk2):
        x0 = np.array([0.3, 0.7])
        np.testing.assert_array_equal(
            smooth_step(harmonic_rk2[1], 1.0, x0, 1.0), x0)

    def test_zero_length_step_implicit(self, harmonic_dmm):
        x0 = np.array([0.3, 0.7])
        np.testing.assert_array_equal(
            smooth_step(harmonic_dmm[1], 1.0, x0, 1.0), x0)

    def test_step_equation_residual(self, harmonic_dmm):
        dvf = harmonic_dmm[0]
        x0 = np.array([0.5, -1.0])
        x1 = smooth_step(dvf, 0.0, x0, 0.01)
        res = x1 - x0 - 0.01 * dvf.evaluate(0.0, x0, 0.01, x1)
        assert np.linalg.norm(res) <= 10.0 * solvers.FP_TOL * (1 + np.linalg.norm(x1))

    def test_elliptic_single_step_conserves(self, elliptic, elliptic_dmm):
        x0 = np.array([-1.0, -1.0])
        x1 = smooth_step(elliptic_dmm[1], 0.0, x0, 1e-3)
        psi0 = elliptic.conserved_plus.values(x0)
        psi1 = elliptic.conserved_plus.values(x1)
        assert np.max(np.abs(psi1 - psi0)) <= 1e-13


class TestLocateCrossing:
    def test_wide_step_lands_on_invariant_circle(self, harmonic, harmonic_dmm):
        # With one giant fractional step the in-step solution of the
        # midpoint field is the Cayley rotation by 2*atan(h/2), so the
        # crossing of y = 0 happens at exactly t = 2*tan(pi/8), and the
        # crossing point is pinned to {x^2 + y^2 = 2} & {y = 0}.
        ev = locate_crossing(harmonic_dmm[1], harmonic.surface, 0.0,
                             np.array([1.0, 1.0]), 0.83)
        assert math.isclose(ev.t_hat, 2.0 * math.tan(math.pi / 8.0), abs_tol=1e-12)
        np.testing.assert_allclose(ev.x_hat, [SQRT2, 0.0], rtol=0, atol=1e-12)
        assert abs(ev.residual_g) <= 1e-12

    def test_small_step_near_exact_time(self, harmonic, harmonic_dmm):
        # step [0.785, 0.786] straddles pi/4 at tau = 1e-3
        tau = 1e-3
        traj = run_harmonic(harmonic, harmonic_dmm, 0.785, tau)
        ev = locate_crossing(harmonic_dmm[1], harmonic.surface, 0.785,
                             traj.states[-1], tau)
        assert abs(ev.t_hat - PI4) <= 1e-5
        assert abs(ev.residual_g) <= 1e-12

    def test_level_set_identity(self, harmonic, harmonic_dmm):
        # Conservative localization keeps psi at its segment value, so the
        # crossing point agrees with the exact one.
        ev = locate_crossing(harmonic_dmm[1], harmonic.surface, 0.0,
                             np.array([1.0, 1.0]), 0.83)
        psi0 = harmonic.conserved_plus.values(np.array([1.0, 1.0]))
        psi_hat = harmonic.conserved_plus.values(ev.x_hat)
        assert np.max(np.abs(psi_hat - psi0)) <= 1e-12

    def test_elliptic_crossing_residual(self, elliptic, elliptic_dmm):
        traj = integrate(elliptic, elliptic_dmm[0], elliptic_dmm[1],
                         [-1.0, -1.0], 0.0, 1.2, 1e-3)
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert abs(ev.residual_g) <= 1e-12
        assert abs(np.linalg.norm(ev.x_hat) - 1.0) <= 1e-12  # on the unit circle

    def test_no_sign_change_is_caller_error(self, harmonic, harmonic_dmm):
        with pytest.raises(ValueError):
            locate_crossing(harmonic_dmm[1], harmonic.surface, 0.0,
                            np.array([1.0, 1.0]), 0.1)

    def test_each_in_step_time_solved_once(self, harmonic, monkeypatch):
        # An explicit leg evaluates its field once, with its target time,
        # so the recorded targets are the in-step times that were solved.
        dvf = resolve_scheme("rk4", harmonic, RegionSide.PLUS)
        targets = []

        def recording(t_a, x_a, t_b, x_b):
            targets.append(t_b)
            return dvf.evaluate(t_a, x_a, t_b, x_b)

        brent_evals = []
        root = engine.bracketed_root

        def counting_root(phi, a, b):
            def counted(t):
                brent_evals.append(t)
                return phi(t)
            return root(counted, a, b)

        monkeypatch.setattr(engine, "bracketed_root", counting_root)
        ev = locate_crossing(dataclasses.replace(dvf, evaluate=recording),
                             harmonic.surface, 0.0, np.array([1.0, 1.0]), 0.83)
        assert len(targets) == len(set(targets))
        # phi(t_b) on entry, then every evaluation of the bracket solve
        assert ev.stats_locate.iterations == 1 + len(brent_evals)


class TestIntegrate:
    def test_first_two_events(self, harmonic, harmonic_dmm):
        traj = run_harmonic(harmonic, harmonic_dmm, 3.0, 1e-3)
        assert len(traj.events) == 2
        e1, e2 = traj.events
        assert abs(e1.t_hat - PI4) <= 1e-5
        assert abs(e2.t_hat - (PI4 + math.pi / math.sqrt(3.0))) <= 1e-5
        np.testing.assert_allclose(e1.x_hat, [SQRT2, 0.0], rtol=0, atol=1e-8)
        np.testing.assert_allclose(e2.x_hat, [-SQRT2, 0.0], rtol=0, atol=1e-8)
        assert e1.side_from is RegionSide.PLUS and e1.side_to is RegionSide.MINUS
        assert e2.side_from is RegionSide.MINUS and e2.side_to is RegionSide.PLUS

    def test_smooth_run_has_no_events(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [0.1, 0.1], 0.0, 0.5, 1e-3)
        assert traj.events == []
        assert len(traj.region_segments) == 1

    def test_initial_point_on_surface_rejected(self, harmonic, harmonic_dmm):
        with pytest.raises(InvalidInitialCondition):
            integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                      [1.0, 0.0], 0.0, 1.0, 1e-3)

    def test_deterministic_bitwise(self, harmonic, harmonic_dmm):
        a = run_harmonic(harmonic, harmonic_dmm, 2.0, 1e-3)
        b = run_harmonic(harmonic, harmonic_dmm, 2.0, 1e-3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)
        assert [e.t_hat for e in a.events] == [e.t_hat for e in b.events]

    @pytest.mark.parametrize("system, schemes, x0, T", [
        ("harmonic", "harmonic_rk2", [1.0, 1.0], 85.0),
        ("elliptic", "elliptic_dmm", [-1.0, -1.0], 10.0),
    ], ids=["harmonic-T85", "elliptic-T10"])
    def test_memory_is_the_output_arrays(self, request, system, schemes, x0, T):
        # Beyond the sample arrays, the run holds a bounded amount of
        # memory, whatever its step count: no Python object per sample.
        sys_ = request.getfixturevalue(system)
        minus, plus = request.getfixturevalue(schemes)
        tracemalloc.start()
        try:
            traj = integrate(sys_, minus, plus, x0, 0.0, T, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.times) == round(T / 1e-3) + 1
        assert peak <= traj.states.nbytes + traj.times.nbytes + 256 * 1024

    def test_event_completeness(self, harmonic, harmonic_dmm):
        # Every sign change between consecutive samples has an event
        # inside that step.
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 5e-3)
        g = np.array([harmonic.surface.value(x) for x in traj.states])
        for k in range(len(g) - 1):
            if g[k] * g[k + 1] < 0:
                assert any(traj.times[k] < ev.t_hat <= traj.times[k + 1]
                           for ev in traj.events), f"missing event in step {k}"

    def test_step_equations_hold_between_events(self, harmonic, harmonic_dmm):
        # Every smooth step solves its step equation; a step with one
        # crossing solves it on both legs: from (t_k, x_k) to (t_hat, x_hat)
        # with the old region's field, and on to x_{k+1} with the new one.
        dvf = {RegionSide.MINUS: harmonic_dmm[0], RegionSide.PLUS: harmonic_dmm[1]}

        def assert_leg(side, t_a, x_a, t_b, x_b):
            res = x_b - x_a - (t_b - t_a) * dvf[side].evaluate(t_a, x_a, t_b, x_b)
            assert np.linalg.norm(res) <= 10 * solvers.FP_TOL * (1 + np.linalg.norm(x_b))

        for tau in (1e-3, 1e-2, 0.1):
            traj = run_harmonic(harmonic, harmonic_dmm, 10.0, tau)
            by_step = {}
            for ev in traj.events:
                by_step.setdefault(ev.step_index, []).append(ev)
            assert len(by_step) >= 4 and all(len(e) == 1 for e in by_step.values())
            for k in range(len(traj.times) - 1):
                t_a, t_b = traj.times[k], traj.times[k + 1]
                x_a, x_b = traj.states[k], traj.states[k + 1]
                if k not in by_step:
                    assert_leg(traj.segment_at(k).side, t_a, x_a, t_b, x_b)
                    continue
                ev, = by_step[k]
                assert_leg(ev.side_from, t_a, x_a, ev.t_hat, ev.x_hat)
                assert_leg(ev.side_to, ev.t_hat, ev.x_hat, t_b, x_b)

    def test_perturbation_p15_is_identical_to_unperturbed(self, harmonic, harmonic_dmm):
        # tau^15 = 1e-45 underflows against t_hat ~ 1: bit-identical runs.
        base = run_harmonic(harmonic, harmonic_dmm, 5.0, 1e-3)
        pert = run_harmonic(harmonic, harmonic_dmm, 5.0, 1e-3,
                            perturbation=(1.0, 15.0))
        assert np.array_equal(base.states, pert.states)
        assert all(ev.perturbation_applied == 0.0 for ev in pert.events)

    def test_perturbation_recorded_and_clamped(self, harmonic, harmonic_dmm):
        tau = 1e-2
        pert = run_harmonic(harmonic, harmonic_dmm, 2.0, tau, perturbation=(1.0, 2.0))
        assert pert.events
        for ev in pert.events:
            k = ev.step_index
            assert 0.0 <= ev.perturbation_applied <= tau ** 2 * (1 + 1e-12)
            assert ev.t_hat + ev.perturbation_applied <= pert.times[k + 1] + 1e-15

    def test_perturbation_clamped_to_step_end(self, harmonic, harmonic_dmm):
        # A shift of 3 tau always reaches past the step end, so every
        # completion leg has zero length.
        pert = run_harmonic(harmonic, harmonic_dmm, 10.0, 0.1, perturbation=(3.0, 1.0))
        assert pert.events
        assert_events_complete(pert)
        for ev in pert.events:
            assert ev.t_hat + ev.perturbation_applied == pert.times[ev.step_index + 1]
            assert ev.stats_complete.method_used == "explicit"

    def test_sign_monotonicity_in_brackets(self, harmonic, harmonic_dmm):
        # phi(t) = g(xhat(t)) sampled on 100 points across each crossing
        # step changes sign exactly once.
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-2)
        assert len(traj.events) >= 4
        dvf = {RegionSide.MINUS: harmonic_dmm[0], RegionSide.PLUS: harmonic_dmm[1]}
        for ev in traj.events:
            k = ev.step_index
            side = ev.side_from
            t_k, x_k = traj.times[k], traj.states[k]
            signs = []
            for t in np.linspace(t_k, t_k + traj.tau, 100):
                x, _ = _solve_leg(dvf[side], t_k, x_k, float(t))
                gv = harmonic.surface.value(x)
                if abs(gv) > harmonic.surface.on_surface_tol:
                    signs.append(gv > 0)
            flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
            assert flips == 1, f"step {k}: {flips} sign changes"

    def test_runaway_switching_guard(self, harmonic, harmonic_dmm):
        with pytest.raises(RunawaySwitching):
            run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3, max_events=2)

    def test_step_count_cap(self, harmonic, harmonic_dmm):
        from pwsint.errors import ConfigError
        with pytest.raises(ConfigError):
            run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3, max_steps=100)

    @pytest.mark.parametrize("x0,t0,T,tau,caps", [
        pytest.param([1.0], 0.0, 1.0, 1e-3, {}, id="x00-0.0-1.0-0.001"),
        pytest.param([1.0, 1.0, 1.0], 0.0, 1.0, 1e-3, {}, id="x01-0.0-1.0-0.001"),
        pytest.param([math.nan, 1.0], 0.0, 1.0, 1e-3, {}, id="x02-0.0-1.0-0.001"),
        pytest.param([1.0, 1.0], math.nan, 1.0, 1e-3, {}, id="x03-nan-1.0-0.001"),
        pytest.param([1.0, 1.0], 0.0, math.nan, 1e-3, {}, id="x04-0.0-nan-0.001"),
        pytest.param([1.0, 1.0], 0.0, 1.0, math.nan, {}, id="x05-0.0-1.0-nan"),
        pytest.param([1.0, 1.0], 0.0, 1.0, math.inf, {}, id="x06-0.0-1.0-inf"),
        pytest.param([1.0, 1.0], 0.0, 1.0, 1e-3, {"max_crossings_per_step": 0},
                     id="max_crossings_per_step=0"),
        pytest.param([1.0, 1.0], 0.0, 1.0, 1e-3, {"max_crossings_per_step": -1},
                     id="max_crossings_per_step=-1"),
        pytest.param([1.0, 1.0], 0.0, 1.0, 1e-3, {"max_events": 0}, id="max_events=0"),
    ])
    def test_malformed_inputs_are_config_errors(self, harmonic, harmonic_dmm,
                                                x0, t0, T, tau, caps):
        from pwsint.errors import ConfigError
        with pytest.raises(ConfigError):
            integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1], x0, t0, T, tau, **caps)

    def test_region_segments_reference_values(self, harmonic, harmonic_dmm):
        # psi_plus = 1 on plus segments, psi_minus = 3 on minus segments
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)
        for seg in traj.region_segments:
            want = 1.0 if seg.side is RegionSide.PLUS else 3.0
            np.testing.assert_allclose(seg.psi_ref, [want], rtol=0, atol=1e-11)


def wiggle_system(freq: float, amp_minus: float, amp_plus: float,
                  offset: float) -> PwsSystem:
    """Fields (1, a_pm cos(freq x)) switching on the line y = offset.

    Trajectories oscillate vertically and cross the line transversally
    in both directions; each side conserves y - (a/freq) sin(freq x).
    With a step size near the wiggle period, a single step can contain
    two crossings, which exercises the completion-leg re-detection.
    """

    def make_field(a):
        return lambda t, x: np.array([1.0, a * math.cos(freq * x[0])])

    def make_conserved(a):
        return ConservedSet(
            psi=lambda x: np.array([x[..., 1] - (a / freq) * np.sin(freq * x[..., 0])]),
            grad_psi=lambda x: np.array([[-a * math.cos(freq * x[0]), 1.0]]),
            d_psi=1)

    surface = SwitchingSurface(g=lambda x: x[..., 1] - offset,
                               grad_g=lambda x: np.array([0.0, 1.0]))
    return PwsSystem(dim=2, f_minus=make_field(amp_minus),
                     f_plus=make_field(amp_plus), surface=surface,
                     conserved_minus=make_conserved(amp_minus),
                     conserved_plus=make_conserved(amp_plus))


def assert_events_complete(traj):
    """Every event carries both sides and both solve statistics."""
    for ev in traj.events:
        assert None not in (ev.side_from, ev.side_to, ev.stats_locate,
                            ev.stats_complete), ev


class TestDirectSolve:
    def test_catalog_elliptic_leg_is_direct(self, elliptic_dmm):
        for dvf in elliptic_dmm:
            _, stats = _solve_leg(dvf, 0.0, np.array([-1.0, -1.0]), 1e-2)
            assert stats.method_used == "direct"

    def test_field_without_solve_iterates(self, elliptic):
        # The generic midpoint rule on the elliptic field has no direct
        # solve and keeps the fixed-point path.
        dvf = resolve_scheme("dmm-midpoint", elliptic, RegionSide.PLUS)
        assert dvf.solve is None
        _, stats = _solve_leg(dvf, 0.0, np.array([-1.0, -1.0]), 1e-2)
        assert stats.method_used == "fixed_point"

    def test_escaping_orbit_raises_step_too_large(self, elliptic, elliptic_dmm):
        # The exact orbit from (2, 1) leaves every bounded set at t = 0.8087;
        # the step from t = 0.806, at |x| ~ 1e8, has no solution.
        with pytest.raises(FiniteTimeBlowUp, match=r"t=0\.808686"):
            elliptic_oracle(elliptic, (2.0, 1.0), 0.0, 2.0)
        with pytest.raises(StepTooLarge) as info:
            integrate(elliptic, elliptic_dmm[0], elliptic_dmm[1],
                      [2.0, 1.0], 0.0, 2.0, 1e-3)
        # The orbit starts outside the circle and never re-enters it.
        assert (info.value.k, info.value.t) == (806, 0.806)
        assert info.value.side is RegionSide.PLUS
        assert str(info.value).startswith("step 806 at t=0.806: ")
        assert str(info.value).endswith("|x|=9.51036e+07 (on the plus side)")
        # Schemes without a direct solve fail with errors of their own,
        # which name the failing step and side too.  The states overflow
        # on the way there, without a numpy warning.
        for name, error, k in [("dmm-midpoint", NoConvergence, 806),
                               ("rk4", EvaluationError, 811)]:
            minus, plus = (resolve_scheme(name, elliptic, side)
                           for side in (RegionSide.MINUS, RegionSide.PLUS))
            with pytest.raises(error) as info, warnings.catch_warnings():
                warnings.simplefilter("error")
                integrate(elliptic, minus, plus, [2.0, 1.0], 0.0, 2.0, 1e-3)
            t = k / 1000
            assert (info.value.k, info.value.t) == (k, t)
            assert info.value.side is RegionSide.PLUS
            assert str(info.value).startswith(f"step {k} at t={t}: ")
            assert str(info.value).endswith(" (on the plus side)")

    def test_step_end_is_solved_once(self, harmonic, harmonic_dmm, monkeypatch):
        # A crossing step reuses its proposal for the bracket end, so no
        # leg of the run is solved twice.
        legs = []
        solve_leg = engine._solve_leg

        def recording(dvf, t_a, x_a, t_b, prev=None):
            legs.append((float(t_a), float(t_b), tuple(x_a.tolist())))
            return solve_leg(dvf, t_a, x_a, t_b, prev)

        monkeypatch.setattr(engine, "_solve_leg", recording)
        traj = run_harmonic(harmonic, harmonic_dmm, 3.0, 1e-2)
        assert len(traj.events) == 2
        assert len(legs) == len(set(legs))

    def test_end_leg_gives_the_same_event(self, harmonic, harmonic_dmm):
        x_k = np.array([1.0, 1.0])
        end = (0.83, *_solve_leg(harmonic_dmm[1], 0.0, x_k, 0.83))
        ref = locate_crossing(harmonic_dmm[1], harmonic.surface, 0.0, x_k, 0.83)
        ev = locate_crossing(harmonic_dmm[1], harmonic.surface, 0.0, x_k, 0.83, end)
        assert ev.t_hat == ref.t_hat
        np.testing.assert_array_equal(ev.x_hat, ref.x_hat)
        assert ev.stats_locate == ref.stats_locate


def euler_predictor(leg):
    h = leg["t_b"] - leg["t_a"]
    return leg["x_a"] + h * leg["dvf"].evaluate(leg["t_a"], leg["x_a"], leg["t_b"], leg["x_a"])


class TestStartingValue:
    """Which value each fixed-point leg solve starts from, and what it costs."""

    @pytest.fixture
    def recorded_run(self, harmonic, harmonic_dmm, monkeypatch):
        # Every leg solve, with the starting value its fixed-point
        # iteration received and the iterations it took.
        legs = []
        solve_leg, fixed_point = engine._solve_leg, engine.fixed_point

        def recording_leg(dvf, t_a, x_a, t_b, prev=None):
            legs.append({"dvf": dvf, "t_a": t_a, "x_a": x_a.copy(), "t_b": t_b,
                         "prev": prev})
            return solve_leg(dvf, t_a, x_a, t_b, prev)

        def recording_fixed_point(map_, x0, max_iter=solvers.FP_MAX_ITER):
            x, stats = fixed_point(map_, x0, max_iter=max_iter)
            legs[-1]["guess"], legs[-1]["iterations"] = x0.copy(), stats.iterations
            return x, stats

        monkeypatch.setattr(engine, "_solve_leg", recording_leg)
        monkeypatch.setattr(engine, "fixed_point", recording_fixed_point)
        traj = run_harmonic(harmonic, harmonic_dmm, 3.0, 1e-3)
        assert len(traj.events) == 2
        # Zero-length legs (the bracket solve evaluates the step start)
        # return their start without iterating.
        legs = [leg for leg in legs if leg["t_b"] != leg["t_a"]]
        assert all("guess" in leg for leg in legs)
        # The first solve of step k is its grid leg; the others are the
        # in-step legs of localization and the completion legs.
        grid, other = {}, []
        times = traj.times.tolist()
        for leg in legs:
            k = round(leg["t_a"] / traj.tau)
            if (k not in grid and times[k] == leg["t_a"] and k + 1 < len(times)
                    and times[k + 1] == leg["t_b"]):
                np.testing.assert_array_equal(leg["x_a"], traj.states[k])
                grid[k] = leg
            else:
                other.append(leg)
        assert sorted(grid) == list(range(len(times) - 1))
        return traj, grid, other

    def test_warm_grid_legs_start_from_the_extrapolation(self, recorded_run):
        traj, grid, _ = recorded_run
        x = traj.states
        warm = [k for k in grid if k - 3 >= traj.segment_at(k).start_index]
        assert len(warm) == len(grid) - 3 * len(traj.region_segments)
        for k in warm:
            np.testing.assert_array_equal(
                grid[k]["guess"], 4.0 * (x[k] + x[k - 2]) - 6.0 * x[k - 1] - x[k - 3])
        iterations = [grid[k]["iterations"] for k in warm]
        assert sum(iterations) / len(iterations) <= 2.1

    def test_other_legs_start_from_the_euler_predictor(self, recorded_run):
        # The first three grid legs of each segment, the completion legs
        # and the in-step legs of locate_crossing.
        traj, grid, other = recorded_run
        cold = [grid[k] for k in grid if k - 3 < traj.segment_at(k).start_index]
        assert len(cold) == 3 * len(traj.region_segments)
        completion = [leg for leg in other if leg["t_a"] in {ev.t_hat for ev in traj.events}]
        assert len(completion) == len(traj.events)
        assert len(other) > len(completion)
        for leg in cold + other:
            assert leg["prev"] is None
            np.testing.assert_array_equal(leg["guess"], euler_predictor(leg))

    @pytest.mark.parametrize("system, x0, T, tau", [
        ("harmonic", [1.0, 1.0], 20.0, 0.1),
        ("harmonic", [1.0, 1.0], 20.0, 0.5),
        ("elliptic", [-1.0, -1.0], 10.0, 0.01),
    ])
    def test_coarse_steps_match_the_euler_start(self, request, monkeypatch,
                                                system, x0, T, tau):
        # Against a run whose legs all start from the Euler predictor:
        # the same events, states within 1e-12, and no more iterations
        # per leg, Newton fallbacks included.
        sys_ = request.getfixturevalue(system)
        minus, plus = (resolve_scheme("dmm-midpoint", sys_, side)
                       for side in (RegionSide.MINUS, RegionSide.PLUS))
        solve_leg, fixed_point, newton = engine._solve_leg, engine.fixed_point, engine.newton

        def run(ignore_guess):
            count = {"legs": 0, "iterations": 0}

            def counted(F):
                def counted_F(x):
                    count["iterations"] += 1
                    return F(x)
                return counted_F

            def counting_fixed_point(map_, x0, max_iter=solvers.FP_MAX_ITER):
                count["legs"] += 1
                return fixed_point(counted(map_), x0, max_iter=max_iter)

            def cold_leg(dvf, t_a, x_a, t_b, prev=None):
                return solve_leg(dvf, t_a, x_a, t_b)

            with monkeypatch.context() as m:
                m.setattr(engine, "fixed_point", counting_fixed_point)
                m.setattr(engine, "newton", lambda F, x0: newton(counted(F), x0))
                if ignore_guess:
                    m.setattr(engine, "_solve_leg", cold_leg)
                traj = integrate(sys_, minus, plus, x0, 0.0, T, tau)
            return traj, count["iterations"] / count["legs"]

        ref, ref_iterations = run(ignore_guess=True)
        traj, iterations = run(ignore_guess=False)
        assert len(traj.events) == len(ref.events) >= 4
        assert ([(ev.step_index, ev.side_from, ev.side_to) for ev in traj.events]
                == [(ev.step_index, ev.side_from, ev.side_to) for ev in ref.events])
        np.testing.assert_allclose([ev.t_hat for ev in traj.events],
                                   [ev.t_hat for ev in ref.events], rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.states, ref.states, rtol=0, atol=1e-12)
        assert iterations <= ref_iterations


class TestMultipleCrossings:
    def setup_method(self):
        self.sys = wiggle_system(2.0 * math.pi, 2.0, 1.0, offset=0.05)
        self.dvfs = (rk4_dvf(self.sys.f_minus), rk4_dvf(self.sys.f_plus))
        self.x0 = [0.0, 0.13]

    def test_two_crossings_inside_one_step(self):
        traj = integrate(self.sys, self.dvfs[0], self.dvfs[1],
                         self.x0, 0.0, 3.0, 1.0)
        per_step = {}
        for ev in traj.events:
            per_step[ev.step_index] = per_step.get(ev.step_index, 0) + 1
        assert len(traj.events) == 6
        assert set(per_step.values()) == {2}, per_step
        ts = [ev.t_hat for ev in traj.events]
        assert ts == sorted(ts)
        for ev in traj.events:
            assert ev.side_from is not ev.side_to
            assert abs(ev.residual_g) <= 1e-12
        # The second crossing of a step is located on the first one's
        # completion leg, so that leg's statistics are its locate ones.
        assert_events_complete(traj)
        for first, second in zip(traj.events[0::2], traj.events[1::2]):
            assert first.stats_complete is second.stats_locate

    def test_step_too_large_when_cap_exceeded(self):
        with pytest.raises(StepTooLarge):
            integrate(self.sys, self.dvfs[0], self.dvfs[1],
                      self.x0, 0.0, 3.0, 1.0, max_crossings_per_step=1)

    def test_step_too_large_names_the_step(self):
        with pytest.raises(StepTooLarge) as info:
            integrate(self.sys, self.dvfs[0], self.dvfs[1],
                      self.x0, 0.0, 3.0, 1.0, max_crossings_per_step=1)
        assert (info.value.k, info.value.t) == (0, 0.0)
        assert str(info.value).startswith("step 0 at t=0.0: more than 1 crossings")


class TestSurfaceLanding:
    def test_exact_landing_becomes_event(self):
        # Constant downward field with binary-exact grid values: the step
        # from y = 0.25 lands exactly on y = 0.
        conserved = ConservedSet(psi=lambda x: np.array([x[..., 0]]),
                                 grad_psi=lambda x: np.array([[1.0, 0.0]]),
                                 d_psi=1)
        surface = SwitchingSurface(g=lambda x: x[..., 1],
                                   grad_g=lambda x: np.array([0.0, 1.0]))
        f = lambda t, x: np.array([0.0, -1.0])
        sys_ = PwsSystem(dim=2, f_minus=f, f_plus=f, surface=surface,
                         conserved_minus=conserved, conserved_plus=conserved)
        dvf = rk4_dvf(f)
        traj = integrate(sys_, dvf, dvf, [0.0, 0.5], 0.0, 1.0, 0.25)
        assert len(traj.events) == 1
        ev = traj.events[0]
        assert ev.t_hat == 0.5 and ev.residual_g == 0.0
        assert ev.side_from is RegionSide.PLUS and ev.side_to is RegionSide.MINUS
        np.testing.assert_allclose(traj.states[-1], [0.0, -0.5], atol=1e-14)
        # Landing at the step end leaves a zero-length completion leg.
        assert_events_complete(traj)
        assert ev.stats_complete.method_used == "explicit"

    def test_sliding_rejected(self):
        conserved = ConservedSet(psi=lambda x: np.array([x[..., 0]]),
                                 grad_psi=lambda x: np.array([[1.0, 0.0]]),
                                 d_psi=1)
        surface = SwitchingSurface(g=lambda x: x[..., 1],
                                   grad_g=lambda x: np.array([0.0, 1.0]))
        sys_ = PwsSystem(dim=2,
                         f_minus=lambda t, x: np.array([0.0, 1.0]),
                         f_plus=lambda t, x: np.array([0.0, -1.0]),
                         surface=surface,
                         conserved_minus=conserved, conserved_plus=conserved)
        dvf_m = rk4_dvf(sys_.f_minus)
        dvf_p = rk4_dvf(sys_.f_plus)
        with pytest.raises(NonTransversalCrossing):
            integrate(sys_, dvf_m, dvf_p, [0.0, 0.4], 0.0, 1.0, 0.3)


class TestConservation:
    def test_per_segment_conservation_short_run(self, harmonic, harmonic_dmm):
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)
        errs = conserved_error_series(traj, harmonic)
        assert errs.max() <= 1e-11

    def test_psi_level_residual_at_events(self, harmonic, harmonic_dmm):
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)
        for ev in traj.events:
            assert ev.psi_level_residual <= 1e-12
