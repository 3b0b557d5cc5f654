import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import pwsint.engine as engine
from pwsint import (
    ConservedSet,
    DiscreteVectorField,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    conserved_error_series,
    elliptic_oracle,
    estimate_order,
    harmonic_oracle,
    harmonic_system,
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
    CrossingLocalizationFailed,
    EvaluationError,
    FiniteTimeBlowUp,
    InvalidInitialCondition,
    NoConvergence,
    NonTransversalCrossing,
    RunawaySwitching,
    StepTooLarge,
)
from pwsint.systems import SYSTEMS

from conftest import midpoint_harmonic_step

SQRT2 = math.sqrt(2.0)
PI4 = math.pi / 4.0


def run_harmonic(harmonic, schemes, T, tau, **kw):
    return integrate(harmonic, schemes[0], schemes[1], [1.0, 1.0], 0.0, T, tau, **kw)


def end_leg(dvf, t_k, x_k, t_b):
    """The (t_b, x_b, stats) leg that locate_crossing takes for its step end."""
    return (t_b, *_solve_leg(dvf, t_k, x_k, t_b))


def locate(dvf, surface, t_k, x_k, end):
    """locate_crossing, with g at both step ends evaluated here."""
    return locate_crossing(dvf, surface, t_k, x_k, end,
                           surface.value(x_k), surface.value(end[1]))


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

    @pytest.mark.parametrize("system, scheme, method, iterations", [
        ("harmonic", "rk2", "explicit", 0),
        ("harmonic", "rk4", "explicit", 0),
        ("harmonic", "dmm-midpoint", "fixed_point", 1),
        ("elliptic", "dmm-elliptic", "direct", 0),
    ])
    def test_zero_length_leg_takes_its_fields_path(self, request, system, scheme,
                                                   method, iterations):
        # x_a + 0 * f, one update to it, or a march over h = 0: the bits
        # of x_a, in a new array, with the field's own statistics.
        sys_ = request.getfixturevalue(system)
        for side in (RegionSide.MINUS, RegionSide.PLUS):
            dvf = resolve_scheme(scheme, sys_, side)
            x_a = np.array([-1.1, 0.35])
            x, stats = _solve_leg(dvf, 0.7, x_a, 0.7)
            assert x is not x_a and x.tolist() == [-1.1, 0.35]
            assert (stats.method_used, stats.iterations) == (method, iterations)

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
        x_k = np.array([1.0, 1.0])
        ev = locate(harmonic_dmm[1], harmonic.surface, 0.0, x_k,
                             end_leg(harmonic_dmm[1], 0.0, x_k, 0.83))
        assert math.isclose(ev.t_hat, 2.0 * math.tan(math.pi / 8.0), abs_tol=1e-12)
        np.testing.assert_allclose(ev.x_hat, [SQRT2, 0.0], rtol=0, atol=1e-12)
        assert abs(ev.residual_g) <= 1e-12

    def test_small_step_near_exact_time(self, harmonic, harmonic_dmm):
        # step [0.785, 0.786] straddles pi/4 at tau = 1e-3
        tau = 1e-3
        traj = run_harmonic(harmonic, harmonic_dmm, 0.785, tau)
        ev = locate(harmonic_dmm[1], harmonic.surface, 0.785, traj.states[-1],
                             end_leg(harmonic_dmm[1], 0.785, traj.states[-1], 0.785 + tau))
        assert abs(ev.t_hat - PI4) <= 1e-5
        assert abs(ev.residual_g) <= 1e-12

    def test_level_set_identity(self, harmonic, harmonic_dmm):
        # Conservative localization keeps psi at its segment value, so the
        # crossing point agrees with the exact one.
        x_k = np.array([1.0, 1.0])
        ev = locate(harmonic_dmm[1], harmonic.surface, 0.0, x_k,
                             end_leg(harmonic_dmm[1], 0.0, x_k, 0.83))
        psi0 = harmonic.conserved_plus.values(x_k)
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
        x_k = np.array([1.0, 1.0])
        end = end_leg(harmonic_dmm[1], 0.0, x_k, 0.1)
        with pytest.raises(ValueError):
            locate(harmonic_dmm[1], harmonic.surface, 0.0, x_k, end)

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
        recorded, x_k = dataclasses.replace(dvf, evaluate=recording), np.array([1.0, 1.0])
        ev = locate(recorded, harmonic.surface, 0.0, x_k,
                             end_leg(recorded, 0.0, x_k, 0.83))
        assert len(targets) == len(set(targets))
        # phi(t_b) on entry, then every evaluation of the bracket solve
        assert ev.stats_locate.iterations == 1 + len(brent_evals)

    def test_known_ends_are_not_solved_or_evaluated_again(self, harmonic, harmonic_dmm,
                                                          monkeypatch):
        # Brent asks for phi at both bracket ends; the step start and the
        # handed-in step end are known already, so no leg of zero length
        # is solved, and g is evaluated once at each in-step time (its
        # value at the root included).
        x_k = np.array([1.0, 1.0])
        end = end_leg(harmonic_dmm[1], 0.0, x_k, 0.83)
        legs = []
        solve_leg = engine._solve_leg

        def recording(dvf, t_a, x_a, t_b, h=None, guess=None):
            legs.append((t_a, t_b))
            return solve_leg(dvf, t_a, x_a, t_b, h, guess)

        g_args = []

        def counting_g(x):
            g_args.append(tuple(x.tolist()))
            return harmonic.surface.g(x)

        monkeypatch.setattr(engine, "_solve_leg", recording)
        surface = dataclasses.replace(harmonic.surface, g=counting_g)
        ev = locate(harmonic_dmm[1], surface, 0.0, x_k, end)
        assert legs and all(t_a != t_b for t_a, t_b in legs)
        # t_k and t_b by the caller, and one per solved leg
        assert len(g_args) == len(set(g_args)) == len(legs) + 2
        assert ev.residual_g == harmonic.surface.value(ev.x_hat)

    @pytest.mark.parametrize("t_k, t_b, n_legs", [(0.0, 1.0, 60),
                                                  (1.0, 1.0 + 2.0 ** -40, 12)])
    def test_walk_in_without_a_signed_point_fails(self, t_k, t_b, n_legs):
        # From a start on g = y = 0 only the step end moves off the
        # surface, so every in-step leg ends on it.  The walk-in halves
        # toward t_k 60 times, or until the midpoint rounds to an end
        # (after 12 halvings of a step of 2**-40 at t = 1), and fails.
        in_step = []

        def evaluate(t_a, x_a, t, x):
            if t == t_b:
                return np.array([0.0, -1e6])
            in_step.append(t)
            return np.zeros(2)

        dvf = DiscreteVectorField(evaluate, order=1, is_implicit=False)
        surface = SwitchingSurface(g=lambda x: x[..., 1],
                                   grad_g=lambda x: np.array([0.0, 1.0]))
        x_k = np.zeros(2)
        end = end_leg(dvf, t_k, x_k, t_b)
        with pytest.raises(CrossingLocalizationFailed, match="no strictly signed point found"):
            locate_crossing(dvf, surface, t_k, x_k, end, 0.0, surface.value(end[1]))
        assert len(in_step) == n_legs


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

    @pytest.mark.parametrize("system, schemes, x0, t0, T", [
        ("harmonic", "harmonic_rk2", [1.0, 1.0], 100.0, 100.7),
        ("elliptic", "elliptic_dmm", [-1.0, -1.0], 100.0, 100.5),
    ], ids=["rk2", "dmm-elliptic"])
    def test_explicit_and_direct_grid_legs_step_by_the_time_difference(
            self, request, system, schemes, x0, t0, T):
        # Explicit grid legs step by the difference of their rounded end
        # times, and direct-solve grid legs by exactly tau (the rounded time
        # difference only sets where the leg ends): a crossing-free span
        # equals, bit for bit, a hand loop of one-step legs.
        sys_ = request.getfixturevalue(system)
        minus, plus = request.getfixturevalue(schemes)
        traj = integrate(sys_, minus, plus, x0, t0, T, 1e-3)
        assert traj.events == []
        dvf = plus if traj.region_segments[0].side is RegionSide.PLUS else minus
        times = traj.times.tolist()
        # The rounded grid times do not all differ by tau.
        assert any(t_b - t_a != traj.tau for t_a, t_b in zip(times, times[1:]))
        x = np.asarray(x0, dtype=float)
        for k, (t_a, t_b) in enumerate(zip(times, times[1:])):
            if dvf.march is None:
                x = x + (t_b - t_a) * dvf.evaluate(t_a, x, t_b, x)
            else:
                x = dvf.march(t_a, x, traj.tau, 1)[0]
            np.testing.assert_array_equal(traj.states[k + 1], x)

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

    def test_runaway_switching_guard(self, harmonic, harmonic_dmm, monkeypatch):
        monkeypatch.setattr(engine, "MAX_EVENTS", 2)
        with pytest.raises(RunawaySwitching):
            run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)

    def test_step_count_cap(self, harmonic, harmonic_dmm, monkeypatch):
        from pwsint.errors import ConfigError
        monkeypatch.setattr(engine, "MAX_STEPS", 100)
        with pytest.raises(ConfigError):
            run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)

    @pytest.mark.parametrize("x0,t0,T,tau", [
        pytest.param([1.0], 0.0, 1.0, 1e-3, id="x00-0.0-1.0-0.001"),
        pytest.param([1.0, 1.0, 1.0], 0.0, 1.0, 1e-3, id="x01-0.0-1.0-0.001"),
        pytest.param([math.nan, 1.0], 0.0, 1.0, 1e-3, id="x02-0.0-1.0-0.001"),
        pytest.param([1.0, 1.0], math.nan, 1.0, 1e-3, id="x03-nan-1.0-0.001"),
        pytest.param([1.0, 1.0], 0.0, math.nan, 1e-3, id="x04-0.0-nan-0.001"),
        pytest.param([1.0, 1.0], 0.0, 1.0, math.nan, id="x05-0.0-1.0-nan"),
        pytest.param([1.0, 1.0], 0.0, 1.0, math.inf, id="x06-0.0-1.0-inf"),
    ])
    def test_malformed_inputs_are_config_errors(self, harmonic, harmonic_dmm,
                                                x0, t0, T, tau):
        from pwsint.errors import ConfigError
        with pytest.raises(ConfigError):
            integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1], x0, t0, T, tau)

    def test_region_segments_reference_values(self, harmonic, harmonic_dmm):
        # psi_plus = 1 on plus segments, psi_minus = 3 on minus segments
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)
        for seg in traj.region_segments:
            want = 1.0 if seg.side is RegionSide.PLUS else 3.0
            np.testing.assert_allclose(seg.psi_ref, [want], rtol=0, atol=1e-11)

    @pytest.mark.parametrize("x0", [(1e155, 1.0), (1e200, 1.0), (1.0, 1e155)])
    def test_psi_that_overflows_at_x0_raises_at_step_0(self, harmonic, harmonic_dmm, x0):
        # psi = (w2 x^2 + y^2) / 2 overflows, though x0 and g(x0) are finite.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="psi is not finite") as info:
                integrate(harmonic, *harmonic_dmm, x0, 0.0, 1.0, 1e-3)
        assert (info.value.k, info.value.t, info.value.side) == (0, 0.0, RegionSide.PLUS)
        assert str(info.value).startswith("step 0 at t=0.0: ")

    def test_psi_that_overflows_at_a_crossing_raises_at_its_step(self, harmonic,
                                                                  harmonic_dmm):
        # The plus side's psi overflows everywhere; the run starts on the
        # minus side and fails where it enters the plus side.
        huge = ConservedSet(psi=lambda x: np.array([1e300 * (1e300 + 0.0 * x[..., 0])]),
                            grad_psi=lambda x: np.array([[x[0], x[1]]]), d_psi=1)
        sys_ = dataclasses.replace(harmonic, conserved_plus=huge)
        x0 = (1.0, -1.0)
        first = integrate(harmonic, *harmonic_dmm, x0, 0.0, 2.0, 1e-2).events[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="psi is not finite") as info:
                integrate(sys_, *harmonic_dmm, x0, 0.0, 2.0, 1e-2)
        assert first.side_to is RegionSide.PLUS
        assert (info.value.k, info.value.side) == (first.step_index, RegionSide.MINUS)


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
        assert dvf.march is None
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

        def recording(dvf, t_a, x_a, t_b, h=None, guess=None, *, memory=None):
            legs.append((float(t_a), float(t_b), tuple(x_a.tolist())))
            return solve_leg(dvf, t_a, x_a, t_b, h, guess, memory=memory)

        monkeypatch.setattr(engine, "_solve_leg", recording)
        traj = run_harmonic(harmonic, harmonic_dmm, 3.0, 1e-2)
        assert len(traj.events) == 2
        assert len(legs) == len(set(legs))


def one_row_march(dvf):
    """``dvf`` with a march that takes at most one step per call."""
    march = dvf.march
    return dataclasses.replace(dvf, march=lambda t_a, x, h, n: march(t_a, x, h, min(n, 1)))


def recording_march(dvf, calls):
    """``dvf`` with a march that appends (t_a, h, n, rows returned) to ``calls``."""
    march = dvf.march

    def recording(t_a, x, h, n):
        rows = march(t_a, x, h, n)
        calls.append((t_a, h, n, len(rows)))
        return rows

    return dataclasses.replace(dvf, march=recording)


def block_rows(traj, calls):
    """(row, rows) of the block in which each crossing step falls.

    The blocks are the recorded marches by tau (every other leg steps by
    the difference of its end times); a crossing step k falls in the
    last of them that starts at or before k.
    """
    starts = [(round((t_a - traj.times[0]) / traj.tau), n) for t_a, h, n, _ in calls
              if h == traj.tau]
    out = []
    for k in sorted({ev.step_index for ev in traj.events}):
        s, n = max(b for b in starts if b[0] <= k)
        out.append((k - s, n))
    return out


class TestMarch:
    def test_blocks_change_nothing(self, elliptic, elliptic_dmm):
        # Runs marched in blocks equal, bit for bit, runs whose march
        # takes one step per call, crossings on the first and the last
        # row of a block included (a first row only at tau=0.002).
        one_row = tuple(map(one_row_march, elliptic_dmm))
        rows = set()
        for perturbation in (None, (1.0, 2.0)):
            for tau in (0.04, 0.02, 0.01, 0.005, 0.0025, 0.002):
                calls = []
                recorded = tuple(recording_march(dvf, calls) for dvf in elliptic_dmm)
                runs = [integrate(elliptic, *schemes, [-1.0, -1.0], 0.0, 10.0, tau,
                                  perturbation=perturbation)
                        for schemes in (recorded, one_row)]
                blocks, single = runs
                assert np.array_equal(blocks.states, single.states)
                assert np.array_equal(blocks.times, single.times)
                assert len(blocks.events) == len(single.events) > 0
                for ev_b, ev_s in zip(blocks.events, single.events):
                    for f in dataclasses.fields(ev_b):
                        a, b = getattr(ev_b, f.name), getattr(ev_s, f.name)
                        assert np.array_equal(a, b) if f.name == "x_hat" else a == b, f.name
                assert ([(s.start_index, s.side) for s in blocks.region_segments]
                        == [(s.start_index, s.side) for s in single.region_segments])
                rows.update(block_rows(blocks, calls))
        assert any(row == 0 for row, _ in rows)
        assert any(row == n - 1 for row, n in rows)

    def test_fields_without_march_take_no_block(self, harmonic, harmonic_dmm, monkeypatch):
        # Only marching fields evaluate g on stacks of states.
        g = harmonic.surface.g
        shapes = []

        def recording(x):
            shapes.append(np.shape(x))
            return g(x)

        surface = dataclasses.replace(harmonic.surface, g=recording)
        sys_ = dataclasses.replace(harmonic, surface=surface)
        traj = run_harmonic(sys_, harmonic_dmm, 3.0, 1e-2)
        assert len(traj.events) == 2
        assert set(shapes) == {(2,)}

    def test_g_that_does_not_broadcast_is_rejected(self, elliptic, elliptic_dmm):
        surface = dataclasses.replace(
            elliptic.surface, g=lambda x: x[0] ** 2 + x[1] ** 2 - 1.0)
        sys_ = dataclasses.replace(elliptic, surface=surface)
        with pytest.raises(EvaluationError, match="does not broadcast") as info:
            integrate(sys_, *elliptic_dmm, [-1.0, -1.0], 0.0, 1.0, 1e-2)
        assert info.value.k == 0

    @pytest.mark.parametrize("x0, tau", [((0.2, -0.9), 0.1), ((0.2, -0.9), 0.5),
                                         ((0.9, 0.1), 0.25)])
    def test_g_that_fits_only_a_stack_of_dim_rows_is_rejected(self, elliptic,
                                                               elliptic_dmm, x0, tau):
        # g indexes rows: on a block of exactly dim (2) rows it has the
        # block's shape and the wrong values (the run from (0.2, -0.9) at
        # tau=0.1 would end 0.068 off), and on one row it raises an
        # IndexError (tau=0.5).  Each raises before its first step.
        surface = dataclasses.replace(
            elliptic.surface, g=lambda x: x[0] * x[0] + x[1] * x[1] - 1.0)
        sys_ = dataclasses.replace(elliptic, surface=surface)
        with pytest.raises(EvaluationError, match="does not broadcast") as info:
            integrate(sys_, *elliptic_dmm, x0, 0.0, 2 * tau, tau)
        assert (info.value.k, info.value.t, info.value.side) == (0, 0.0, RegionSide.MINUS)
        assert str(info.value).startswith("step 0 at t=0.0: ")

    def test_g_that_raises_on_a_stack_is_rejected(self, elliptic, elliptic_dmm):
        # The probe's IndexError is the broadcast failure, dated at step 0
        # on the side of x0 = (-1, -1), outside the circle.
        circle = elliptic.surface.g
        surface = dataclasses.replace(
            elliptic.surface, g=lambda x: circle(x) if x.ndim == 1 else circle(x)[len(x) + 5])
        sys_ = dataclasses.replace(elliptic, surface=surface)
        with pytest.raises(EvaluationError) as info:
            integrate(sys_, *elliptic_dmm, [-1.0, -1.0], 0.0, 1.0, 1e-2)
        assert (info.value.k, info.value.t, info.value.side) == (0, 0.0, RegionSide.PLUS)
        assert str(info.value).startswith(
            "step 0 at t=0.0: g does not broadcast: on a stack of 3 copies of x0 ")

    def test_g_that_drops_stacked_rows_is_rejected(self, elliptic, elliptic_dmm):
        # Copies of x0 keep all rows (x < -0.5), so the probe passes; the
        # second block, from step 64, has rows with x >= -0.5 and a g of
        # fewer values than rows.
        circle = elliptic.surface.g
        surface = dataclasses.replace(
            elliptic.surface,
            g=lambda x: circle(x) if x.ndim == 1 else circle(x)[x[:, 0] < -0.5])
        sys_ = dataclasses.replace(elliptic, surface=surface)
        with pytest.raises(EvaluationError) as info:
            integrate(sys_, *elliptic_dmm, [-1.0, -1.0], 0.0, 10.0, 1e-2)
        assert (info.value.k, info.value.t, info.value.side) == (64, 0.64, RegionSide.PLUS)
        assert str(info.value) == (
            "step 64 at t=0.64: g does not broadcast over a stack of 64 states "
            "(returned shape (30,)) (on the plus side)")

    @pytest.mark.parametrize("names", [("dmm-elliptic", "dmm-midpoint"),
                                       ("rk4", "dmm-elliptic")])
    def test_marching_and_per_step_fields_hand_over(self, elliptic, names):
        # A marching field on one side and one without a march on the
        # other: every crossing hands the run from blocks to single steps
        # and back, and the blocks still change nothing.
        schemes = tuple(resolve_scheme(name, elliptic, side)
                        for name, side in zip(names, (RegionSide.MINUS, RegionSide.PLUS)))
        one_row = tuple(dvf if dvf.march is None else one_row_march(dvf) for dvf in schemes)
        _, oracle_events = elliptic_oracle(elliptic, [-1.0, -1.0], 0.0, 10.0)
        for tau in (0.04, 0.01, 0.0025):
            blocks, single = (integrate(elliptic, *pair, [-1.0, -1.0], 0.0, 10.0, tau)
                              for pair in (schemes, one_row))
            assert_same_run(blocks, single)
            assert len(blocks.events) == len(oracle_events) == 10

    def test_non_finite_g_inside_a_block_raises_at_its_step(self, elliptic, elliptic_dmm):
        # g is nan beyond |x|^2 = 101 on the escaping orbit from (2, 1):
        # the block from step 320 holds the first such row, which is
        # solved again on its own and raises there.
        circle = elliptic.surface.g

        def g(x):
            gv = circle(x)
            return np.where(gv > 100.0, np.nan, gv)

        sys_ = dataclasses.replace(elliptic, surface=dataclasses.replace(elliptic.surface, g=g))
        calls = []
        schemes = (recording_march(dvf, calls) for dvf in elliptic_dmm)
        with pytest.raises(EvaluationError, match="g\\(x\\) is not finite") as info:
            integrate(sys_, *schemes, [2.0, 1.0], 0.0, 2.0, 1e-3)
        assert (info.value.k, info.value.t) == (332, 0.332)
        assert info.value.side is RegionSide.PLUS
        assert str(info.value).startswith("step 332 at t=0.332: ")
        (t_block, _, n, rows), (t_leg, _, n_leg, _) = calls[-2:]
        assert round(t_block / 1e-3) == 320 and rows == n > 332 - 320 + 1
        assert (t_leg, n_leg) == (0.332, 1)


def assert_same_run(a, b):
    """The trajectories ``a`` and ``b`` are equal bit for bit."""
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)
    assert len(a.events) == len(b.events)
    for ev_a, ev_b in zip(a.events, b.events):
        for f in dataclasses.fields(ev_a):
            x, y = getattr(ev_a, f.name), getattr(ev_b, f.name)
            assert np.array_equal(x, y) if f.name == "x_hat" else x == y, f.name
    assert ([(s.start_index, s.side) for s in a.region_segments]
            == [(s.start_index, s.side) for s in b.region_segments])


def float_digest(values) -> str:
    """sha256 of the comma-joined ``float.hex`` forms of the values."""
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return hashlib.sha256(",".join(map(float.hex, flat)).encode()).hexdigest()


# The elliptic dmm-elliptic run from (-1, -1) to T=10, one entry per step
# size: the crossing steps, the sides entered, and the digests of the
# grid times, the states, t_hat and x_hat.  Each pinned quantity comes
# from Python-float and elementwise numpy arithmetic (the march, g and
# Brent's iteration), not from a BLAS dot or libm's pow, so its bits do
# not depend on the host.
ELLIPTIC_GOLDEN = {
    0.04: ([24, 40, 71, 87, 119, 135, 166, 182, 213, 230], "-+-+-+-+-+", (
        "d104880d3a14b35029469151a93dcc71ba755d329c53fd269a5081ef6431c6eb",
        "a21b1e0c5ccbbd7ae20bd35dbd1ef78244a1e3521cebbdd7a77002126a21c8b9",
        "e7eed0cc2b8d34bbe4805b13c1db7664bf7c01102ef308a0db3b7997dfbd7c66",
        "91015520910d64529125ff69bbc3ef9f7f6f42426c33faf15ea76656745c1358")),
    0.02: ([48, 80, 143, 175, 238, 270, 332, 364, 427, 459], "-+-+-+-+-+", (
        "81a8f3616207c3649feb04e931ea4dd10464dd403a65746672369694a5043734",
        "35410f7d0f5179e0026046d58d2a1aadbdc79fd08653eb9cda6c146d820f39d7",
        "ec69cefbfcb8c87057a8d9c02e2822217604e3838fbc2b6fce6b8f56792bae85",
        "c982bca2aad3f1d60c0ef6bdab2202feb58bf28c8f07d83d773f272c3314210e")),
    0.01: ([97, 161, 286, 351, 476, 540, 665, 729, 854, 919], "-+-+-+-+-+", (
        "7f96e48a5b803c9c8fc61c17f1fa3d82c227ac47e0c85c491c332fa3f8fd4f4a",
        "20c89942ee0a58e0a84dc72508bf793665e70ae311dbd9439b2299a9071795a6",
        "5b7bb1d187b1358e841ede9142156f81271b83d5add3cb646b9f8fcb0bd529af",
        "f5a371226987202dd0165e143785f7d66fcd142fb8451118de499f6fdb68fb76")),
    0.005: ([195, 323, 573, 702, 952, 1080, 1331, 1459, 1709, 1838], "-+-+-+-+-+", (
        "6a3438bb8248c73a566550fa28dfb75ff90d848679bdc805e4b66058a96eb55b",
        "350492d3e0a17db09806c1a230f3fdd89a4c86ed334c6da587a78b5224129ff2",
        "180d85400ed756137a6410513bd4d20ed94622616fa5147ae1178600e6a5281a",
        "5ef7875e1e5b8bcaccf37de0e088ca931093181a0da40a6acdcf74eeb079d7b6")),
    0.0025: ([390, 646, 1147, 1404, 1904, 2161, 2662, 2919, 3419, 3676], "-+-+-+-+-+", (
        "fee40f0b3194a355134aace187bb207364589e22786f5ecaba34de0c9401c727",
        "57ba1cfb281a7ac6ee1fe3dd7d7b46e00a86222ee775bd7d80e5b25d4780f845",
        "891ad87b6ba8406e9f5fcd937e87b016ab7425443e89ca5493b3290cb7e719a8",
        "e8414e537189de57a31f9939d2bb4516ada799b90793eb3d27b4a41b90dbf097")),
}


def counted_elliptic(elliptic):
    """The elliptic system and its dmm-elliptic fields, counting calls.

    Counts single-state g evaluations (``g``), g on stacks (``g_stack``),
    one-step marches (``leg``) and longer ones (``block``), and
    grad psi evaluations (``grad_psi``).
    """
    counts = dict.fromkeys(("g", "g_stack", "leg", "block", "grad_psi"), 0)

    def counting_g(x):
        counts["g" if np.ndim(x) == 1 else "g_stack"] += 1
        return elliptic.surface.g(x)

    def counting_set(cs):
        def grad_psi(x):
            counts["grad_psi"] += 1
            return cs.grad_psi(x)
        return dataclasses.replace(cs, grad_psi=grad_psi)

    def counting_march(dvf):
        def march(t_a, x, h, n):
            counts["leg" if n == 1 else "block"] += 1
            return dvf.march(t_a, x, h, n)
        return dataclasses.replace(dvf, march=march)

    sys_ = dataclasses.replace(
        elliptic, surface=dataclasses.replace(elliptic.surface, g=counting_g),
        conserved_minus=counting_set(elliptic.conserved_minus),
        conserved_plus=counting_set(elliptic.conserved_plus))
    schemes = tuple(counting_march(resolve_scheme("dmm-elliptic", sys_, side))
                    for side in (RegionSide.MINUS, RegionSide.PLUS))
    return sys_, schemes, counts


class TestCrossingCost:
    @pytest.mark.parametrize("tau", sorted(ELLIPTIC_GOLDEN, reverse=True))
    def test_marched_runs_match_the_golden_digests(self, elliptic, elliptic_dmm, tau):
        steps, sides, digests = ELLIPTIC_GOLDEN[tau]
        traj = integrate(elliptic, *elliptic_dmm, [-1.0, -1.0], 0.0, 10.0, tau)
        assert [ev.step_index for ev in traj.events] == steps
        assert "".join("+" if ev.side_to is RegionSide.PLUS else "-"
                       for ev in traj.events) == sides
        assert (float_digest(traj.times), float_digest(traj.states),
                float_digest([ev.t_hat for ev in traj.events]),
                float_digest([ev.x_hat for ev in traj.events])) == digests

    def test_a_crossing_costs_its_solves(self, elliptic, monkeypatch):
        # A ratchet on the crossing bookkeeping.  The marched row that
        # ends a crossing step goes to the crossing code with its g from
        # the block, the localization takes g at both step ends from its
        # caller, and the classification reuses the event's g.  What is
        # left per crossing: g once per leg solved (4.3 in-step legs and
        # the completion leg, all one-step marches), and grad psi
        # once, for the rank check on the side entered, by its norm.
        sys_, schemes, counts = counted_elliptic(elliptic)
        svd_calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            svd_calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        traj = integrate(sys_, *schemes, [-1.0, -1.0], 0.0, 10.0, 0.01)
        n = len(traj.events)
        assert n == 10
        # Beyond the crossings: g at x0, the rank check at x0, and g on
        # the stack that probes whether g broadcasts.
        assert counts["g"] - 1 == counts["leg"] == 53
        assert counts["grad_psi"] - 1 == n
        assert counts["g_stack"] - 1 == counts["block"] == 13
        assert svd_calls == []

    def test_an_elliptic_sweep_marches_few_rows_past_its_crossings(self, elliptic,
                                                                   elliptic_dmm):
        # A ratchet on the rows that blocks march past a crossing and
        # drop, and on the number of blocks: the five sweep runs need
        # 7,750 grid steps; blocks of 64 from each crossing marched 9,043
        # rows, and a first march that ends two rows past the predicted
        # crossing marches 8,152.  Blocks of 64 aligned to that crossing
        # took 149 marches; one march per predicted segment takes 80.
        steps = rows = blocks = 0
        for tau in sorted(ELLIPTIC_GOLDEN, reverse=True):
            calls = []
            schemes = (recording_march(dvf, calls) for dvf in elliptic_dmm)
            steps += len(integrate(elliptic, *schemes, [-1.0, -1.0], 0.0, 10.0, tau).times) - 1
            rows += sum(m for _, h, _, m in calls if h == tau)
            blocks += sum(1 for _, _, n, _ in calls if n > 1)
        assert steps == 7750
        assert rows <= 8152
        assert blocks <= 80

    def test_no_sweep_block_marches_one_row(self, elliptic, elliptic_dmm):
        # A predicted segment's first march takes the predicted steps
        # and two more, so no march call pays for a single grid step,
        # and none takes more than MARCH_ROWS_MAX.
        for tau in sorted(ELLIPTIC_GOLDEN, reverse=True):
            calls = []
            schemes = (recording_march(dvf, calls) for dvf in elliptic_dmm)
            integrate(elliptic, *schemes, [-1.0, -1.0], 0.0, 10.0, tau)
            blocks = [n for _, h, n, _ in calls if h == tau]
            assert min(blocks) > 1
            assert max(blocks) <= engine.MARCH_ROWS_MAX

    def test_row_cap_changes_nothing(self, elliptic, elliptic_dmm, monkeypatch):
        # Predicted segments at tau=0.0025 take about 250 to 500 steps:
        # with the cap at 100 their first marches are cut to 100 rows,
        # and the run equals, bit for bit, one marched a step at a time.
        monkeypatch.setattr(engine, "MARCH_ROWS_MAX", 100)
        calls = []
        recorded = tuple(recording_march(dvf, calls) for dvf in elliptic_dmm)
        one_row = tuple(map(one_row_march, elliptic_dmm))
        capped, single = (integrate(elliptic, *schemes, [-1.0, -1.0], 0.0, 10.0, 0.0025)
                          for schemes in (recorded, one_row))
        assert max(n for _, _, n, _ in calls) == 100
        assert max(m for _, _, _, m in calls) == 100
        assert_same_run(capped, single)
        assert len(capped.events) == 10


# Runs through every kind of leg of the step loop, one entry per run:
# the crossing steps, the sides entered, and the digests of the grid
# times, the states, t_hat and x_hat, as in ELLIPTIC_GOLDEN.  Explicit
# grid legs on the harmonic system (T=20); per-step RK4 legs handing
# over to dmm-elliptic blocks; perturbed completion legs; two crossings
# inside one step, and a walk-in that halves six times.  Iterated
# dmm-midpoint runs are left out: their quintic start is a BLAS dot,
# whose bits may differ between hosts.  The wiggle fields call libm's
# cos.
LOOP_GOLDEN = {
    ("harmonic", "rk2", 0.1, None): ([7, 25, 57, 75, 106, 124, 156, 174], "-+-+-+-+", (
        "b4cc82cd8b88e12c0bf229b56092d24ba961bd0ef6c6390d1780048ef27c227d",
        "09043ed24ead39b80c7468d9f1e672f6490f7815a37e2bcf65f019a4005294e9",
        "84aed92c96bef3def09aa7f90463f0d4f66908df3e94e03c18f81c5b0ef51d8c",
        "79ec34dbc26030e7b932a9881fc32767ebf08abddb6c8e9a8f11d854cd1afa21")),
    ("harmonic", "rk2", 0.01, None): ([78, 259, 574, 755, 1069, 1250, 1565, 1746],
                                      "-+-+-+-+", (
        "bdeec9fe4a741b13668174541d56053983113ebe5c78db3c6456995a07e5ecb5",
        "1412152a9c5fc8f6e05196d7f1096cebe13b06cfdc01dd0e209d3381f4153fa4",
        "485366f143d91503908370892e3d62c7f19ee5c2b1da0e7b0c242ebbc3fb93bd",
        "9286a2c16d1b7deaa246fb107f062f0f01e81df0d2621ba80c086cc49d4f8352")),
    ("harmonic", "rk4", 0.1, None): ([7, 25, 57, 75, 106, 125, 156, 174], "-+-+-+-+", (
        "b4cc82cd8b88e12c0bf229b56092d24ba961bd0ef6c6390d1780048ef27c227d",
        "afbbe5b438470ee14f430bcb471df789a0888b23bcefa2f11af0bd5e5faa5bdf",
        "46733e41010e826b1f92bf86fc14a4571ac0b5f67433e0046f3bf1af93b0caa0",
        "f28ffb9c14fa4623ae658f0cb3a35a2c808bb6229b018d38268a4f0447593fc0")),
    ("harmonic", "rk4", 0.01, None): ([78, 259, 574, 755, 1069, 1250, 1565, 1746],
                                      "-+-+-+-+", (
        "bdeec9fe4a741b13668174541d56053983113ebe5c78db3c6456995a07e5ecb5",
        "d248b963dd287faa604b20f9e3eb2e363153049dd9f5e4e0e8661bd1afa38a4e",
        "b0b1f4d37f683ad22858e83a08486dd20b702da294711c78e8cde9287fa73dab",
        "203064adfdb59acf357877bcb945765404561a673687e26f5f8e62ec19788322")),
    ("elliptic", "rk4|dmm-elliptic", 0.01, None): (
        [97, 161, 286, 351, 476, 540, 665, 729, 854, 919], "-+-+-+-+-+", (
            "7f96e48a5b803c9c8fc61c17f1fa3d82c227ac47e0c85c491c332fa3f8fd4f4a",
            "53ac6e52239dc52fc591ca648b4e0b0df5ac87c7b33202b8bd0361c23d78c32c",
            "071720b46244696175b828c8497b8054926b67b21634f74cb5dd346203657ba0",
            "33fd62cf446a68ceb5fcb3634a368f5bf2e68dc6a8ff758f3b8ce375ec3487d5")),
    ("elliptic", "dmm-elliptic", 0.04, (1.0, 2.0)): (
        [24, 40, 71, 87, 119, 135, 166, 182, 214, 230], "-+-+-+-+-+", (
            "d104880d3a14b35029469151a93dcc71ba755d329c53fd269a5081ef6431c6eb",
            "1d56e68d37e8d2f4939e13bdd1324d1c4224c5c10ca196ed27971dcb90aceb5d",
            "0c492dbc4ee1363e758990fc7e7e19bcf0a33bff95df2bdaca8844ba2ee75f99",
            "bc033720290bf0a26bf716c0a5dde70474a9aa3ba01fca9abd412f2789a1307f")),
    ("elliptic", "dmm-elliptic", 0.04, (-3.0, 1.0)): (
        [24, 40, 71, 87, 118, 134, 165, 181, 212, 228], "-+-+-+-+-+", (
            "d104880d3a14b35029469151a93dcc71ba755d329c53fd269a5081ef6431c6eb",
            "9337344a2bc002cece775057eaba9e8cd97b16d434ebe67709baaecd8cd5be64",
            "9e71417ef5a12d870c0fca375c8c6229275ce32b91e51180b96b69b8750257b3",
            "dae41ec2823e8b578c35e692db760aca7e464a9a362b40af785eb12540eb6d12")),
    ("wiggle", "rk4", 1.0, None): ([0, 0, 1, 1, 2, 2], "-+-+-+", (
        "7de6a3e8b81914b121f3ad89004fb39a73cfc71c4884164b034766ce18a5919c",
        "9eef7641b8b4aed4d5d8ca2edf7d5eb7c7d88c9e21211f2d6cf7c62d69c6d586",
        "0a888501dbfcc2781c183ec2a77a58a0f7fd70657129a45fe996d7dbe70c9d5d",
        "2b5484b4e6aef3f3654a2cb2a16fb14a6b22a1fe15476ae62ea96f59c05c523d")),
    ("walk-in", "rk4", 1.0, None): ([1, 1, 2, 2], "-+-+", (
        "7de6a3e8b81914b121f3ad89004fb39a73cfc71c4884164b034766ce18a5919c",
        "7d9ca3c93c1d5f04e5f30f90acc77f8bac9ab562acd9d89b9a110e6d338852ed",
        "43c458a65eb6afeb280461fc2a5b4b17915a6e30458f931b05ad4976b453bde8",
        "8391955e8cafd5b485f087e346f43eb0ed34597d92b4fd478be43a51972166f1")),
}

# The wiggle runs from t=0 to 3 with tau=1: (a_minus, a_plus, offset)
# of wiggle_system at frequency 2 pi, and x0.
WIGGLES = {"wiggle": ((2.0, 1.0, 0.05), [0.0, 0.13]),
           "walk-in": ((3.0, 0.5, 0.02), [0.0, 0.3])}


def wiggle_run(name, surface_scale=1.0):
    """The RK4 run ``name`` of WIGGLES, with g and grad g scaled by ``surface_scale``."""
    (a_minus, a_plus, offset), x0 = WIGGLES[name]
    sys_ = wiggle_system(2.0 * math.pi, a_minus, a_plus, offset=offset)
    surface = dataclasses.replace(
        sys_.surface, g=lambda x: surface_scale * (x[..., 1] - offset),
        grad_g=lambda x: np.array([0.0, surface_scale]))
    dvfs = (rk4_dvf(sys_.f_minus), rk4_dvf(sys_.f_plus))
    return integrate(dataclasses.replace(sys_, surface=surface), *dvfs, x0, 0.0, 3.0, 1.0)


class TestLegLoop:
    @pytest.mark.parametrize("key", list(LOOP_GOLDEN), ids=str)
    def test_runs_match_the_golden_digests(self, request, key):
        system, names, tau, perturbation = key
        if system in WIGGLES:
            traj = wiggle_run(system)
        else:
            sys_ = request.getfixturevalue(system)
            minus, _, plus = names.partition("|")
            schemes = (resolve_scheme(minus, sys_, RegionSide.MINUS),
                       resolve_scheme(plus or minus, sys_, RegionSide.PLUS))
            x0, T = ([1.0, 1.0], 20.0) if system == "harmonic" else ([-1.0, -1.0], 10.0)
            traj = integrate(sys_, *schemes, x0, 0.0, T, tau, perturbation=perturbation)
        steps, sides, digests = LOOP_GOLDEN[key]
        assert [ev.step_index for ev in traj.events] == steps
        assert "".join("+" if ev.side_to is RegionSide.PLUS else "-"
                       for ev in traj.events) == sides
        assert (float_digest(traj.times), float_digest(traj.states),
                float_digest([ev.t_hat for ev in traj.events]),
                float_digest([ev.x_hat for ev in traj.events])) == digests

    def test_walk_in_halves_until_it_finds_a_signed_point(self):
        # The completion leg of the first crossing starts on the surface;
        # the walk-in from there halves the leg six times before phi has
        # the sign opposite its end.
        traj = wiggle_run("walk-in")
        assert [ev.step_index for ev in traj.events] == [1, 1, 2, 2]
        assert "".join("+" if ev.side_to is RegionSide.PLUS else "-"
                       for ev in traj.events) == "-+-+"
        assert max(abs(ev.residual_g) for ev in traj.events) <= 8.2e-16
        assert [ev.stats_locate.iterations for ev in traj.events] == [11, 19, 12, 10]

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_steep_g_crosses_where_the_unscaled_one_does(self, scale):
        # g and grad g scaled by 1e6 or 1e9 describe the same surface.  A
        # completion leg starts at x_hat, whose |g| (7e-10 at 1e6) exceeds
        # the absolute on-surface band; it still walks in from the surface.
        ref, steep = wiggle_run("wiggle"), wiggle_run("wiggle", scale)
        assert len(steep.events) == len(ref.events) == 6
        assert ([(ev.step_index, ev.side_from, ev.side_to) for ev in steep.events]
                == [(ev.step_index, ev.side_from, ev.side_to) for ev in ref.events])
        np.testing.assert_allclose([ev.t_hat for ev in steep.events],
                                   [ev.t_hat for ev in ref.events], rtol=0, atol=1e-14)


def euler_predictor(leg):
    h = leg["t_b"] - leg["t_a"] if leg["h"] is None else leg["h"]
    return leg["x_a"] + h * leg["dvf"].evaluate(leg["t_a"], leg["x_a"], leg["t_b"], leg["x_a"])


class TestStartingValue:
    """Which value each fixed-point leg solve starts from, and what it costs."""

    @pytest.fixture
    def recorded_run(self, harmonic, harmonic_dmm, monkeypatch):
        # Every leg solve, with its step, the starting value its
        # fixed-point iteration received and the iterations it took.
        legs = []
        solve_leg, fixed_point = engine._solve_leg, engine.fixed_point

        def recording_leg(dvf, t_a, x_a, t_b, h=None, guess=None, *, memory=None):
            legs.append({"dvf": dvf, "t_a": t_a, "x_a": x_a.copy(), "t_b": t_b,
                         "h": h, "start": guess})
            return solve_leg(dvf, t_a, x_a, t_b, h, guess, memory=memory)

        def recording_fixed_point(map_, x0, *, memory=None):
            x, stats = fixed_point(map_, x0, memory=memory)
            legs[-1]["guess"], legs[-1]["iterations"] = x0.copy(), stats.iterations
            return x, stats

        with monkeypatch.context() as m:
            m.setattr(engine, "_solve_leg", recording_leg)
            m.setattr(engine, "fixed_point", recording_fixed_point)
            traj = run_harmonic(harmonic, harmonic_dmm, 3.0, 1e-3)
        assert len(traj.events) == 2
        # locate_crossing knows the step start, so no leg has zero length.
        assert all(leg["t_b"] != leg["t_a"] for leg in legs)
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
        # Grid legs step by exactly tau, all other legs by t_b - t_a.
        assert all(leg["h"] == traj.tau for leg in grid.values())
        assert all(leg["h"] is None for leg in other)
        return traj, grid, other

    def test_warm_grid_legs_start_from_the_extrapolation(self, recorded_run, harmonic,
                                                        harmonic_dmm, monkeypatch):
        traj, grid, _ = recorded_run
        x = traj.states
        warm = [k for k in grid if k - 5 >= traj.segment_at(k).start_index]
        assert len(warm) == len(grid) - 5 * len(traj.region_segments)
        quintic = np.array([-1.0, 6.0, -15.0, 20.0, -15.0, 6.0])
        for k in warm:
            np.testing.assert_array_equal(grid[k]["guess"], quintic.dot(x[k - 5:k + 1]))
        iterations = [grid[k]["iterations"] for k in warm]
        assert sum(iterations) / len(iterations) <= 1.1

        # Late in a long run the grid times are rounded to a coarser ulp;
        # warm legs still take one iteration, as they step by tau.
        late = []
        solve_leg = engine._solve_leg

        def recording_leg(dvf, t_a, x_a, t_b, h=None, guess=None, *, memory=None):
            x, stats = solve_leg(dvf, t_a, x_a, t_b, h, guess, memory=memory)
            if guess is not None and t_a > 64.0:
                late.append(stats.iterations)
            return x, stats

        monkeypatch.setattr(engine, "_solve_leg", recording_leg)
        run_harmonic(harmonic, harmonic_dmm, 70.0, 1e-3)
        assert len(late) >= 5000
        assert sum(late) / len(late) <= 1.1

    def test_other_legs_start_from_the_euler_predictor(self, recorded_run):
        # The first five grid legs of each segment, the completion legs
        # and the in-step legs of locate_crossing.
        traj, grid, other = recorded_run
        cold = [grid[k] for k in grid if k - 5 < traj.segment_at(k).start_index]
        assert len(cold) == 5 * len(traj.region_segments)
        completion = [leg for leg in other if leg["t_a"] in {ev.t_hat for ev in traj.events}]
        assert len(completion) == len(traj.events)
        assert len(other) > len(completion)
        for leg in cold + other:
            assert leg["start"] is None
            np.testing.assert_array_equal(leg["guess"], euler_predictor(leg))

    def test_coarse_steps_average_at_most_four_and_a_half_updates(self, monkeypatch):
        # At tau 0.05 and 0.1 plain updates contract by up to h*omega/2
        # each and took about 8 per solve; the mixed iteration solves the
        # affine step map of a linear field from three.
        updates = []
        fixed_point = engine.fixed_point

        def counting_fixed_point(map_, x0, *, memory=None):
            x, stats = fixed_point(map_, x0, memory=memory)
            updates.append(stats.iterations)
            return x, stats

        monkeypatch.setattr(engine, "fixed_point", counting_fixed_point)
        for omega2, n_events in [((3.0, 1.0), 3), ((0.5, 4.0), 2)]:
            sys_ = harmonic_system(*omega2)
            schemes = [resolve_scheme("dmm-midpoint", sys_, side)
                       for side in (RegionSide.MINUS, RegionSide.PLUS)]
            for tau in (0.1, 0.05):
                traj = run_harmonic(sys_, schemes, 6.0, tau)
                assert len(traj.events) == n_events
                assert conserved_error_series(traj, sys_).max() <= 1e-13
        assert sum(updates) / len(updates) <= 4.5

    def test_coarse_steps_with_carried_pairs_average_at_most_three_updates(self,
                                                                           monkeypatch):
        # The runs above: a grid leg's solve starts from the difference
        # pairs of the segment's last solve, which hold the slope of its
        # affine step map, and mostly stops at its second update.
        updates, carried = [], []
        fixed_point = engine.fixed_point

        def counting_fixed_point(map_, x0, *, memory=None):
            carried.append(bool(memory))
            x, stats = fixed_point(map_, x0, memory=memory)
            updates.append(stats.iterations)
            return x, stats

        monkeypatch.setattr(engine, "fixed_point", counting_fixed_point)
        for omega2 in [(3.0, 1.0), (0.5, 4.0)]:
            sys_ = harmonic_system(*omega2)
            schemes = [resolve_scheme("dmm-midpoint", sys_, side)
                       for side in (RegionSide.MINUS, RegionSide.PLUS)]
            for tau in (0.1, 0.05):
                run_harmonic(sys_, schemes, 6.0, tau)
        assert sum(updates) / len(updates) <= 3.0
        assert sum(carried) >= len(updates) / 2

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

            def counting_fixed_point(map_, x0, *, memory=None):
                count["legs"] += 1
                return fixed_point(counted(map_), x0, memory=memory)

            def cold_leg(dvf, t_a, x_a, t_b, h=None, guess=None, *, memory=None):
                return solve_leg(dvf, t_a, x_a, t_b, h)

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


class TestCarriedPairs:
    """Grid legs hand their solves' difference pairs on within a segment."""

    def test_seeded_coarse_problems_match_the_runs_without_them(self, monkeypatch):
        # 40 problems drawn as the coarse-step ensemble draws them.  Each
        # run against the same run with the pairs dropped: the same
        # events, states and crossing times to rounding, conservation,
        # and every crossing within 4 tau^2 of the exact one.
        rng = np.random.default_rng(2024)
        T = 6.0
        solve_leg = engine._solve_leg

        def without_pairs(dvf, t_a, x_a, t_b, h=None, guess=None, *, memory=None):
            return solve_leg(dvf, t_a, x_a, t_b, h, guess)

        for _ in range(40):
            w2m, w2p = rng.uniform(0.5, 4.0, size=2)
            radius, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            x0 = [radius * math.cos(angle), radius * math.sin(angle)]
            tau = float(rng.choice([0.05, 0.1]))
            sys_ = harmonic_system(w2m, w2p)
            schemes = [resolve_scheme("dmm-midpoint", sys_, side)
                       for side in (RegionSide.MINUS, RegionSide.PLUS)]
            traj = integrate(sys_, *schemes, x0, 0.0, T, tau)
            with monkeypatch.context() as m:
                m.setattr(engine, "_solve_leg", without_pairs)
                ref = integrate(sys_, *schemes, x0, 0.0, T, tau)
            assert ([(ev.step_index, ev.side_from, ev.side_to) for ev in traj.events]
                    == [(ev.step_index, ev.side_from, ev.side_to) for ev in ref.events])
            np.testing.assert_allclose(traj.states, ref.states, rtol=0, atol=1e-12)
            np.testing.assert_allclose([ev.t_hat for ev in traj.events],
                                       [ev.t_hat for ev in ref.events], rtol=0, atol=1e-12)
            assert conserved_error_series(traj, sys_).max() <= 1e-11
            allow = 4.0 * tau * tau
            _, exact = harmonic_oracle(w2m, w2p, x0, 0.0, T + allow)
            assert (sum(ev.t_star <= T - allow for ev in exact) <= len(traj.events)
                    <= len(exact))
            for ev, ex in zip(traj.events, exact):
                assert abs(ev.t_hat - ex.t_star) <= allow


def guarded(dvf):
    """``dvf`` with its leg map, and an ``evaluate`` that fails if called."""
    def evaluate(t_a, x_a, t_b, x_b):
        raise AssertionError("an array step map was taken")

    evaluate.leg_map = dvf.evaluate.leg_map
    return dataclasses.replace(dvf, evaluate=evaluate)


def unmapped(dvf):
    """``dvf`` on the array step map: an ``evaluate`` with no leg map."""
    evaluate = dvf.evaluate
    return dataclasses.replace(dvf, evaluate=lambda *args: evaluate(*args))


def fixed_point_updates(monkeypatch, run):
    """The result of ``run()`` and the updates of each fixed-point solve it made."""
    updates = []
    fixed_point = engine.fixed_point

    def counting(map_, x0, *, memory=None):
        res = fixed_point(map_, x0, memory=memory)
        updates.append(res[1].iterations)
        return res

    with monkeypatch.context() as m:
        m.setattr(engine, "fixed_point", counting)
        return run(), updates


class TestFloatLegMap:
    """Iterated legs of a field whose evaluate carries a leg map solve
    through it, with the bits of the array step map; others do not."""

    def test_seeded_coarse_problems_take_the_leg_map(self, monkeypatch):
        # 40 problems drawn as the coarse-step ensemble draws them.  The
        # leg map solves every iterated leg (evaluate is never called),
        # with the array path's bits and fixed-point updates.
        rng = np.random.default_rng(33)
        total = 0
        for _ in range(40):
            w2m, w2p = rng.uniform(0.5, 4.0, size=2)
            radius, angle = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * math.pi)
            x0 = [radius * math.cos(angle), radius * math.sin(angle)]
            tau = float(rng.choice([0.05, 0.1]))
            sys_ = harmonic_system(w2m, w2p)
            schemes = scheme_pair(sys_, "dmm-midpoint")
            traj, updates = fixed_point_updates(monkeypatch, lambda: integrate(
                sys_, *map(guarded, schemes), x0, 0.0, 6.0, tau))
            ref, ref_updates = fixed_point_updates(monkeypatch, lambda: integrate(
                sys_, *map(unmapped, schemes), x0, 0.0, 6.0, tau))
            assert_same_run(traj, ref)
            assert updates == ref_updates
            total += sum(updates)
        assert total > 5_000

    @pytest.mark.parametrize("tau", [0.02, 0.8])
    def test_elliptic_midpoint_takes_the_leg_map(self, elliptic, monkeypatch, tau):
        # At tau=0.8 fixed-point updates overflow and Newton solves those legs.
        schemes = scheme_pair(elliptic, "dmm-midpoint")
        traj, updates = fixed_point_updates(monkeypatch, lambda: integrate(
            elliptic, *map(guarded, schemes), [-1.0, -1.0], 0.0, 3.0, tau))
        ref, ref_updates = fixed_point_updates(monkeypatch, lambda: integrate(
            elliptic, *map(unmapped, schemes), [-1.0, -1.0], 0.0, 3.0, tau))
        assert_same_run(traj, ref)
        assert updates == ref_updates and traj.events

    @pytest.mark.parametrize("tau", [0.1, 1.5])
    def test_a_replaced_evaluate_sees_every_leg(self, harmonic, harmonic_dmm, monkeypatch,
                                                tau):
        # Grid, in-step and completion legs, and at tau=1.5 Newton legs:
        # every evaluation the step maps make is one call of the new
        # evaluate, and the run is the leg map's, bit for bit.
        calls = []

        def recording(dvf):
            evaluate = dvf.evaluate

            def evaluate_(t_a, x_a, t_b, x_b):
                calls.append((t_a, t_b))
                return evaluate(t_a, x_a, t_b, x_b)
            return dataclasses.replace(dvf, evaluate=evaluate_)

        legs, maps = [], []
        solve_leg, fixed_point, newton = engine._solve_leg, engine.fixed_point, engine.newton

        def recording_leg(dvf, t_a, x_a, t_b, h=None, guess=None, *, memory=None):
            legs.append((t_a, t_b, guess is None))
            return solve_leg(dvf, t_a, x_a, t_b, h, guess, memory=memory)

        def counted(map_):
            def map_counted(x):
                maps.append(1)
                return map_(x)
            return map_counted

        monkeypatch.setattr(engine, "_solve_leg", recording_leg)
        monkeypatch.setattr(engine, "fixed_point",
                            lambda map_, x0, *, memory=None: fixed_point(counted(map_), x0,
                                                                         memory=memory))
        monkeypatch.setattr(engine, "newton", lambda F, x0: newton(counted(F), x0))
        traj = run_harmonic(harmonic, [recording(dvf) for dvf in harmonic_dmm], 20.0, tau)
        # One Euler predictor per leg without a starting value.
        assert len(calls) == len(maps) + sum(cold for _, _, cold in legs)
        assert {(t_a, t_b) for t_a, t_b, _ in legs} == set(calls)
        assert len(traj.events) >= 7
        monkeypatch.undo()
        assert_same_run(traj, run_harmonic(harmonic, harmonic_dmm, 20.0, tau))


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

    def test_step_too_large_when_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_CROSSINGS_PER_STEP", 1)
        with pytest.raises(StepTooLarge):
            integrate(self.sys, self.dvfs[0], self.dvfs[1],
                      self.x0, 0.0, 3.0, 1.0)

    def test_step_too_large_names_the_step(self, monkeypatch):
        monkeypatch.setattr(engine, "MAX_CROSSINGS_PER_STEP", 1)
        with pytest.raises(StepTooLarge) as info:
            integrate(self.sys, self.dvfs[0], self.dvfs[1],
                      self.x0, 0.0, 3.0, 1.0)
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
        # One evaluation of g, at the step end, and the end leg's solve.
        assert ev.stats_locate == solvers.SolveStats(1, 0.0, 0.0, "explicit")
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

    def test_crossing_against_the_flow_rejected(self):
        # Both fields point up, yet the discrete field steps down: the
        # crossing it finds at t = 0.5 classifies as an exit to the plus
        # side, the side the step left.
        conserved = ConservedSet(psi=lambda x: np.array([x[..., 0]]),
                                 grad_psi=lambda x: np.array([[1.0, 0.0]]),
                                 d_psi=1)
        surface = SwitchingSurface(g=lambda x: x[..., 1],
                                   grad_g=lambda x: np.array([0.0, 1.0]))
        up = lambda t, x: np.array([0.0, 1.0])
        sys_ = PwsSystem(dim=2, f_minus=up, f_plus=up, surface=surface,
                         conserved_minus=conserved, conserved_plus=conserved)
        down = DiscreteVectorField(lambda t_a, x_a, t_b, x_b: np.array([0.0, -1.0]),
                                   order=1, is_implicit=False)
        with pytest.raises(CrossingLocalizationFailed) as exc:
            integrate(sys_, down, down, [0.0, 0.5], 0.0, 1.0, 0.3)
        assert str(exc.value) == ("step 1 at t=0.3: sign change at t=0.5 contradicts "
                                  "the flow direction (on the plus side)")
        assert (exc.value.k, exc.value.t, exc.value.side) == (1, 0.3, RegionSide.PLUS)


class TestConservation:
    def test_per_segment_conservation_short_run(self, harmonic, harmonic_dmm):
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)
        errs = conserved_error_series(traj, harmonic)
        assert errs.max() <= 1e-11

    def test_psi_level_residual_at_events(self, harmonic, harmonic_dmm):
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)
        for ev in traj.events:
            assert ev.psi_level_residual <= 1e-12

    def test_steps_past_the_contraction_limit_are_solved_by_newton(self, harmonic,
                                                                   harmonic_dmm, monkeypatch):
        # At tau=1.5 the minus side's update ratio h*omega/2 is 1.30, so
        # its fixed-point legs diverge and fall back to Newton.
        newton_calls = []
        newton = engine.newton

        def counting_newton(F, x0):
            newton_calls.append(1)
            return newton(F, x0)

        monkeypatch.setattr(engine, "newton", counting_newton)
        traj = run_harmonic(harmonic, harmonic_dmm, 20.0, 1.5)
        assert newton_calls
        # The 8th crossing lags past the grid end t = 19.5.
        assert traj.times[-1] == 19.5 and len(traj.events) == 7
        crossed = {ev.step_index for ev in traj.events}
        smooth = [k for k in range(len(traj.times) - 1) if k not in crossed]
        assert smooth
        omega2 = {RegionSide.MINUS: 3.0, RegionSide.PLUS: 1.0}
        for k in smooth:
            np.testing.assert_allclose(
                traj.states[k + 1],
                midpoint_harmonic_step(omega2[traj.segment_at(k).side], traj.states[k], 1.5),
                rtol=0, atol=1e-13)
        assert conserved_error_series(traj, harmonic).max() <= 1e-13

    def test_a_leg_falls_back_to_newton_after_the_solve_budget(self, harmonic, harmonic_dmm,
                                                               monkeypatch):
        # At tau=0.8 two legs neither converge nor expand for five
        # updates running: each spends the whole budget, then Newton
        # solves it.
        spent, newton_calls = [], []
        fixed_point, newton = engine.fixed_point, engine.newton

        def recording_fixed_point(map_, x0, *, memory=None):
            calls = []

            def counted(x):
                calls.append(1)
                return map_(x)
            try:
                return fixed_point(counted, x0, memory=memory)
            except NoConvergence:
                spent.append(len(calls))
                raise

        def counting_newton(F, x0):
            newton_calls.append(1)
            return newton(F, x0)

        monkeypatch.setattr(engine, "fixed_point", recording_fixed_point)
        monkeypatch.setattr(engine, "newton", counting_newton)
        traj = run_harmonic(harmonic, harmonic_dmm, 20.0, 0.8)
        assert spent == [solvers.FP_MAX_ITER] * 2
        assert len(newton_calls) == 2
        assert conserved_error_series(traj, harmonic).max() <= 1e-13


# Reversing symmetries of the catalog systems: R f(R x) = -f(x) on both
# sides, and both keep g and the sides.
REVERSAL = {"harmonic": np.array([-1.0, 1.0]), "elliptic": np.array([1.0, -1.0])}
START = {"harmonic": [1.0, 1.0], "elliptic": [-1.0, -1.0]}


def scheme_pair(sys_, name):
    return [resolve_scheme(name, sys_, side) for side in (RegionSide.MINUS, RegionSide.PLUS)]


class TestLongTime:
    """The whole event-driven map over many crossings (Hairer, Lubich &
    Wanner, Geometric Numerical Integration, ch. XI)."""

    def reversed_runs(self, request, system, scheme, tau):
        # Integrate to T, then from R x_N over the same grid.  A reversible
        # map returns R x0, with each event time mirrored about T.
        sys_ = request.getfixturevalue(system)
        dvfs, R = scheme_pair(sys_, scheme), REVERSAL[system]
        fwd = integrate(sys_, *dvfs, START[system], 0.0, 20.0, tau)
        back = integrate(sys_, *dvfs, R * fwd.states[-1], 0.0, 20.0, tau)
        assert fwd.times[-1] == back.times[-1] == 20.0
        return fwd, back, np.abs(back.states[-1] - R * START[system]).max()

    @pytest.mark.parametrize("tau", [0.01, 0.1])
    @pytest.mark.parametrize("system, scheme", [("harmonic", "dmm-midpoint"),
                                                ("elliptic", "dmm-elliptic")])
    def test_symmetric_schemes_are_reversible(self, request, system, scheme, tau):
        fwd, back, miss = self.reversed_runs(request, system, scheme, tau)
        assert miss <= 1e-12
        assert len(back.events) == len(fwd.events) >= 8
        np.testing.assert_allclose([ev.t_hat for ev in back.events],
                                   [20.0 - ev.t_hat for ev in reversed(fwd.events)],
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tau", [0.01, 0.1])
    def test_rk2_is_not_reversible(self, request, tau):
        assert self.reversed_runs(request, "harmonic", "rk2", tau)[2] > 1e-6

    @pytest.mark.parametrize("system, T, taus", [
        ("harmonic", 20.0, [0.04, 0.02, 0.01, 0.005]),
        # 0.04 -> 0.005 gives 3.6 on the elliptic system: not yet asymptotic.
        ("elliptic", 10.0, [0.01, 0.005, 0.0025, 0.00125]),
    ])
    def test_transition_keeps_order_four_for_rk4(self, request, system, T, taus):
        # The localized crossing and the completion leg must not cost rk4
        # its order: the last crossing before T and the final state
        # converge at slope 4 against the exact solution.
        sys_ = request.getfixturevalue(system)
        oracle, oracle_events = SYSTEMS[system].oracle(sys_, START[system], 0.0, T)
        crossing_errs, state_errs = [], []
        for tau in taus:
            traj = integrate(sys_, *scheme_pair(sys_, "rk4"), START[system], 0.0, T, tau)
            assert traj.times[-1] == T
            assert len(traj.events) == len(oracle_events) >= 8
            crossing_errs.append(abs(traj.events[-1].t_hat - oracle_events[-1].t_star))
            state_errs.append(float(np.linalg.norm(traj.states[-1] - oracle(T))))
        for errs in (crossing_errs, state_errs):
            assert abs(estimate_order(taus, errs).slope - 4.0) <= 0.2

    @pytest.mark.parametrize("scheme, slope_range", [("dmm-elliptic", (0.9, 1.1)),
                                                     ("rk2", (1.8, math.inf))])
    def test_crossing_time_error_growth(self, elliptic, scheme, slope_range):
        # Symmetric and conservative: linear growth of the phase error;
        # rk2 drifts in psi, so its period drifts and the error grows
        # about quadratically.  The log-log slope is fitted over n >= 30
        # while the error stays below 0.3, half the smallest crossing
        # spacing, so events still pair up by index.
        _, oracle_events = elliptic_oracle(elliptic, START["elliptic"], 0.0, 1000.0)
        traj = integrate(elliptic, *scheme_pair(elliptic, scheme), START["elliptic"],
                         0.0, 1000.0, 1e-2)
        n = min(len(traj.events), len(oracle_events))
        assert n >= 1000
        err = np.abs(np.array([ev.t_hat for ev in traj.events[:n]])
                     - [ev.t_star for ev in oracle_events[:n]])
        end = next((i for i, e in enumerate(err) if e >= 0.3), n)
        assert end >= 400
        fit = np.arange(29, end)
        slope = np.polyfit(np.log(fit + 1.0), np.log(err[fit]), 1)[0]
        assert slope_range[0] <= slope <= slope_range[1]
