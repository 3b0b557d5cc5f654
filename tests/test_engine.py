import dataclasses
import math

import numpy as np
import pytest

import pwsint.engine as engine
from pwsint import (
    ConservedSet,
    PwsSystem,
    RegionSide,
    SolverConfig,
    SwitchingSurface,
    conserved_error_series,
    harmonic_oracle,
    integrate,
    locate_crossing,
    resolve_scheme,
    rk4_dvf,
    side_of,
    smooth_step,
)
from pwsint.engine import _solve_leg
from pwsint.errors import (
    InvalidInitialCondition,
    NonTransversalCrossing,
    RunawaySwitching,
    StepTooLarge,
)

from conftest import midpoint_harmonic_step

CFG = SolverConfig()
SQRT2 = math.sqrt(2.0)
PI4 = math.pi / 4.0


def run_harmonic(harmonic, schemes, T, tau, **kw):
    return integrate(harmonic, schemes[0], schemes[1], [1.0, 1.0], 0.0, T, tau, **kw)


class TestSmoothStep:
    def test_midpoint_step_oracle(self, harmonic_dmm):
        x = smooth_step(harmonic_dmm[1], 0.0, np.array([1.0, 1.0]), 0.1, CFG)
        np.testing.assert_allclose(x, midpoint_harmonic_step(1.0, [1.0, 1.0], 0.1),
                                   rtol=0, atol=1e-14)

    def test_zero_length_step_explicit(self, harmonic_rk2):
        x0 = np.array([0.3, 0.7])
        np.testing.assert_array_equal(
            smooth_step(harmonic_rk2[1], 1.0, x0, 1.0, CFG), x0)

    def test_zero_length_step_implicit(self, harmonic_dmm):
        x0 = np.array([0.3, 0.7])
        np.testing.assert_array_equal(
            smooth_step(harmonic_dmm[1], 1.0, x0, 1.0, CFG), x0)

    def test_step_equation_residual(self, harmonic_dmm):
        dvf = harmonic_dmm[0]
        x0 = np.array([0.5, -1.0])
        x1 = smooth_step(dvf, 0.0, x0, 0.01, CFG)
        res = x1 - x0 - 0.01 * dvf.evaluate(0.0, x0, 0.01, x1)
        assert np.linalg.norm(res) <= 10.0 * CFG.fp_tol * (1 + np.linalg.norm(x1))

    def test_elliptic_single_step_conserves(self, elliptic, elliptic_dmm):
        x0 = np.array([-1.0, -1.0])
        x1 = smooth_step(elliptic_dmm[1], 0.0, x0, 1e-3, CFG)
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
                             np.array([1.0, 1.0]), 0.83, CFG)
        assert math.isclose(ev.t_hat, 2.0 * math.tan(math.pi / 8.0), abs_tol=1e-12)
        np.testing.assert_allclose(ev.x_hat, [SQRT2, 0.0], rtol=0, atol=1e-12)
        assert abs(ev.residual_g) <= 1e-12

    def test_small_step_near_exact_time(self, harmonic, harmonic_dmm):
        # step [0.785, 0.786] straddles pi/4 at tau = 1e-3
        tau = 1e-3
        traj = run_harmonic(harmonic, harmonic_dmm, 0.785, tau)
        ev = locate_crossing(harmonic_dmm[1], harmonic.surface, 0.785,
                             traj.states[-1], tau, CFG)
        assert abs(ev.t_hat - PI4) <= 1e-5
        assert abs(ev.residual_g) <= 1e-12

    def test_level_set_identity(self, harmonic, harmonic_dmm):
        # Conservative localization keeps psi at its segment value, so the
        # crossing point agrees with the exact one.
        ev = locate_crossing(harmonic_dmm[1], harmonic.surface, 0.0,
                             np.array([1.0, 1.0]), 0.83, CFG)
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
                            np.array([1.0, 1.0]), 0.1, CFG)

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

        def counting_root(phi, a, b, cfg):
            def counted(t):
                brent_evals.append(t)
                return phi(t)
            return root(counted, a, b, cfg)

        monkeypatch.setattr(engine, "bracketed_root", counting_root)
        ev = locate_crossing(dataclasses.replace(dvf, evaluate=recording),
                             harmonic.surface, 0.0, np.array([1.0, 1.0]), 0.83, CFG)
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
        traj = run_harmonic(harmonic, harmonic_dmm, 2.0, 1e-2)
        event_steps = {ev.step_index for ev in traj.events}
        dvf = {RegionSide.MINUS: harmonic_dmm[0], RegionSide.PLUS: harmonic_dmm[1]}
        for k in range(len(traj.times) - 1):
            if k in event_steps:
                continue
            side = traj.segment_at(k).side
            x_a, x_b = traj.states[k], traj.states[k + 1]
            res = x_b - x_a - traj.tau * dvf[side].evaluate(
                traj.times[k], x_a, traj.times[k + 1], x_b)
            assert np.linalg.norm(res) <= 10 * CFG.fp_tol * (1 + np.linalg.norm(x_b))

    def test_convex_combination_residual(self, harmonic, harmonic_dmm):
        traj = run_harmonic(harmonic, harmonic_dmm, 10.0, 1e-3)
        assert traj.events
        for ev in traj.events:
            assert ev.convex_residual <= 10 * CFG.fp_tol * (
                1 + np.linalg.norm(ev.x_hat))

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
                x, _ = _solve_leg(dvf[side], t_k, x_k, float(t), CFG)
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

    @pytest.mark.parametrize("x0,t0,T,tau", [
        ([1.0], 0.0, 1.0, 1e-3),
        ([1.0, 1.0, 1.0], 0.0, 1.0, 1e-3),
        ([math.nan, 1.0], 0.0, 1.0, 1e-3),
        ([1.0, 1.0], math.nan, 1.0, 1e-3),
        ([1.0, 1.0], 0.0, math.nan, 1e-3),
        ([1.0, 1.0], 0.0, 1.0, math.nan),
        ([1.0, 1.0], 0.0, 1.0, math.inf),
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

    def test_step_too_large_when_cap_exceeded(self):
        with pytest.raises(StepTooLarge):
            integrate(self.sys, self.dvfs[0], self.dvfs[1],
                      self.x0, 0.0, 3.0, 1.0, max_crossings_per_step=1)


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
