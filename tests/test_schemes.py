import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from pwsint import (
    PwsSystem,
    RegionSide,
    conserved_error_series,
    elliptic_dmm_dvf,
    fixed_point,
    implicit_midpoint_dvf,
    integrate,
    make_system,
    resolve_scheme,
    rk2_dvf,
    rk4_dvf,
    smooth_step,
)
from pwsint.engine import _solve_leg
from pwsint.errors import ConfigError, StepTooLarge
from pwsint.systems import SYSTEMS

from conftest import midpoint_harmonic_step

EPS = float(np.finfo(float).eps)


def harmonic_field(w2):
    def f(t, x):
        return np.array([x[1], -w2 * x[0]])
    return f


def exact_rotation(w2, x0, t):
    w = math.sqrt(w2)
    c, s = math.cos(w * t), math.sin(w * t)
    return np.array([x0[0] * c + x0[1] / w * s, -w * x0[0] * s + x0[1] * c])


def solve_step(dvf, t_a, x_a, tau):
    """Solve the one-step equation of a (possibly implicit) scheme."""
    if not dvf.is_implicit:
        return x_a + tau * dvf.evaluate(t_a, x_a, t_a + tau, x_a)
    x, _ = fixed_point(lambda x: x_a + tau * dvf.evaluate(t_a, x_a, t_a + tau, x), x_a)
    return x


class TestImplicitMidpoint:
    def test_consistency_at_coincident_endpoints(self):
        dvf = implicit_midpoint_dvf(harmonic_field(1.0))
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(dvf.evaluate(0.0, x, 0.0, x), [1.0, -1.0])

    def test_declared_metadata(self):
        dvf = implicit_midpoint_dvf(harmonic_field(1.0))
        assert dvf.order == 2 and dvf.is_implicit and dvf.is_symmetric

    def test_step_matches_linear_solve_and_conserves_energy(self):
        expected = midpoint_harmonic_step(1.0, [1.0, 1.0], 0.1)
        dvf = implicit_midpoint_dvf(harmonic_field(1.0))
        x1 = solve_step(dvf, 0.0, np.array([1.0, 1.0]), 0.1)
        np.testing.assert_allclose(x1, expected, rtol=0, atol=1e-14)
        energy = 0.5 * float(x1 @ x1)
        assert abs(energy - 1.0) <= 1e-14

    def test_symmetry_in_arguments(self):
        dvf = implicit_midpoint_dvf(harmonic_field(1.0))
        a = dvf.evaluate(0.0, np.array([1.0, 1.0]), 0.1, np.array([1.09, 0.9]))
        b = dvf.evaluate(0.1, np.array([1.09, 0.9]), 0.0, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(a, b)


def array_step_map(dvf, t_a, x_a, t_b, h):
    """The step map of a leg on arrays, as the engine builds it for a
    field whose ``evaluate`` carries no leg map."""
    h = np.array(h)
    return lambda x: x_a + h * dvf.evaluate(t_a, x_a, t_b, x)


def midpoint_schemes(sys_):
    return [resolve_scheme("dmm-midpoint", sys_, side)
            for side in (RegionSide.MINUS, RegionSide.PLUS)]


class TestFloatLegMap:
    """The catalog midpoint fields solve through a float leg map with the
    bits of the array step map; a replaced callable has none."""

    # A grid leg (h = tau, which its rounded end times miss), a leg whose
    # h is its time difference, and a backward one.
    LEGS = [(0.3, 0.4, 0.1), (1.7, 1.75, 1.75 - 1.7), (0.5, 0.45, 0.45 - 0.5)]

    @pytest.mark.parametrize("side", [RegionSide.MINUS, RegionSide.PLUS])
    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_float_step_map_has_the_bits_of_the_array_one(self, name, side):
        # Every catalog midpoint field, on either side, carries a leg map.
        dvf = resolve_scheme("dmm-midpoint", make_system(name), side)
        leg_map = dvf.evaluate.leg_map
        rng = np.random.default_rng(33)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]
        states = [np.array([a, b]) for a in special for b in special]
        for scale in (1e-3, 1.0, 1e3):
            states += list(scale * rng.standard_normal((40, 2)))
        # Values whose square numpy's scalar power (libm's pow) rounds
        # otherwise than x * x; x_a = x puts one at the midpoint.
        odd = [v for v in rng.uniform(-2.0, 2.0, 20_000).tolist()
               if np.float64(v) ** 2 != v * v][:5]
        assert odd
        pairs = ([(x, np.roll(x, 1)) for x in states] + list(zip(states, states[1:]))
                 + [(np.array([v, 0.5]),) * 2 for v in odd])
        for t_a, t_b, h in self.LEGS:
            for x_a, x in pairs:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = leg_map(t_a, x_a, t_b, h)(x)
                with np.errstate(all="ignore"):
                    want = array_step_map(dvf, t_a, x_a, t_b, h)(x)
                assert got.shape == want.shape == (2,) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (t_a, x_a, x)
                assert np.signbit(got).tolist() == np.signbit(want).tolist()

    def test_user_field_has_no_leg_map(self):
        dvf = implicit_midpoint_dvf(lambda t, x: np.array([x[1], -x[0]]))
        assert getattr(dvf.evaluate, "leg_map", None) is None

    def test_replaced_field_is_integrated(self, harmonic):
        # The catalog omega^2 = 2 field as a user callable, without a kernel.
        c = np.array([1.0, -2.0])

        def g(t, x):
            return x[::-1] * c

        replaced = dataclasses.replace(harmonic, f_minus=g)
        user = PwsSystem(dim=2, f_minus=g, f_plus=harmonic.f_plus, surface=harmonic.surface,
                         conserved_minus=harmonic.conserved_minus,
                         conserved_plus=harmonic.conserved_plus, name="user")
        minus, plus = midpoint_schemes(replaced)
        assert getattr(minus.evaluate, "leg_map", None) is None
        assert plus.evaluate.leg_map is not None
        run = integrate(replaced, minus, plus, (1.0, 1.0), 0.0, 10.0, 0.1)
        same = integrate(user, *midpoint_schemes(user), (1.0, 1.0), 0.0, 10.0, 0.1)
        # The catalog system with that field takes its leg map on both sides.
        catalog = make_system("harmonic", omega2_minus=2.0, omega2_plus=1.0)
        other = integrate(catalog, *midpoint_schemes(catalog), (1.0, 1.0), 0.0, 10.0, 0.1)
        unreplaced = integrate(harmonic, *midpoint_schemes(harmonic), (1.0, 1.0), 0.0, 10.0, 0.1)
        assert len(run.events) >= 3
        for ref in (same, other):
            assert run.states.tobytes() == ref.states.tobytes()
            assert ([(ev.step_index, ev.t_hat, ev.x_hat.tobytes()) for ev in run.events]
                    == [(ev.step_index, ev.t_hat, ev.x_hat.tobytes()) for ev in ref.events])
        assert ([ev.psi_level_residual for ev in run.events]
                == [ev.psi_level_residual for ev in same.events])
        assert not np.array_equal(run.states, unreplaced.states)


class TestEllipticDmm:
    def test_consistency_plus_field(self):
        dvf = elliptic_dmm_dvf(-2.0)
        x = np.array([-1.0, -1.0])
        np.testing.assert_allclose(dvf.evaluate(0.0, x, 0.0, x), [-2.0, 1.0])

    def test_consistency_minus_field(self):
        dvf = elliptic_dmm_dvf(-3.0)
        x = np.array([-1.0, -1.0])
        np.testing.assert_allclose(dvf.evaluate(0.0, x, 0.0, x), [-2.0, 0.0])

    def test_symmetry(self):
        dvf = elliptic_dmm_dvf(-2.0)
        a = dvf.evaluate(0.0, np.array([0.3, -1.2]), 0.1, np.array([0.5, 0.7]))
        b = dvf.evaluate(0.1, np.array([0.5, 0.7]), 0.0, np.array([0.3, -1.2]))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("a_param", [-2.0, -3.0])
    def test_conservation_identity_random_steps(self, a_param):
        # psi = y^2 - x^3 - a x is exactly constant across any solution of
        # the step equation: 1000 random anchored steps.
        def psi(x):
            return x[1] ** 2 - x[0] ** 3 - a_param * x[0]

        dvf = elliptic_dmm_dvf(a_param)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x_a = rng.uniform(-1.5, 1.5, size=2)
            tau = float(rng.uniform(1e-4, 2e-2))
            x_b = solve_step(dvf, 0.0, x_a, tau)
            assert abs(psi(x_b) - psi(x_a)) <= 1e-12 * max(1.0, abs(psi(x_a)))

    @pytest.mark.parametrize("a_param", [-3.0, -2.0])
    def test_direct_solve_matches_fixed_point_leg(self, a_param):
        # 2000 seeded random steps per parameter, tau <= 0.05: the
        # quadratic root agrees with the iterated leg to the solver's mixed
        # tolerance, the step equation holds to rounding and psi is
        # conserved to rounding.
        def psi(x):
            return x[1] ** 2 - x[0] ** 3 - a_param * x[0]

        dvf = elliptic_dmm_dvf(a_param)
        iterated = dataclasses.replace(dvf, march=None)
        rng = np.random.default_rng(6)
        for _ in range(2000):
            x_a = rng.uniform(-1.5, 1.5, size=2)
            tau = float(rng.uniform(1e-4, 5e-2))
            x_d, stats_d = _solve_leg(dvf, 0.0, x_a, tau)
            x_f, stats_f = _solve_leg(iterated, 0.0, x_a, tau)
            assert (stats_d.method_used, stats_f.method_used) == ("direct", "fixed_point")
            assert np.linalg.norm(x_d - x_f) <= 1e-14 * (1.0 + np.linalg.norm(x_f))
            res = x_d - x_a - tau * dvf.evaluate(0.0, x_a, tau, x_d)
            assert np.linalg.norm(res) <= 4.0 * EPS * (1.0 + np.linalg.norm(x_d))
            assert abs(psi(x_d) - psi(x_a)) <= 1e-14

    @pytest.mark.parametrize("x_a, h", [
        ((2e6, 0.0), 1e-3),    # h^2 x >= 1: the near root is gone
        ((0.0, 200.0), 0.1),   # negative discriminant: no real root
    ])
    def test_direct_solve_without_root_raises(self, x_a, h):
        with pytest.raises(StepTooLarge, match="no root near the state"):
            elliptic_dmm_dvf(-2.0).march(0.0, np.array(x_a), h, 1)

    @pytest.mark.parametrize("x_a, h, n", [
        ((-1.0, -1.0), 0.01, 64),
        ((0.3, 1.2), 0.04, 7),
        ((-1.0, -1.0), -0.0025, 100),
    ])
    def test_n_steps_equal_n_one_step_calls(self, x_a, h, n):
        # One march of n steps of h is n one-step marches, bit for bit.
        dvf = elliptic_dmm_dvf(-3.0)
        rows = dvf.march(0.0, np.array(x_a), h, n)
        assert rows.shape == (n, 2)
        x = np.array(x_a)
        for i, row in enumerate(rows):
            x = dvf.march(i * h, x, h, 1)[0]
            np.testing.assert_array_equal(row, x)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_march_stops_before_the_first_step_without_root(self, k):
        # The orbit from (2, 1) escapes at t = 0.8087: the step of 1e-3
        # from t = 0.806, at |x| ~ 1e8, has no root.  A march that reaches
        # that state stops there, and only a march that starts there raises.
        dvf = elliptic_dmm_dvf(-2.0)
        rows = dvf.march(0.0, np.array([2.0, 1.0]), 1e-3, 1000)
        assert rows.shape == (806, 2)
        tail = dvf.march(0.0, rows[-k - 1], 1e-3, 10)
        assert tail.shape == (k, 2)
        np.testing.assert_array_equal(tail, rows[-k:])
        with pytest.raises(StepTooLarge, match=r"no root near the state, \|x\|=9\.51036e\+07"):
            dvf.march(0.0, tail[-1], 1e-3, 10)

    def test_march_backward_retraces_the_forward_march(self):
        # Symmetric in its endpoints: marching back with -h returns the
        # forward states, and psi is conserved both ways.
        a = -3.0
        dvf = elliptic_dmm_dvf(a)
        x_a = np.array([-1.0, -1.0])
        forward = dvf.march(0.0, x_a, 0.01, 50)
        backward = dvf.march(0.5, forward[-1], -0.01, 50)
        assert forward.shape == backward.shape == (50, 2)
        np.testing.assert_allclose(backward, np.vstack([forward[-2::-1], x_a]),
                                   rtol=0.0, atol=1e-13)
        psi = forward[:, 1] ** 2 - forward[:, 0] ** 3 - a * forward[:, 0]
        psi_a = x_a[1] ** 2 - x_a[0] ** 3 - a * x_a[0]
        assert np.max(np.abs(psi - psi_a)) <= 1e-13


class TestRk2:
    def test_zero_step(self):
        dvf = rk2_dvf(harmonic_field(1.0))
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(dvf.evaluate(0.0, x, 0.0, x), [1.0, -1.0])

    def test_half_step_evaluation(self):
        dvf = rk2_dvf(harmonic_field(1.0))
        got = dvf.evaluate(0.0, np.array([1.0, 1.0]), 0.1, np.array([1.0, 1.0]))
        # f(0.05, (1.05, 0.95)) for the unit oscillator
        np.testing.assert_allclose(got, [0.95, -1.05], rtol=0, atol=1e-15)

    def test_energy_not_conserved_after_one_step(self):
        # One explicit-midpoint step scales the energy by exactly
        # 1 + tau^4/4 for the unit oscillator: nonzero, tiny.
        dvf = rk2_dvf(harmonic_field(1.0))
        x1 = solve_step(dvf, 0.0, np.array([1.0, 1.0]), 0.1)
        drift = 0.5 * float(x1 @ x1) - 1.0
        assert math.isclose(drift, 0.25e-4, rel_tol=1e-9)
        assert drift != 0.0


class TestRk4:
    def test_zero_step(self):
        dvf = rk4_dvf(harmonic_field(1.0))
        x = np.array([1.0, 1.0])
        np.testing.assert_allclose(dvf.evaluate(0.0, x, 0.0, x), [1.0, -1.0])

    def test_exponential_increment(self):
        # xdot = x from 1 over h = 0.1: the increment field must match
        # (e^h - 1)/h to fourth order (difference h^4/120 + ...).
        dvf = rk4_dvf(lambda t, x: x)
        got = float(dvf.evaluate(0.0, np.array([1.0]), 0.1, np.array([1.0]))[0])
        exact = (math.e ** 0.1 - 1.0) / 0.1
        assert abs(got - exact) < 1e-6
        assert math.isclose(got, 1.0 + 0.05 + 0.01 / 6 + 0.001 / 24, rel_tol=1e-15)

    def test_local_error_against_exact_rotation(self):
        dvf = rk4_dvf(harmonic_field(1.0))
        h = 1e-3
        x1 = solve_step(dvf, 0.0, np.array([1.0, 1.0]), h)
        assert np.linalg.norm(x1 - exact_rotation(1.0, [1.0, 1.0], h)) <= 1e-14


class TestGlobalOrder:
    def run_final_error(self, dvf, tau, T=1.0):
        x = np.array([1.0, 1.0])
        n = int(round(T / tau))
        for k in range(n):
            x = smooth_step(dvf, k * tau, x, (k + 1) * tau)
        # compare at the actual end of the grid, which may differ from T
        # when tau does not divide it exactly
        return float(np.linalg.norm(x - exact_rotation(1.0, [1.0, 1.0], n * tau)))

    @pytest.mark.parametrize("maker,order", [(implicit_midpoint_dvf, 2), (rk2_dvf, 2)])
    def test_second_order_schemes(self, maker, order):
        from pwsint import estimate_order
        taus = [1e-1, 1e-2, 1e-3, 1e-4]
        errs = [self.run_final_error(maker(harmonic_field(1.0)), tau) for tau in taus]
        est = estimate_order(taus, errs)
        assert abs(est.slope - order) <= 0.2

    def test_fourth_order_rk4(self):
        # Grid stops at 10^-2.5: below that the h^4 error sits on the
        # round-off floor and the fit degenerates.
        from pwsint import estimate_order
        taus = [1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5]
        errs = [self.run_final_error(rk4_dvf(harmonic_field(1.0)), tau) for tau in taus]
        est = estimate_order(taus, errs)
        assert abs(est.slope - 4) <= 0.2

    def test_elliptic_dmm_second_order(self):
        from pwsint import estimate_order
        f = lambda t, x: np.array([2.0 * x[1], 3.0 * x[0] ** 2 - 2.0])
        ref = np.array([0.3, -1.0])
        x_exact = None
        # reference by fine rk4
        dvf_ref = rk4_dvf(f)
        x = ref.copy()
        n = 4000
        for k in range(n):
            x = smooth_step(dvf_ref, k * (0.5 / n), x, (k + 1) * (0.5 / n))
        x_exact = x
        taus = [2.5e-2, 1.25e-2, 6.25e-3, 3.125e-3]
        errs = []
        for tau in taus:
            dvf = elliptic_dmm_dvf(-2.0)
            x = ref.copy()
            n = int(round(0.5 / tau))
            for k in range(n):
                x = smooth_step(dvf, k * tau, x, (k + 1) * tau)
            errs.append(float(np.linalg.norm(x - x_exact)))
        est = estimate_order(taus, errs)
        assert abs(est.slope - 2) <= 0.2


class TestRegistry:
    def test_names_resolve(self, harmonic):
        for name in ("dmm-midpoint", "rk2", "rk4"):
            dvf = resolve_scheme(name, harmonic, RegionSide.PLUS)
            assert dvf.name == name

    def test_elliptic_scheme_uses_side_parameter(self, elliptic):
        dvf_m = resolve_scheme("dmm-elliptic", elliptic, RegionSide.MINUS)
        x = np.array([-1.0, -1.0])
        np.testing.assert_allclose(dvf_m.evaluate(0.0, x, 0.0, x), [-2.0, 0.0])

    def test_elliptic_scheme_rejected_elsewhere(self, harmonic):
        with pytest.raises(ConfigError):
            resolve_scheme("dmm-elliptic", harmonic, RegionSide.PLUS)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_catalog_scheme_conserves_its_system(self, name):
        spec = SYSTEMS[name]
        sys_ = make_system(name)
        dvfs = {side: resolve_scheme(spec.scheme, sys_, side)
                for side in (RegionSide.MINUS, RegionSide.PLUS)}
        traj = integrate(sys_, dvfs[RegionSide.MINUS], dvfs[RegionSide.PLUS],
                         spec.x0, 0.0, 6.0, 1e-2)
        assert len(traj.events) >= 3
        assert conserved_error_series(traj, sys_).max() <= 1e-11

    @pytest.mark.parametrize("name, own", [("harmonic", []),
                                           ("elliptic", ["dmm-elliptic"]),
                                           ("copy", [])])
    def test_unknown_scheme_names_the_table(self, name, own):
        # A copy of a catalog system under another name has the generic
        # schemes only.
        sys_ = (dataclasses.replace(make_system("elliptic"), name="copy") if name == "copy"
                else make_system(name))
        available = sorted(["dmm-midpoint", "rk2", "rk4", *own])
        for scheme in ("leapfrog", *({"dmm-elliptic"} - set(own))):
            with pytest.raises(ConfigError, match=re.escape(f"available: {available}")):
                resolve_scheme(scheme, sys_, RegionSide.PLUS)

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_catalog_scheme_resolves_on_both_sides(self, name):
        scheme = SYSTEMS[name].scheme
        sys_ = make_system(name)
        for side in (RegionSide.MINUS, RegionSide.PLUS):
            assert resolve_scheme(scheme, sys_, side).name == scheme

    def test_harmonic_scheme_is_the_generic_midpoint(self, harmonic):
        a, b = [integrate(harmonic, build(RegionSide.MINUS), build(RegionSide.PLUS),
                          (1.0, 1.0), 0.0, 6.0, 1e-2)
                for build in (lambda side: resolve_scheme("dmm-midpoint", harmonic, side),
                              lambda side: implicit_midpoint_dvf(harmonic.field(side)))]
        assert np.array_equal(a.times, b.times) and np.array_equal(a.states, b.states)
        assert len(a.events) >= 3
        assert ([(ev.t_hat, ev.x_hat.tolist()) for ev in a.events]
                == [(ev.t_hat, ev.x_hat.tolist()) for ev in b.events])

    def test_unknown_scheme(self, harmonic):
        with pytest.raises(ConfigError):
            resolve_scheme("leapfrog", harmonic, RegionSide.PLUS)
