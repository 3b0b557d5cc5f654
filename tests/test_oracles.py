import math

import numpy as np
import pytest

from pwsint import (
    RegionSide,
    elliptic_oracle,
    elliptic_system,
    harmonic_oracle,
    reference_trajectory,
)
from pwsint.errors import ConfigError, FiniteTimeBlowUp, InvalidInitialCondition
from pwsint.oracles import _arc, carlson_rf

SQRT2 = math.sqrt(2.0)
PI4 = math.pi / 4.0
SECOND_EVENT = PI4 + math.pi / math.sqrt(3.0)


class TestHarmonicOracle:
    def test_first_event(self):
        _, events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 10.0)
        ev = events[0]
        assert math.isclose(ev.t_star, PI4, rel_tol=0, abs_tol=1e-15)
        np.testing.assert_allclose(ev.x_star, [SQRT2, 0.0], rtol=0, atol=1e-15)
        assert ev.side_from is RegionSide.PLUS and ev.side_to is RegionSide.MINUS

    def test_second_event(self):
        _, events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 10.0)
        ev = events[1]
        assert math.isclose(ev.t_star, SECOND_EVENT, rel_tol=0, abs_tol=1e-14)
        np.testing.assert_allclose(ev.x_star, [-SQRT2, 0.0], rtol=0, atol=1e-14)
        assert ev.side_from is RegionSide.MINUS and ev.side_to is RegionSide.PLUS

    def test_segment_psi_values(self):
        # (omega^2 x^2 + y^2)/2 at segment entries: 1 on plus segments,
        # 3 on minus segments.
        oracle, _ = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 20.0)
        assert len(oracle.segments) >= 5
        for i, seg in enumerate(oracle.segments):
            want = 1.0 if seg.side is RegionSide.PLUS else 3.0
            assert math.isclose(oracle.psi_value(i), want, rel_tol=0, abs_tol=1e-13)

    def test_state_function_continuity_at_events(self):
        oracle, events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 10.0)
        for ev in events:
            left = oracle(ev.t_star - 1e-10)
            right = oracle(ev.t_star + 1e-10)
            assert np.linalg.norm(left - right) < 1e-8
            assert abs(oracle(ev.t_star)[1]) < 1e-12

    def test_event_count_matches_crossing_spacing(self):
        # After the initial arc, crossings alternate spacing pi/omega- and
        # pi/omega+, so the count over [0, T] is predictable.
        T = 50.0
        _, events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, T)
        t = PI4
        count = 1
        spacing = [math.pi / math.sqrt(3.0), math.pi]  # minus arc first
        i = 0
        while t + spacing[i % 2] <= T:
            t += spacing[i % 2]
            count += 1
            i += 1
        assert len(events) == count

    def test_conserves_within_segments(self):
        oracle, events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 10.0)
        for t in np.linspace(0.0, 10.0, 400):
            x = oracle(float(t))
            seg_i = sum(1 for ev in events if ev.t_star <= t)
            seg = oracle.segments[seg_i]
            w2 = seg.omega ** 2
            psi = 0.5 * (w2 * x[0] ** 2 + x[1] ** 2)
            assert abs(psi - oracle.psi_value(seg_i)) < 1e-12

    def test_initial_point_on_surface_rejected(self):
        with pytest.raises(InvalidInitialCondition):
            harmonic_oracle(3.0, 1.0, [1.0, 0.0], 0.0, 10.0)

    def test_parameter_override(self):
        # omega identical on both sides: plain oscillator, events pi apart
        _, events = harmonic_oracle(1.0, 1.0, [1.0, 1.0], 0.0, 10.0)
        gaps = np.diff([ev.t_star for ev in events])
        np.testing.assert_allclose(gaps, math.pi, rtol=1e-13)


class TestReferenceTrajectory:
    def test_ratio_precondition(self, elliptic):
        with pytest.raises(ConfigError):
            reference_trajectory(elliptic, [-1.0, -1.0], 0.0, 1.0, 1e-3,
                                 tau_study=1e-2)

    def test_richardson_self_consistency(self, elliptic):
        # Halving the reference step moves the final state by round-off
        # only (fourth-order scheme, short horizon with one crossing).
        r1, _ = reference_trajectory(elliptic, [-1.0, -1.0], 0.0, 1.2, 4e-4)
        r2, _ = reference_trajectory(elliptic, [-1.0, -1.0], 0.0, 1.2, 2e-4)
        assert np.linalg.norm(r1.states[-1] - r2.states[-1]) <= 1e-12

    def test_cross_validation_against_closed_form(self, harmonic):
        # Cheap version of the acceptance check: reference at 1e-3 over a
        # two-event horizon.
        ref, events = reference_trajectory(harmonic, [1.0, 1.0], 0.0, 3.0, 1e-3)
        oracle, oracle_events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 3.0)
        assert len(events) == len(oracle_events) == 2
        for got, want in zip(events, oracle_events):
            assert abs(got.t_star - want.t_star) <= 1e-10
        assert np.linalg.norm(ref.states[-1] - oracle(3.0)) <= 1e-10


class TestCarlsonRF:
    @pytest.mark.parametrize("args", [
        (1.0, 2.0, 3.0),
        (0.0, 2.0, 3.0),
        (0.5, 0.5, 2.0),
        (2.0, 2.0, 2.0),
        (1e-3, 1.0, 1e3),
        (complex(1.5, 2.0), complex(1.5, -2.0), 3.0),
        (complex(-0.5, 0.1), complex(-0.5, -0.1), 0.2),
    ])
    def test_against_scipy(self, args):
        special = pytest.importorskip("scipy.special")
        want = complex(special.elliprf(*args))
        assert abs(want.imag) <= 1e-15 * abs(want)
        assert math.isclose(carlson_rf(*args), want.real, rel_tol=2e-15)

    @pytest.mark.parametrize("args", [(0.0, 0.0, 3.0), (0.0, 2.0, 0.0), (0.0, 0.0, 0.0)])
    def test_two_zero_arguments_diverge(self, args):
        assert carlson_rf(*args) == math.inf


def half_time(a, c, lo, hi, alg):
    """1/2 int_lo^hi dx / sqrt(x^3 + a x + c) by adaptive quadrature.

    ``alg`` holds the roots of the cubic at lo and hi, if they are
    roots, which quad then takes out as algebraic endpoint weights.
    """
    integrate = pytest.importorskip("scipy.integrate")
    root_lo, root_hi = alg
    wvar = (-0.5 if root_lo else 0.0, -0.5 if root_hi else 0.0)

    def f(x):
        # the cubic with the weighted root factors divided out
        if root_lo and root_hi:
            rest = -(lo + hi) - x
        elif root_lo:
            rest = x * x + lo * x + a + lo * lo
        elif root_hi:
            rest = -(x * x + hi * x + a + hi * hi)
        else:
            rest = x ** 3 + a * x + c
        return 0.5 / math.sqrt(rest)

    val, _ = integrate.quad(f, lo, hi, weight="alg", wvar=wvar,
                            epsabs=1e-15, epsrel=1e-14, limit=200)
    return val


class TestBranchTimes:
    # x^3 - 3x + 1/2: three real roots, x = -1 on the oval between the
    # lower two.  x^3 + x + 1/2: one real root and a complex pair.
    def test_three_real_roots(self):
        a, c = -3.0, 0.5
        arc = _arc(a, c, -1.0, 1)
        assert arc.lo < -1.0 < arc.hi < 1.0
        for e in (arc.lo, arc.hi):
            assert abs(e ** 3 + a * e + c) <= 1e-15
        assert math.isclose(arc.top, half_time(a, c, arc.lo, arc.hi, (True, True)),
                            rel_tol=1e-13)
        for x in np.linspace(arc.lo, arc.hi, 9)[1:-1]:
            want = half_time(a, c, arc.lo, x, (True, False))
            assert math.isclose(arc.phase(x), want, rel_tol=1e-13), x
            # the other turning point's anchor gives the same time
            back = half_time(a, c, x, arc.hi, (False, True))
            assert math.isclose(arc.top - arc.phase(x), back, rel_tol=1e-12, abs_tol=1e-14)

    def test_complex_pair(self):
        a, c = 1.0, 0.5
        arc = _arc(a, c, 0.0, 1)
        assert arc.hi == math.inf and abs(arc.lo ** 3 + a * arc.lo + c) <= 1e-15
        for x in (-0.3, 0.0, 1.0, 10.0):
            want = half_time(a, c, arc.lo, x, (True, False))
            assert math.isclose(arc.phase(x), want, rel_tol=1e-13), x
        # time to infinity: substitute x = lo + 1/v^2 on the tail
        tail = half_time(a, c, arc.lo, 10.0, (True, False))
        integrate = pytest.importorskip("scipy.integrate")
        rest, _ = integrate.quad(
            lambda v: 0.5 * 2.0 / v ** 3 / math.sqrt((arc.lo + v ** -2) ** 3
                                                     + a * (arc.lo + v ** -2) + c),
            0.0, (10.0 - arc.lo) ** -0.5, epsabs=1e-14, epsrel=1e-13)
        assert math.isclose(arc.top, tail + rest, rel_tol=1e-12)

    @pytest.mark.parametrize("a, c, x", [(-3.0, 0.5, -1.0), (1.0, 0.5, 0.3)])
    def test_point_inverts_phase(self, a, c, x):
        arc = _arc(a, c, x, 1)
        y = math.sqrt(x ** 3 + a * x + c)
        for s in (1, -1):
            px, py = arc.point(arc.phase(x), s)
            assert abs(px - x) <= 1e-14 and abs(py - s * y) <= 1e-14


    # x^3 - 3x + 2 = (x + 2)(x - 1)^2: the level curve through the saddle
    # at x = 1, a loop from -2 and an unbounded piece from 1.
    def test_separatrix_loop(self):
        arc = _arc(-3.0, 2.0, 0.0, 1)
        assert (arc.lo, arc.hi, arc.top) == (-2.0, 1.0, math.inf)
        assert arc.phase(-2.0) == 0.0 and arc.phase(1.0) == math.inf
        for x in (-1.9, -1.0, 0.0, 0.9):
            want = half_time(-3.0, 2.0, -2.0, x, (True, False))
            assert math.isclose(arc.phase(x), want, rel_tol=1e-13), x

    def test_separatrix_tail(self):
        integrate = pytest.importorskip("scipy.integrate")
        arc = _arc(-3.0, 2.0, 2.0, 1)
        assert (arc.lo, arc.hi, arc.top) == (1.0, math.inf, 0.0)
        assert arc.phase(1.0) == -math.inf
        for x in (1.1, 2.0, 10.0):
            to_inf, _ = integrate.quad(lambda v: 0.5 / math.sqrt(v ** 3 - 3.0 * v + 2.0),
                                       x, math.inf, epsabs=1e-15, epsrel=1e-13)
            assert math.isclose(-arc.phase(x), to_inf, rel_tol=1e-12), x

    @pytest.mark.parametrize("c, x", [(2.0, -1.0), (2.0, 0.9), (2.0, 2.0), (2.0, 50.0)])
    def test_separatrix_point_inverts_phase(self, c, x):
        arc = _arc(-3.0, c, x, 1)
        y = math.sqrt(x ** 3 - 3.0 * x + c)
        for s in (1, -1):
            px, py = arc.point(arc.phase(x), s)
            assert math.isclose(px, x, rel_tol=1e-14, abs_tol=1e-14)
            assert math.isclose(py, s * y, rel_tol=1e-12, abs_tol=1e-14)

    def test_cusp(self):
        # y^2 = x^3: the time from x to infinity is 1/sqrt(x)
        arc = _arc(0.0, 0.0, 4.0, -1)
        assert (arc.lo, arc.top) == (0.0, 0.0)
        assert arc.phase(4.0) == -0.5 and arc.phase(0.0) == -math.inf
        assert arc.point(-0.5, -1) == (4.0, -8.0)


class TestEllipticOracle:
    # (-0.9, 0.3) turns at a root of P before its first crossing; a turn
    # that solved for that root again would shift every later event by
    # about sqrt(eps) = 1e-8.
    @pytest.mark.parametrize("x0", [(-1.0, -1.0), (-0.9, 0.3)])
    def test_matches_rk4_reference(self, elliptic, x0):
        T = 10.0
        oracle, events = elliptic_oracle(elliptic, x0, 0.0, T)
        ref, ref_events = reference_trajectory(elliptic, x0, 0.0, T, 2e-4)
        assert len(events) == len(ref_events) >= 10
        for got, want in zip(events, ref_events):
            assert abs(got.t_star - want.t_star) <= 1e-10
            assert np.abs(got.x_star - want.x_star).max() <= 1e-10
            assert got.side_from is want.side_from and got.side_to is want.side_to
        for k in range(0, len(ref.times), 37):
            assert np.abs(oracle(float(ref.times[k])) - ref.states[k]).max() <= 1e-10

    def test_first_crossing(self, elliptic):
        _, events = elliptic_oracle(elliptic, [-1.0, -1.0], 0.0, 2.0)
        assert math.isclose(events[0].t_star, 0.97519090872045, abs_tol=1e-14)
        assert events[0].side_from is RegionSide.PLUS

    def test_events_on_circle_and_levels(self, elliptic):
        oracle, events = elliptic_oracle(elliptic, [-1.0, -1.0], 0.0, 10.0)
        for ev in events:
            assert abs(elliptic.surface.value(ev.x_star)) <= 1e-14
            for side in (ev.side_from, ev.side_to):
                before = elliptic.conserved(side).values(ev.x_star)
                t = ev.t_star + (-1e-3 if side is ev.side_from else 1e-3)
                after = elliptic.conserved(side).values(oracle(t))
                assert abs(after[0] - before[0]) <= 1e-13

    def test_turning_point_start(self, elliptic):
        x0 = (-0.5, 0.0)
        oracle, events = elliptic_oracle(elliptic, x0, 0.0, 3.0)
        ref, ref_events = reference_trajectory(elliptic, x0, 0.0, 3.0, 2e-4)
        assert len(events) == len(ref_events) >= 1
        for got, want in zip(events, ref_events):
            assert abs(got.t_star - want.t_star) <= 1e-10
        assert np.abs(oracle(3.0) - ref.states[-1]).max() <= 1e-10

    def test_escape_inside_horizon_raises(self, elliptic):
        # x^3 - 2x - 3 has one real root, below x0: x runs off to +inf
        # at t = 0.8087, outside the circle all the way.
        with pytest.raises(FiniteTimeBlowUp):
            elliptic_oracle(elliptic, [2.0, 1.0], 0.0, 10.0)
        oracle, events = elliptic_oracle(elliptic, [2.0, 1.0], 0.0, 0.5)
        assert events == []
        assert np.all(np.isfinite(oracle(0.5)))

    # Level curves through a saddle of P: from the turning point -2 a
    # crossing at sqrt(2) - 1 and then the loop into the saddle (1, 0);
    # the unbounded piece into the same saddle; the cusp y^2 = x^3 for
    # a_plus = 0, with one crossing before T.
    @pytest.mark.parametrize("a_plus, x0, T, n_events", [
        (-3.0, (-2.0, 0.0), 2.0, 1),
        (-3.0, (2.0, -2.0), 2.0, 0),
        (0.0, (4.0, -8.0), 0.69, 1),
    ])
    def test_separatrix_matches_rk4_reference(self, a_plus, x0, T, n_events):
        system = elliptic_system(a_plus=a_plus)
        oracle, events = elliptic_oracle(system, x0, 0.0, T)
        ref, ref_events = reference_trajectory(system, x0, 0.0, T, 2e-4)
        assert len(events) == len(ref_events) == n_events
        for got, want in zip(events, ref_events):
            assert abs(got.t_star - want.t_star) <= 1e-10
            assert np.abs(got.x_star - want.x_star).max() <= 1e-10
        for k in range(0, len(ref.times), 37):
            assert np.abs(oracle(float(ref.times[k])) - ref.states[k]).max() <= 1e-10

    def test_separatrix_escape_raises(self):
        # the unbounded piece of y^2 = (x + 2)(x - 1)^2, outward from x = 2
        with pytest.raises(FiniteTimeBlowUp, match="t=0.76034599630094"):
            elliptic_oracle(elliptic_system(a_plus=-3.0), [2.0, 2.0], 0.0, 10.0)

    def test_start_on_circle_rejected(self):
        with pytest.raises(InvalidInitialCondition):
            elliptic_oracle(elliptic_system(), [0.6, 0.8], 0.0, 1.0)
