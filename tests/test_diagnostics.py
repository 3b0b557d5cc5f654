import dataclasses
import math

import numpy as np
import pytest

from pwsint import (
    RegionSide,
    conserved_error_series,
    crossing_time_errors,
    discrete_transversality,
    estimate_order,
    harmonic_oracle,
    integrate,
    make_system,
    resolve_scheme,
)
from pwsint.errors import EvaluationError, EventMismatch, InsufficientData
from pwsint.model import ConservedSet
from pwsint.systems import SYSTEMS


class TestEstimateOrder:
    def test_exact_quadratic(self):
        taus = [1e-1, 1e-2, 1e-3, 1e-4]
        est = estimate_order(taus, [t ** 2 for t in taus])
        assert math.isclose(est.slope, 2.0, abs_tol=1e-12)
        assert math.isclose(est.r_squared, 1.0, abs_tol=1e-12)

    def test_exact_linear_with_constant(self):
        taus = [1e-1, 1e-2, 1e-3]
        est = estimate_order(taus, [3.0 * t for t in taus])
        assert math.isclose(est.slope, 1.0, abs_tol=1e-12)
        assert math.isclose(est.intercept, math.log(3.0), abs_tol=1e-12)

    def test_scale_invariance(self):
        taus = [1e-1, 1e-2, 1e-3, 1e-4]
        errs = [1.3 * t ** 2 + 0.1 * t ** 3 for t in taus]
        a = estimate_order(taus, errs)
        b = estimate_order(taus, [77.0 * e for e in errs])
        assert math.isclose(a.slope, b.slope, rel_tol=1e-12)
        assert not math.isclose(a.intercept, b.intercept, rel_tol=1e-3)

    def test_zero_errors_excluded_with_note(self):
        est = estimate_order([1e-1, 1e-2, 1e-3, 1e-4], [1e-2, 1e-4, 1e-6, 0.0])
        assert "excluded 1" in est.note
        assert len(est.taus) == 3

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_errors_excluded_with_note(self, bad):
        est = estimate_order([1e-2, 5e-3, 2.5e-3, 1e-3], [1e-4, bad, 6e-6, 1e-6])
        assert est.taus == (1e-2, 2.5e-3, 1e-3)
        assert est.note.endswith(" and 1 with a non-finite tau or error")

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            estimate_order([1e-1, 1e-2], [1e-2, 1e-4])
        with pytest.raises(InsufficientData):
            estimate_order([1e-1, 1e-2, 1e-3], [0.0, 0.0, 1e-6])

    def test_needs_three_distinct_positive_taus(self):
        # Four pairs at two distinct step sizes cannot fix a slope, and a
        # non-positive tau has no logarithm.
        with pytest.raises(InsufficientData, match="got 2"):
            estimate_order([1e-2, 1e-2, 5e-3, 5e-3], [1e-4, 2e-4, 3e-5, 2e-5])
        with pytest.raises(InsufficientData, match="got 1"):
            estimate_order([1e-2, 1e-2, 1e-2], [1e-4, 2e-4, 3e-4])
        with pytest.raises(InsufficientData, match="got 2"):
            estimate_order([-1e-2, 1e-2, 5e-3], [1e-4, 1e-4, 2.5e-5])
        est = estimate_order([0.0, 1e-2, 5e-3, 2.5e-3], [1e-4, 1e-4, 2.5e-5, 6.25e-6])
        assert "excluded 1" in est.note and math.isclose(est.slope, 2.0)


class TestConservedErrorSeries:
    def test_single_smooth_step(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [0.3, 0.4], 0.0, 1e-3, 1e-3)
        errs = conserved_error_series(traj, harmonic)
        assert errs.shape == (2,)
        assert errs[0] == 0.0
        assert errs[1] <= 1e-13

    def test_segment_references_reset_at_events(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 2.0, 1e-3)
        errs = conserved_error_series(traj, harmonic)
        assert len(traj.region_segments) == 2
        assert errs.max() <= 1e-12

    def test_non_broadcasting_psi_raises(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 2.0, 1e-3)
        # Indexes the first axis, so a stack of states gives the wrong values.
        scalar_only = ConservedSet(psi=lambda x: np.array([0.5 * (x[0] ** 2 + x[1] ** 2)]),
                                   grad_psi=lambda x: np.array([[x[0], x[1]]]), d_psi=1)
        sys_ = dataclasses.replace(harmonic, conserved_minus=scalar_only,
                                   conserved_plus=scalar_only)
        with pytest.raises(EvaluationError):
            conserved_error_series(traj, sys_)


class TestCrossingTimeErrors:
    def test_pairwise_differences(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 3.0, 1e-3)
        _, oracle_events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 3.0)
        errs = crossing_time_errors(traj, oracle_events)
        assert errs.shape == (2,)
        assert np.all(errs < 1e-5) and np.all(errs > 0)

    def test_count_mismatch(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 3.0, 1e-3)
        with pytest.raises(EventMismatch):
            crossing_time_errors(traj, [])

    def test_zero_crossing_run(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [0.1, 0.1], 0.0, 0.5, 1e-3)
        assert crossing_time_errors(traj, []).shape == (0,)


class TestTransitionStepLocalError:
    # The step that crosses the surface has local error O(tau^3) with the
    # second-order conservative schemes, whatever the position theta of
    # the crossing inside the step (Mannshardt, Numer. Math. 31, 1978):
    # the per-step fact behind order two across many crossings.  Each
    # step starts on the exact orbit, theta * tau before the third exact
    # crossing, and ends against the exact state.
    THETAS = np.linspace(0.02, 0.98, 49)
    TAUS = (0.02, 0.01, 0.005, 0.0025)

    @pytest.mark.parametrize("name, bound", [("harmonic", 1.2), ("elliptic", 1.5)])
    def test_uniform_in_the_crossing_position(self, name, bound):
        spec = SYSTEMS[name]
        sys_ = make_system(name)
        minus, plus = (resolve_scheme(spec.scheme, sys_, side)
                       for side in (RegionSide.MINUS, RegionSide.PLUS))
        oracle, events = spec.oracle(sys_, spec.x0, 0.0, 10.0)
        t_star = events[2].t_star
        worst = []
        for tau in self.TAUS:
            scaled = []
            for theta in self.THETAS:
                t0 = t_star - theta * tau
                traj = integrate(sys_, minus, plus, oracle(t0), t0, t0 + tau, tau)
                assert len(traj.events) == 1, (tau, theta)
                err = np.linalg.norm(traj.states[-1] - oracle(traj.times[-1]))
                scaled.append(err / tau ** 3)
            worst.append(max(scaled))
        assert max(worst) < bound, worst
        for coarse, fine in zip(worst, worst[1:]):
            assert abs(fine / coarse - 1.0) < 0.05, worst


class TestDiscreteTransversality:
    def test_products_positive_after_orientation(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 10.0, 1e-3)
        assert len(traj.events) >= 4  # both crossing directions appear
        for ev in traj.events:
            a_minus, a_plus = discrete_transversality(harmonic, harmonic_dmm[0],
                                                      harmonic_dmm[1], ev)
            assert a_minus > 0.0 and a_plus > 0.0
