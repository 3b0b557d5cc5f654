import dataclasses
import math

import numpy as np
import pytest

from pwsint import (
    check_crossing_bound,
    conserved_error_series,
    crossing_time_errors,
    discrete_transversality,
    elliptic_oracle,
    estimate_order,
    harmonic_oracle,
    integrate,
)
from pwsint.engine import Trajectory
from pwsint.errors import (EvaluationError, EventMismatch, InsufficientData,
                           UnsupportedSystem)
from pwsint.model import ConservedSet, PwsSystem, SwitchingSurface
from pwsint.oracles import OracleEvent



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


class TestCrossingBound:
    def test_harmonic_continuous_bound(self, harmonic, harmonic_dmm):
        # g = y is linear (zero Hessian): the sampled curvature constant is
        # tiny and the bound reduces to L_g * |dx| / alpha^2 with L_g = 1
        # and alpha^2 = sqrt(2) at the first crossing.
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 10.0, 1e-3)
        oracle, oracle_events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 10.0)
        for ev, ov in zip(traj.events, oracle_events):
            rep = check_crossing_bound(traj, harmonic, ev, ov.t_star,
                                       harmonic_dmm[0], harmonic_dmm[1],
                                       oracle_state=oracle)
            assert rep.satisfied, rep
            assert rep.variant == "continuous"
            assert math.isclose(rep.L_g_hat, 1.0, rel_tol=1e-12)
        first = check_crossing_bound(traj, harmonic, traj.events[0],
                                     oracle_events[0].t_star,
                                     harmonic_dmm[0], harmonic_dmm[1],
                                     oracle_state=oracle)
        assert math.isclose(first.alpha_sq_hat, math.sqrt(2.0), rel_tol=1e-6)
        assert first.M_hat < 0.05  # near zero: sampled |omega^2 y| close to S

    def test_elliptic_discrete_bound(self, elliptic, elliptic_dmm):
        # Curved interface (Hessian 2I): discrete analogue with M sampled
        # from the discrete fields, reference times from the exact oracle.
        traj = integrate(elliptic, elliptic_dmm[0], elliptic_dmm[1],
                         [-1.0, -1.0], 0.0, 3.0, 1e-3)
        _, ref_events = elliptic_oracle(elliptic, [-1.0, -1.0], 0.0, 3.0)
        assert len(traj.events) == len(ref_events) >= 3
        for ev, ov in zip(traj.events, ref_events):
            rep = check_crossing_bound(traj, elliptic, ev, ov.t_star,
                                       elliptic_dmm[0], elliptic_dmm[1])
            assert rep.satisfied, rep
            assert rep.variant == "discrete"
            assert rep.M_hat > 0.0
            assert 1.9 < rep.L_g_hat < 2.3  # |grad g| = 2|x| near the unit circle

    def test_sample_without_same_side_neighbour_is_skipped(self, harmonic, harmonic_dmm):
        # At tau=1.2 the segments start at steps 0, 1, 3, ...: sample 0 is
        # alone on its side in the window of the first event, so the
        # curvature proxy has no difference there and skips it.
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 20.0, 1.2)
        oracle, oracle_events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 20.0)
        assert [seg.start_index for seg in traj.region_segments[:3]] == [0, 1, 3]
        assert len(traj.events) == len(oracle_events) == 8
        for ev, ov in zip(traj.events, oracle_events):
            rep = check_crossing_bound(traj, harmonic, ev, ov.t_star,
                                       harmonic_dmm[0], harmonic_dmm[1],
                                       oracle_state=oracle)
            assert rep.satisfied, rep
            assert rep.variant == "continuous"

    def test_reference_after_the_computed_crossing(self, harmonic, harmonic_rk2):
        # rk2 at tau=0.1 localizes every crossing before the exact one, so
        # the reference state comes from the completion leg.
        traj = integrate(harmonic, harmonic_rk2[0], harmonic_rk2[1],
                         [1.0, 1.0], 0.0, 20.0, 0.1)
        _, oracle_events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 20.0)
        assert len(traj.events) == len(oracle_events) == 8
        for ev, ov in zip(traj.events, oracle_events):
            assert ov.t_star > ev.t_hat
            rep = check_crossing_bound(traj, harmonic, ev, ov.t_star,
                                       harmonic_rk2[0], harmonic_rk2[1])
            assert rep.satisfied, rep
            assert rep.variant == "discrete"

    def test_missing_hessian_rejected(self, harmonic, harmonic_dmm):
        bare_surface = SwitchingSurface(g=harmonic.surface.g,
                                        grad_g=harmonic.surface.grad_g)
        bare = PwsSystem(dim=2, f_minus=harmonic.f_minus, f_plus=harmonic.f_plus,
                         surface=bare_surface,
                         conserved_minus=harmonic.conserved_minus,
                         conserved_plus=harmonic.conserved_plus)
        traj = integrate(bare, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 1.0, 1e-3)
        with pytest.raises(UnsupportedSystem):
            check_crossing_bound(traj, bare, traj.events[0], math.pi / 4,
                                 harmonic_dmm[0], harmonic_dmm[1])


class TestDiscreteTransversality:
    def test_products_positive_after_orientation(self, harmonic, harmonic_dmm):
        traj = integrate(harmonic, harmonic_dmm[0], harmonic_dmm[1],
                         [1.0, 1.0], 0.0, 10.0, 1e-3)
        assert len(traj.events) >= 4  # both crossing directions appear
        for ev in traj.events:
            a_minus, a_plus = discrete_transversality(harmonic, harmonic_dmm[0],
                                                      harmonic_dmm[1], ev)
            assert a_minus > 0.0 and a_plus > 0.0
