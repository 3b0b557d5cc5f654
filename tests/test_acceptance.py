"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints a single pass/fail line (visible with ``pytest -s``).
The long conservative runs and the fine reference runs are shared through
module-scoped fixtures, so the whole file runs in about a minute.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pwsint import (
    RegionSide,
    conserved_error_series,
    crossing_time_errors,
    elliptic_dmm_dvf,
    estimate_order,
    fixed_point,
    harmonic_oracle,
    implicit_midpoint_dvf,
    integrate,
    quadratic_root_bound,
    reference_trajectory,
    resolve_scheme,
    solvers,
)
from pwsint.engine import _solve_leg
from pwsint.errors import DivergingFixedPoint


TAUS = (2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3)
T_CONSERVE = 85.0   # >= 30 crossings for the harmonic system
T_PERTURB = 20.0
T_ELLIPTIC = 10.0
TAU_REF = 1.6e-5


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    print(f"[criterion {number}] PASS - {title}")


def schemes(sys_, name):
    return (resolve_scheme(name, sys_, RegionSide.MINUS),
            resolve_scheme(name, sys_, RegionSide.PLUS))


def run(sys_, name, x0, T, tau, **kw):
    mn, pl = schemes(sys_, name)
    return integrate(sys_, mn, pl, x0, 0.0, T, tau, **kw)


def fixed_reference_drift(traj, sys_):
    """Error against the first reference value seen for each side."""
    first_ref = {}
    for seg in traj.region_segments:
        first_ref.setdefault(seg.side, seg.psi_ref)
    errs = np.empty(len(traj.times))
    for k in range(len(traj.times)):
        seg = traj.segment_at(k)
        psi = sys_.conserved(seg.side).values(traj.states[k])
        errs[k] = float(np.max(np.abs(psi - first_ref[seg.side])))
    return errs


@pytest.fixture(scope="module")
def harmonic_conserve(harmonic):
    t0 = time.perf_counter()
    dmm = run(harmonic, "dmm-midpoint", [1.0, 1.0], T_CONSERVE, 1e-3)
    rk2 = run(harmonic, "rk2", [1.0, 1.0], T_CONSERVE, 1e-3)
    err_dmm = conserved_error_series(dmm, harmonic)
    err_rk2 = conserved_error_series(rk2, harmonic)
    wall = time.perf_counter() - t0
    return {"dmm": dmm, "rk2": rk2, "err_dmm": err_dmm, "err_rk2": err_rk2,
            "wall": wall}


@pytest.fixture(scope="module")
def oracle_85(harmonic):
    return harmonic_oracle(harmonic.params["omega2_minus"],
                           harmonic.params["omega2_plus"],
                           [1.0, 1.0], 0.0, T_CONSERVE)


@pytest.fixture(scope="module")
def harmonic_sweep(harmonic, oracle_85):
    oracle, _ = oracle_85
    out = {}
    for tau in TAUS:
        traj = run(harmonic, "dmm-midpoint", [1.0, 1.0], T_CONSERVE, tau)
        final_err = float(np.linalg.norm(traj.states[-1]
                                         - oracle(float(traj.times[-1]))))
        out[tau] = (traj, final_err)
    return out


@pytest.fixture(scope="module")
def elliptic_reference(elliptic):
    ref, events = reference_trajectory(elliptic, [-1.0, -1.0], 0.0, T_ELLIPTIC,
                                       TAU_REF, tau_study=min(TAUS))
    return ref, events


def test_criterion_1_conservation_harmonic(harmonic, harmonic_conserve):
    with criterion(1, "harmonic conservation: DMM <= 1e-11, RK2 drift in band, < 10 s"):
        data = harmonic_conserve
        assert len(data["dmm"].events) >= 30
        assert data["err_dmm"].max() <= 1e-11
        assert 1e-9 <= data["err_rk2"].max() <= 1e-6
        drift = fixed_reference_drift(data["rk2"], harmonic)
        q = len(drift) // 4
        quarter_means = [drift[i * q:(i + 1) * q].mean() for i in range(4)]
        assert all(b > a for a, b in zip(quarter_means, quarter_means[1:]))
        assert quarter_means[-1] > 2.0 * quarter_means[0]
        assert data["wall"] < 10.0


def test_criterion_2_conservation_elliptic(elliptic):
    with criterion(2, "elliptic conservation: DMM <= 1e-11, RK2 near 1e-7, < 10 s"):
        t0 = time.perf_counter()
        dmm = run(elliptic, "dmm-elliptic", [-1.0, -1.0], T_ELLIPTIC, 1e-3)
        rk2 = run(elliptic, "rk2", [-1.0, -1.0], T_ELLIPTIC, 1e-3)
        err_dmm = conserved_error_series(dmm, elliptic)
        err_rk2 = conserved_error_series(rk2, elliptic)
        wall = time.perf_counter() - t0
        assert dmm.events
        assert err_dmm.max() <= 1e-11
        assert 1e-8 <= err_rk2.max() <= 1e-6
        assert wall < 10.0


def test_criterion_3_crossing_time_order(harmonic_sweep, oracle_85):
    with criterion(3, "crossing-time error after 10/20/30 transitions: slope 2 +- 0.2"):
        _, oracle_events = oracle_85
        for n in (10, 20, 30):
            errs = []
            for tau in TAUS:
                traj, _ = harmonic_sweep[tau]
                assert len(traj.events) >= 30
                errs.append(abs(traj.events[n - 1].t_hat
                                - oracle_events[n - 1].t_star))
            est = estimate_order(TAUS, errs)
            assert abs(est.slope - 2.0) <= 0.2, (n, est.slope)
        for tau in TAUS:
            traj, _ = harmonic_sweep[tau]
            err10 = abs(traj.events[9].t_hat - oracle_events[9].t_star)
            err30 = abs(traj.events[29].t_hat - oracle_events[29].t_star)
            assert err30 > err10  # error accumulates with transition count


def test_criterion_4_perturbation_study(harmonic):
    with criterion(4, "injected crossing-time error c*tau^p: slope p for p=1, 2 for p>=2"):
        oracle, _ = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, T_PERTURB)
        for p, want in ((1.0, 1.0), (2.0, 2.0), (15.0, 2.0)):
            errs = []
            for tau in TAUS:
                traj = run(harmonic, "dmm-midpoint", [1.0, 1.0], T_PERTURB, tau,
                           perturbation=(1.0, p))
                errs.append(float(np.linalg.norm(
                    traj.states[-1] - oracle(float(traj.times[-1])))))
            est = estimate_order(TAUS, errs)
            assert abs(est.slope - want) <= 0.2, (p, est.slope)


def test_criterion_5_level_set_identity(harmonic_conserve, oracle_85):
    with criterion(5, "conservative crossings pin the level set: x_hat = x* to 1e-10"):
        traj = harmonic_conserve["dmm"]
        _, oracle_events = oracle_85
        assert len(traj.events) == len(oracle_events)
        for ev, ov in zip(traj.events, oracle_events):
            assert ev.psi_level_residual <= 1e-11
            assert abs(ev.residual_g) <= 1e-12
            assert float(np.linalg.norm(ev.x_hat - ov.x_star)) <= 1e-10


def test_criterion_6_order_preserved_across_crossings(harmonic_sweep, elliptic,
                                                      elliptic_reference):
    with criterion(6, "final-state error after crossings: slope 2 +- 0.2, both systems"):
        errs = [harmonic_sweep[tau][1] for tau in TAUS]
        assert len(harmonic_sweep[TAUS[0]][0].events) >= 10
        est = estimate_order(TAUS, errs)
        assert abs(est.slope - 2.0) <= 0.2, est.slope

        ref, _ = elliptic_reference
        errs = []
        for tau in TAUS:
            traj = run(elliptic, "dmm-elliptic", [-1.0, -1.0], T_ELLIPTIC, tau)
            errs.append(float(np.linalg.norm(traj.states[-1] - ref.states[-1])))
        est = estimate_order(TAUS, errs)
        assert abs(est.slope - 2.0) <= 0.2, est.slope


def test_criterion_7_property_suites(harmonic, elliptic):
    with criterion(7, "conservation identity, reversibility, bracket signs, "
                      "divergence flag, quadratic bound"):
        rng = np.random.default_rng(2024)

        # (a) conservation identity on 1000 random implicit steps
        cases = []
        for side, w2 in ((RegionSide.MINUS, 3.0), (RegionSide.PLUS, 1.0)):
            dvf = resolve_scheme("dmm-midpoint", harmonic, side)
            psi = harmonic.conserved(side).values
            cases.append((dvf, psi, 2.0))
        for side in (RegionSide.MINUS, RegionSide.PLUS):
            dvf = resolve_scheme("dmm-elliptic", elliptic, side)
            psi = elliptic.conserved(side).values
            cases.append((dvf, psi, 1.5))
        for dvf, psi, box in cases:
            for _ in range(250):
                x_a = rng.uniform(-box, box, size=2)
                tau = float(rng.uniform(1e-4, 2e-2))
                x_b, _ = _solve_leg(dvf, 0.0, x_a, tau)
                dpsi = np.max(np.abs(psi(x_b) - psi(x_a)))
                assert dpsi <= 1e-12 * max(1.0, float(np.max(np.abs(psi(x_a)))))

        # (b) symmetric schemes are time-reversible: solving the step
        # backward recovers the start to 10x the solver tolerance
        for dvf in (resolve_scheme("dmm-midpoint", harmonic, RegionSide.PLUS),
                    resolve_scheme("dmm-elliptic", elliptic, RegionSide.PLUS)):
            assert dvf.is_symmetric
            for _ in range(100):
                x_a = rng.uniform(-1.5, 1.5, size=2)
                tau = float(rng.uniform(1e-4, 2e-2))
                x_b, _ = _solve_leg(dvf, 0.0, x_a, tau)
                x_back, _ = _solve_leg(dvf, tau, x_b, 0.0)
                assert np.linalg.norm(x_back - x_a) <= 10.0 * solvers.FP_TOL * (
                    1.0 + np.linalg.norm(x_a))

        # (c) exactly one sign change of phi(t) = g(xhat(t)) per localized
        # bracket, 100 samples, tau <= 1e-2
        for sys_, name, x0, T in ((harmonic, "dmm-midpoint", [1.0, 1.0], 20.0),
                                  (elliptic, "dmm-elliptic", [-1.0, -1.0], 10.0)):
            traj = run(sys_, name, x0, T, 1e-2)
            assert traj.events
            dvfs = {RegionSide.MINUS: resolve_scheme(name, sys_, RegionSide.MINUS),
                    RegionSide.PLUS: resolve_scheme(name, sys_, RegionSide.PLUS)}
            for ev in traj.events:
                k = ev.step_index
                t_k, x_k = traj.times[k], traj.states[k]
                signs = []
                for t in np.linspace(t_k, t_k + traj.tau, 100):
                    x, _ = _solve_leg(dvfs[ev.side_from], t_k, x_k, float(t))
                    gv = sys_.surface.value(x)
                    if abs(gv) > sys_.surface.on_surface_tol:
                        signs.append(gv > 0.0)
                flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
                assert flips == 1

        # (d) expansive fixed-point map is flagged as diverging
        with pytest.raises(DivergingFixedPoint):
            fixed_point(lambda x: 2.0 * x + 1.0, np.array([0.0]))

        # (e) quadratic root bound against its series bound, 1000 samples
        for _ in range(1000):
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(0.1, 10.0))
            c = float(rng.uniform(0.0, 0.999)) * b * b / (4.0 * a)
            r = quadratic_root_bound(a, b, c)
            assert r <= (c / b) / (1.0 - 2.0 * a * c / (b * b)) * (1.0 + 1e-12)


def test_criterion_8_reference_cross_validation(harmonic):
    with criterion(8, "RK4 reference matches the closed form: first 10 events to 1e-10"):
        oracle, oracle_events = harmonic_oracle(3.0, 1.0, [1.0, 1.0], 0.0, 22.5)
        assert len(oracle_events) >= 10
        ref, ref_events = reference_trajectory(harmonic, [1.0, 1.0], 0.0, 22.5,
                                               TAU_REF, tau_study=min(TAUS))
        assert len(ref_events) >= 10
        for got, want in zip(ref_events[:10], oracle_events[:10]):
            assert abs(got.t_star - want.t_star) <= 1e-10
