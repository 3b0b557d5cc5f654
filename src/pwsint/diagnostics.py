"""Quantitative verification of integration runs.

Conserved-quantity drift per region segment, crossing-time errors
against a reference, log-log convergence-order fits, and empirical
checks of the crossing-time bound and of discrete transversality.  The
constants entering the bound (M, L_g, the transversality proxy) are
estimated by sampling near the crossing and are proxies, not suprema:
the bound checks are one-sided sanity tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EventMismatch, InsufficientData, UnsupportedSystem
from .engine import CrossingEvent, Trajectory, smooth_step
from .model import PwsSystem, RegionSide, classify_interface_point, field_for_side
from .oracles import OracleEvent
from .schemes import DiscreteVectorField

Array = np.ndarray

BOUND_WINDOW = 5  # grid samples each side of the step where check_crossing_bound looks


@dataclass(frozen=True)
class OrderEstimate:
    taus: tuple
    errors: tuple
    slope: float
    intercept: float
    r_squared: float
    note: str = ""


@dataclass(frozen=True)
class BoundReport:
    alpha_sq_hat: float
    M_hat: float
    L_g_hat: float
    lhs: float
    rhs: float
    satisfied: bool
    variant: str = "continuous"
    note: str = ""


def conserved_error_series(traj: Trajectory, sys: PwsSystem) -> Array:
    """Per-sample deviation of the active conserved quantities.

    Each sample is compared against the reference values read at the
    entry of its region segment; the largest component-wise deviation is
    reported.  The reference legitimately changes across events, so
    drift is only meaningful within segments.  ``psi`` is evaluated once
    per segment on the stacked states; one that does not broadcast over
    them (see ``ConservedSet``) raises ``EvaluationError``.
    """
    if not traj.region_segments:
        raise ValueError("trajectory has no region segments")
    errs = np.empty(len(traj.times))
    for seg, lo, hi in traj.segment_blocks():
        psi = sys.conserved(seg.side).stack_values(traj.states[lo:hi])
        errs[lo:hi] = np.max(np.abs(psi - seg.psi_ref[:, None]), axis=0)
    return errs


def crossing_time_errors(traj: Trajectory,
                         oracle_events: list[OracleEvent]) -> Array:
    """Absolute time differences between computed and reference events."""
    if len(traj.events) != len(oracle_events):
        raise EventMismatch(
            f"{len(traj.events)} computed events vs {len(oracle_events)} reference "
            "events: a crossing was missed or spurious")
    return np.array([abs(ov.t_star - ev.t_hat)
                     for ev, ov in zip(traj.events, oracle_events)])


def estimate_order(taus, errors) -> OrderEstimate:
    """Least-squares slope of log(error) against log(tau) over the pairs
    with finite positive tau and error, which must cover 3 or more distinct taus."""
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.shape != errors.shape:
        raise ValueError("taus and errors must have matching shapes")
    finite = np.isfinite(taus) & np.isfinite(errors)
    usable = finite & (errors > 0.0) & (taus > 0.0)
    note = ""
    if not np.all(usable):
        note = (f"excluded {int(np.sum(finite & ~usable))} pair(s) with a non-positive "
                f"and {int(np.sum(~finite))} with a non-finite tau or error")
    taus_u, errors_u = taus[usable], errors[usable]
    distinct = len(set(taus_u.tolist()))  # np.unique's first call adds ~0.9 MB of RSS
    if distinct < 3:
        raise InsufficientData(f"need positive errors at 3 or more distinct positive "
                               f"step sizes, got {distinct}")
    lx, ly = np.log(taus_u), np.log(errors_u)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderEstimate(tuple(taus_u), tuple(errors_u), float(slope),
                         float(intercept), float(r2), note)


def _window_indices(traj: Trajectory, event: CrossingEvent) -> range:
    k = event.step_index
    if k < 0:
        raise ValueError("event carries no step index")
    lo = max(0, k - BOUND_WINDOW)
    hi = min(len(traj.times) - 1, k + 1 + BOUND_WINDOW)
    return range(lo, hi + 1)


def check_crossing_bound(traj: Trajectory, sys: PwsSystem, event: CrossingEvent,
                         oracle_t_star: float, dvf_from: DiscreteVectorField,
                         dvf_to: DiscreteVectorField,
                         oracle_state=None) -> BoundReport:
    """Empirical check of the crossing-time estimate at one event.

    lhs = |t_hat - t_star| must not exceed
    (M * lhs^2 + L_g * dx) / alpha^2 where dx is the state separation of
    the two times along the trajectory.  With ``oracle_state`` (an exact
    state function of t) the separation and the curvature constant M are
    taken from the exact trajectory; otherwise the discrete analogue is
    checked, with M sampled from the discrete fields and the separation
    from the dense in-step solution.  Constants are sampled near the
    crossing only, so M may be underestimated; the check is a sanity
    test, not a proof.
    """
    if sys.surface.hess_g is None:
        raise UnsupportedSystem("bound check needs the Hessian of g")
    surface = sys.surface
    idx = _window_indices(traj, event)

    L_g_hat = max(float(np.linalg.norm(surface.gradient(traj.states[k])))
                  for k in idx)
    info = classify_interface_point(sys, event.x_hat, event.t_hat, event.residual_g)
    alpha_sq = info.alpha_sq_hat
    lhs = abs(event.t_hat - oracle_t_star)

    k0 = event.step_index
    t_k, x_k = traj.times[k0], traj.states[k0]

    if oracle_state is not None:
        # Curvature proxy from the exact trajectory sampled at the grid:
        # |xdot . H_g xdot + grad_g . xddot| / 2 with xddot the difference
        # of the active field between the sample's same-side neighbours,
        # or the sample itself where a neighbour is missing.
        tau = traj.tau
        sides = {k: traj.segment_at(k).side for k in idx}
        big = 0.0
        for k in idx:
            x, side = traj.states[k], sides[k]
            f_here = field_for_side(sys, side, traj.times[k], x)
            term1 = float(f_here @ surface.hessian(x) @ f_here)
            lo = k - 1 if sides.get(k - 1) is side else k
            hi = k + 1 if sides.get(k + 1) is side else k
            if lo == hi:
                continue
            f_lo, f_hi = (f_here if j == k else
                          field_for_side(sys, side, traj.times[j], traj.states[j])
                          for j in (lo, hi))
            term2 = float(surface.gradient(x) @ ((f_hi - f_lo) / ((hi - lo) * tau)))
            big = max(big, abs(term1 + term2))
        M_hat = 0.5 * big
        dx = float(np.linalg.norm(np.asarray(oracle_state(event.t_hat))
                                  - np.asarray(oracle_state(oracle_t_star))))
        variant = "continuous"
        note = "M sampled on the trajectory grid near the crossing"
    else:
        # Discrete analogue: M from |f_tau . H_g f_tau| / 2 sampled along
        # the two in-step legs, separation from the dense in-step solve.
        t_hat, x_hat = event.t_hat, event.x_hat

        def leg_sup(dvf, a, x_a, b, before: bool) -> float:
            sup = 0.0
            for t in np.linspace(a, b, 7):
                x_t = smooth_step(dvf, a, x_a, t)
                ends = (t, x_t, t_hat, x_hat) if before else (t_hat, x_hat, t, x_t)
                fv = dvf.evaluate(*ends)
                for s in (0.0, 0.5, 1.0):
                    xi = x_hat + s * (x_t - x_hat)
                    sup = max(sup, abs(float(fv @ surface.hessian(xi) @ fv)))
            return sup

        before_leg = (dvf_from, t_k, x_k, t_hat)
        after_leg = (dvf_to, t_hat, x_hat, traj.times[k0 + 1])
        M_hat = 0.5 * max(leg_sup(*before_leg, True), leg_sup(*after_leg, False))
        dvf, a, x_a, _ = before_leg if oracle_t_star <= t_hat else after_leg
        dx = float(np.linalg.norm(smooth_step(dvf, a, x_a, oracle_t_star) - x_hat))
        variant = "discrete"
        note = "M sampled at 7 points per leg; may underestimate the supremum"

    rhs = (M_hat * lhs * lhs + L_g_hat * dx) / alpha_sq
    return BoundReport(alpha_sq_hat=alpha_sq, M_hat=M_hat, L_g_hat=L_g_hat,
                       lhs=lhs, rhs=rhs,
                       satisfied=lhs <= rhs * (1.0 + 1e-6),
                       variant=variant, note=note)


def discrete_transversality(sys: PwsSystem, dvf_minus: DiscreteVectorField,
                            dvf_plus: DiscreteVectorField,
                            event: CrossingEvent) -> tuple[float, float]:
    """Oriented products grad_g . f_tau at a localized crossing.

    Both values are positive when the discrete fields cross the surface
    transversally in the event's direction (downward crossings are
    sign-flipped so one convention serves both).
    """
    grad = sys.surface.gradient(event.x_hat)
    t, x = event.t_hat, event.x_hat
    a_minus = float(grad @ dvf_minus.evaluate(t, x, t, x))
    a_plus = float(grad @ dvf_plus.evaluate(t, x, t, x))
    orient = 1.0 if event.side_to is RegionSide.PLUS else -1.0
    return orient * a_minus, orient * a_plus
