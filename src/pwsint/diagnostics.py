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
    """Least-squares slope of log(error) against log(tau)."""
    taus = np.asarray(taus, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if taus.shape != errors.shape:
        raise ValueError("taus and errors must have matching shapes")
    usable = errors > 0.0
    note = ""
    if not np.all(usable):
        note = f"excluded {int(np.sum(~usable))} non-positive error value(s)"
    taus_u, errors_u = taus[usable], errors[usable]
    if taus_u.size < 3:
        raise InsufficientData(f"need at least 3 positive (tau, error) pairs, "
                               f"got {taus_u.size}")
    lx, ly = np.log(taus_u), np.log(errors_u)
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderEstimate(tuple(taus_u), tuple(errors_u), float(slope),
                         float(intercept), float(r2), note)


def _window_indices(traj: Trajectory, event: CrossingEvent, width: int) -> range:
    k = event.step_index
    if k < 0:
        raise ValueError("event carries no step index")
    lo = max(0, k - width)
    hi = min(len(traj.times) - 1, k + 1 + width)
    return range(lo, hi + 1)


def check_crossing_bound(traj: Trajectory, sys: PwsSystem, event: CrossingEvent,
                         oracle_t_star: float, dvf_from: DiscreteVectorField,
                         dvf_to: DiscreteVectorField,
                         oracle_state=None, window: int = 5) -> BoundReport:
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
    idx = _window_indices(traj, event, window)

    L_g_hat = max(float(np.linalg.norm(surface.gradient(traj.states[k])))
                  for k in idx)
    tol = max(surface.on_surface_tol, 10.0 * abs(event.residual_g))
    info = classify_interface_point(sys, event.x_hat, event.t_hat, tol=tol)
    alpha_sq = info.alpha_sq_hat
    lhs = abs(event.t_hat - oracle_t_star)

    k0 = event.step_index
    t_k, x_k = traj.times[k0], traj.states[k0]

    if oracle_state is not None:
        # Curvature proxy from the exact trajectory sampled at the grid:
        # |xdot . H_g xdot + grad_g . xddot| / 2 with xddot by finite
        # differences of the active field along same-side samples.
        tau = traj.tau
        sides = {k: traj.segment_at(k).side for k in idx}
        big = 0.0
        for k in idx:
            x = traj.states[k]
            f_here = field_for_side(sys, sides[k], traj.times[k], x)
            term1 = float(f_here @ surface.hessian(x) @ f_here)
            xdd = None
            if k - 1 in sides and k + 1 in sides and sides[k - 1] == sides[k + 1] == sides[k]:
                f_m = field_for_side(sys, sides[k], traj.times[k - 1], traj.states[k - 1])
                f_p = field_for_side(sys, sides[k], traj.times[k + 1], traj.states[k + 1])
                xdd = (f_p - f_m) / (2.0 * tau)
            elif k + 1 in sides and sides[k + 1] == sides[k]:
                f_p = field_for_side(sys, sides[k], traj.times[k + 1], traj.states[k + 1])
                xdd = (f_p - f_here) / tau
            elif k - 1 in sides and sides[k - 1] == sides[k]:
                f_m = field_for_side(sys, sides[k], traj.times[k - 1], traj.states[k - 1])
                xdd = (f_here - f_m) / tau
            if xdd is None:
                continue
            term2 = float(surface.gradient(x) @ xdd)
            big = max(big, abs(term1 + term2))
        M_hat = 0.5 * big
        dx = float(np.linalg.norm(np.asarray(oracle_state(event.t_hat))
                                  - np.asarray(oracle_state(oracle_t_star))))
        variant = "continuous"
        note = "M sampled on the trajectory grid near the crossing"
    else:
        # Discrete analogue: M from |f_tau . H_g f_tau| / 2 sampled along
        # the two in-step legs, separation from the dense in-step solve.
        def leg_sup(dvf, a, x_a, b, anchor_t, anchor_x, before: bool) -> float:
            sup = 0.0
            for t in np.linspace(a, b, 7):
                x_t = smooth_step(dvf, a, x_a, t)
                if before:
                    fv = dvf.evaluate(t, x_t, anchor_t, anchor_x)
                else:
                    fv = dvf.evaluate(anchor_t, anchor_x, t, x_t)
                for s in (0.0, 0.5, 1.0):
                    xi = anchor_x + s * (x_t - anchor_x)
                    sup = max(sup, abs(float(fv @ surface.hessian(xi) @ fv)))
            return sup

        t_end = traj.times[k0 + 1]
        m_minus = leg_sup(dvf_from, t_k, x_k, event.t_hat,
                          event.t_hat, event.x_hat, before=True)
        m_plus = leg_sup(dvf_to, event.t_hat, event.x_hat, t_end,
                         event.t_hat, event.x_hat, before=False)
        M_hat = 0.5 * max(m_minus, m_plus)
        if oracle_t_star <= event.t_hat:
            x_ref = smooth_step(dvf_from, t_k, x_k, oracle_t_star)
        else:
            x_ref = smooth_step(dvf_to, event.t_hat, event.x_hat, oracle_t_star)
        dx = float(np.linalg.norm(x_ref - event.x_hat))
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
