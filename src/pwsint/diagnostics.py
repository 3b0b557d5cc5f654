"""Quantitative verification of integration runs.

Conserved-quantity drift per region segment, crossing-time errors
against a reference, log-log convergence-order fits, and the discrete
transversality products at a localized crossing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EventMismatch, InsufficientData
from .engine import CrossingEvent, Trajectory
from .model import PwsSystem, RegionSide
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
