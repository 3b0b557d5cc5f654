"""Ground-truth references for error measurement.

The piecewise harmonic oscillator has an exact piecewise solution: each
half-plane segment is a rotation at that side's frequency, and crossing
times are arctangent expressions, so reference states and event times
carry no integration error at all.  Systems without a closed form get a
high-resolution fixed-step RK4 reference run through the same
transition engine.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInitialCondition
from .model import PwsSystem, RegionSide
from .schemes import rk4_dvf
from .engine import Trajectory, integrate

Array = np.ndarray


@dataclass(frozen=True)
class OracleEvent:
    t_star: float
    x_star: Array
    side_from: RegionSide
    side_to: RegionSide


@dataclass(frozen=True)
class _Segment:
    t_entry: float
    x_entry: float
    y_entry: float
    omega: float
    side: RegionSide

    def state(self, t: float) -> Array:
        s = t - self.t_entry
        w = self.omega
        c, sn = math.cos(w * s), math.sin(w * s)
        return np.array([self.x_entry * c + (self.y_entry / w) * sn,
                         -w * self.x_entry * sn + self.y_entry * c])


class HarmonicOracle:
    """Exact piecewise solution of the two-frequency oscillator.

    Callable as a state function of t; ``events`` holds the exact
    crossing times and points in order.  Segment entries after the first
    sit exactly on y = 0, so crossing times are computed per segment as
    closed-form zeros of y, never by root finding.
    """

    def __init__(self, omega2_minus: float, omega2_plus: float,
                 x0, t0: float, T: float):
        x0 = np.asarray(x0, dtype=float)
        if x0[1] == 0.0:
            raise InvalidInitialCondition("oracle needs y0 != 0")
        if omega2_minus <= 0.0 or omega2_plus <= 0.0:
            raise ConfigError("frequencies squared must be positive")
        self.t0 = float(t0)
        self.T = float(T)
        side = RegionSide.PLUS if x0[1] > 0 else RegionSide.MINUS
        seg = _Segment(t0, float(x0[0]), float(x0[1]),
                       math.sqrt(omega2_plus if side is RegionSide.PLUS
                                 else omega2_minus), side)
        self.segments = [seg]
        self.events: list[OracleEvent] = []
        while True:
            seg = self.segments[-1]
            w = seg.omega
            if seg.y_entry == 0.0:
                s = math.pi / w
            else:
                theta = math.atan2(seg.y_entry, w * seg.x_entry)
                if theta <= 0.0:
                    theta += math.pi
                s = theta / w
            t_star = seg.t_entry + s
            if t_star > self.T:
                break
            x_star = seg.x_entry * math.cos(w * s) + (seg.y_entry / w) * math.sin(w * s)
            if x_star == 0.0:
                raise ConfigError("trajectory reaches the origin; crossing degenerates")
            # Both fields give ydot = -omega^2 x at the crossing, so the
            # exit side is decided by the sign of x alone.
            side_to = RegionSide.PLUS if x_star < 0.0 else RegionSide.MINUS
            self.events.append(OracleEvent(t_star, np.array([x_star, 0.0]),
                                           seg.side, side_to))
            w_new = math.sqrt(omega2_plus if side_to is RegionSide.PLUS
                              else omega2_minus)
            self.segments.append(_Segment(t_star, x_star, 0.0, w_new, side_to))
        self._entry_times = [s.t_entry for s in self.segments]

    def __call__(self, t: float) -> Array:
        if not (self.t0 <= t <= self.T + 1e-12):
            raise ValueError(f"t={t} outside the oracle horizon [{self.t0}, {self.T}]")
        i = bisect_right(self._entry_times, t) - 1
        return self.segments[max(i, 0)].state(t)

    def psi_value(self, segment_index: int) -> float:
        """Conserved value along one segment: (omega^2 x^2 + y^2)/2 at entry."""
        seg = self.segments[segment_index]
        return 0.5 * (seg.omega ** 2 * seg.x_entry ** 2 + seg.y_entry ** 2)


def harmonic_oracle(omega2_minus: float, omega2_plus: float, x0, t0: float,
                    T: float) -> tuple[HarmonicOracle, list[OracleEvent]]:
    oracle = HarmonicOracle(omega2_minus, omega2_plus, x0, t0, T)
    return oracle, oracle.events


def reference_trajectory(sys: PwsSystem, x0, t0: float, T: float, tau_ref: float,
                         tau_study: float | None = None,
                         ) -> tuple[Trajectory, list[OracleEvent]]:
    """High-resolution RK4 run used as 'exact' for coarser studies.

    ``tau_study``, when given, is the smallest step size of the runs to
    be measured against this reference; the ratio must be at least 50 so
    the reference error is negligible in the comparison.
    """
    if tau_study is not None and tau_study / tau_ref < 50.0:
        raise ConfigError(
            f"reference step {tau_ref} is too coarse for study step {tau_study}; "
            "need a ratio of at least 50")
    dvf = rk4_dvf  # same scheme on both sides
    traj = integrate(sys, dvf(sys.f_minus), dvf(sys.f_plus), x0, t0, T, tau_ref)
    events = [OracleEvent(ev.t_hat, ev.x_hat.copy(), ev.side_from, ev.side_to)
              for ev in traj.events]
    return traj, events
