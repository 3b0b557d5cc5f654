"""Ground-truth references for error measurement.

The piecewise harmonic oscillator has an exact piecewise solution: each
half-plane segment is a rotation at that side's frequency, and crossing
times are arctangent expressions, so reference states and event times
carry no integration error at all.  The elliptic system's flow has a
closed form too: times along its level curves are Carlson elliptic
integrals.  Systems without a closed form get a high-resolution
fixed-step RK4 reference run through the same transition engine.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateTangency,
    FiniteTimeBlowUp,
    InvalidInitialCondition,
    NonTransversalCrossing,
)
from .model import PwsSystem, RegionSide, check_params
from .schemes import rk4_dvf
from .engine import Trajectory, integrate
from .solvers import bracketed_root

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


def _start(x0, t0: float, T: float) -> tuple[float, float]:
    """x0 as two floats, after raising ``ConfigError`` unless it is two
    finite numbers and t0 and T are finite: a nan or an infinity never
    ends the event loop, or ends it without a word."""
    if not (math.isfinite(t0) and math.isfinite(T)):
        raise ConfigError("oracle needs a finite t0 and T")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (2,) or not np.all(np.isfinite(x0)):
        raise ConfigError(f"oracle needs an x0 of two finite numbers, got {x0!r}")
    x, y = x0.tolist()
    return x, y


class HarmonicOracle:
    """Exact piecewise solution of the two-frequency oscillator.

    Callable as a state function of t; ``events`` holds the exact
    crossing times and points in order.  Segment entries after the first
    sit exactly on y = 0, so crossing times are computed per segment as
    closed-form zeros of y, never by root finding.
    """

    def __init__(self, omega2_minus: float, omega2_plus: float,
                 x0, t0: float, T: float):
        x, y = _start(x0, t0, T)
        if y == 0.0:
            raise InvalidInitialCondition("oracle needs y0 != 0")
        check_params({"omega2_minus": omega2_minus, "omega2_plus": omega2_plus},
                     positive=("omega2_minus", "omega2_plus"))
        self.t0 = float(t0)
        self.T = float(T)
        omega = {RegionSide.MINUS: math.sqrt(omega2_minus),
                 RegionSide.PLUS: math.sqrt(omega2_plus)}
        side = RegionSide.PLUS if y > 0 else RegionSide.MINUS
        self.segments = [_Segment(t0, x, y, omega[side], side)]
        self.events: list[OracleEvent] = []
        while True:
            seg = self.segments[-1]
            w = seg.omega
            # Later entries have y = +0.0: theta is 0 (shifted to pi) or pi.
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
            self.segments.append(_Segment(t_star, x_star, 0.0, omega[side_to], side_to))
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


# Carlson's duplication stops once 4^-n * Q < |A_n| with
# Q = (3r)^(-1/6) max|A_0 - x_0|; r = 2^-53 leaves a truncation error
# below rounding (Carlson 1995, Sec. 2).
_RF_Q = (3.0 * 2.0 ** -53) ** (-1.0 / 6.0)


def carlson_rf(x, y, z) -> float:
    """Carlson's symmetric elliptic integral R_F(x, y, z), DLMF 19.16.1.

    Duplication algorithm of Carlson, Numer. Algorithms 10 (1995), and
    DLMF 19.36.i.  The arguments are non-negative floats, or two of them
    a complex-conjugate pair with the third real and positive; the
    result is then real up to rounding, and its real part is returned.
    With two or more arguments zero the integral diverges (its path
    ends at a double root) and the result is infinite.
    """
    if (x == 0) + (y == 0) + (z == 0) >= 2:
        return math.inf
    sqrt = cmath.sqrt if any(isinstance(v, complex) for v in (x, y, z)) else math.sqrt
    a0 = (x + y + z) / 3.0
    q = _RF_Q * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    xn, yn, zn, an = x, y, z, a0
    f = 1.0  # 4^-n
    while f * q >= abs(an):
        sx, sy, sz = sqrt(xn), sqrt(yn), sqrt(zn)
        lam = sx * sy + sy * sz + sz * sx
        xn, yn, zn, an = (xn + lam) / 4.0, (yn + lam) / 4.0, (zn + lam) / 4.0, (an + lam) / 4.0
        f /= 4.0
    X = (a0 - x) * f / an
    Y = (a0 - y) * f / an
    Z = -(X + Y)
    e2 = X * Y - Z * Z
    e3 = X * Y * Z
    r = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(an)
    return r.real


def _polish(b: float, c: float, d: float, x: float) -> float:
    """Newton steps on x^3 + b x^2 + c x + d while they shrink the residual."""
    p = ((x + b) * x + c) * x + d
    for _ in range(3):
        dp = (3.0 * x + 2.0 * b) * x + c
        if dp == 0.0:
            break
        xn = x - p / dp
        pn = ((xn + b) * xn + c) * xn + d
        if abs(pn) >= abs(p):
            break
        x, p = xn, pn
    return x


def _other_roots(b: float, c: float, d: float, e: float) -> tuple[list[float], complex | None]:
    """Roots of x^3 + b x^2 + c x + d besides its root e.

    Returns the real ones, or the one with positive imaginary part of a
    complex pair.  Deflating by e keeps e itself out of the result
    exactly, however it was rounded.
    """
    B = b + e
    C = c + e * B  # x^3 + b x^2 + c x + d = (x - e)(x^2 + B x + C)
    disc = B * B - 4.0 * C
    if disc < 0.0:
        return [], complex(-0.5 * B, 0.5 * math.sqrt(-disc))
    h = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    real = [h, C / h] if h != 0.0 else [0.0, 0.0]
    return [_polish(b, c, d, r) for r in real], None


def _real_root(b: float, c: float, d: float) -> float:
    """One real root of x^3 + b x^2 + c x + d in closed form.

    Numerical Recipes, 3rd ed., section 5.6: with Q = (b^2 - 3c)/9 and
    R = (2b^3 - 9bc + 27d)/54, three real roots (R^2 < Q^3) come from
    the trigonometric form, and the one of largest magnitude is
    returned, which is the simple root when two coincide; otherwise
    Cardano's formula gives the only real root, or a root of a double
    pair.  Its rounding error grows near a multiple root; ``_polish``
    refines it.
    """
    q = (b * b - 3.0 * c) / 9.0
    r = ((2.0 * b * b - 9.0 * c) * b + 27.0 * d) / 54.0
    shift = b / 3.0
    q3 = q * q * q
    if r * r < q3:
        theta = math.acos(max(-1.0, min(1.0, r / math.sqrt(q3))))
        m = -2.0 * math.sqrt(q)
        return max((m * math.cos((theta + k) / 3.0) - shift
                    for k in (0.0, 2.0 * math.pi, -2.0 * math.pi)), key=abs)
    big = -math.copysign((abs(r) + math.sqrt(r * r - q3)) ** (1.0 / 3.0), r)
    return big + (q / big if big else 0.0) - shift


def _cubic_roots(b: float, c: float, d: float) -> tuple[list[float], complex | None]:
    """Real roots of x^3 + b x^2 + c x + d ascending, and the upper root
    of a complex pair (or None)."""
    e = _polish(b, c, d, _real_root(b, c, d))
    real, z = _other_roots(b, c, d, e)
    return sorted([e] + real), z


def _arc(a: float, c: float, x: float, s: int):
    """The piece of the level curve y^2 = x^3 + a x + c that x enters
    when it moves in direction s (x may be a root)."""
    real, z = _cubic_roots(0.0, a, c)
    below = [r for r in real if r < x or (r == x and s > 0)]
    above = [r for r in real if r > x or (r == x and s < 0)]
    if not below or len(above) == 1:
        raise DegenerateTangency(f"x={x!r} is off every real branch of y^2 = P(x)")
    if len(real) == 3 and real[1] == real[2]:
        return _Separatrix(real[0], real[1], x)
    return _Arc(below, above, z)


class _Arc:
    """One connected piece of a level curve y^2 = P(x) = x^3 + a x + c
    whose ends are simple roots of P.

    x ranges over [lo, hi], where lo and a finite hi are turning points
    (real roots of P); hi is infinite on the unbounded piece.  The
    *phase* of a point is the travel time from lo, 1/2 int dx / sqrt(P).
    It is measured from the nearer turning point, so that it stays
    accurate at both ends, in the form of DLMF 19.29.iv with one end a
    root: for x = e + sigma u^2 and the other roots p, q,

        time(e -> x) = u R_F(sigma (x - p)(e - q), sigma (x - q)(e - p),
                             sigma (e - p)(e - q)),

    exact also for a complex pair p, q = conj(p).  ``below`` and
    ``above`` are the real roots below and above the piece, ``z`` the
    upper root of a complex pair or None.
    """

    def __init__(self, below: list[float], above: list[float], z: complex | None):
        self.lo = below[-1]
        if above:  # the oval between the two lower of three real roots
            self.hi, third = above
            self._lo_others = (self.hi, third)
            self._hi_others = (self.lo, third)
            self.top = carlson_rf(0.0, third - self.hi, third - self.lo)  # half period
            mid = 0.5 * (self.lo + self.hi)
            self._u_lo = math.sqrt(mid - self.lo)
            self._u_hi = math.sqrt(self.hi - mid)
            self._mid = self._time(self.lo, 1.0, self._lo_others, self._u_lo)
        else:
            self.hi = math.inf
            self._lo_others = (z, z.conjugate()) if z is not None else tuple(below[:-1])
            p, q = self._lo_others
            self.top = carlson_rf(self.lo - p, self.lo - q, 0.0)  # time to infinity
            self._mid = self._u_lo = math.inf

    @staticmethod
    def _time(e: float, sigma: float, others: tuple, u: float) -> float:
        if u == 0.0:
            return 0.0
        dp, dq = e - others[0], e - others[1]
        w = sigma * u * u
        return u * carlson_rf(sigma * (dp + w) * dq, sigma * (dq + w) * dp, sigma * dp * dq)

    def phase(self, x: float) -> float:
        if x - self.lo <= self.hi - x:
            return self._time(self.lo, 1.0, self._lo_others, math.sqrt(x - self.lo))
        return self.top - self._time(self.hi, -1.0, self._hi_others, math.sqrt(self.hi - x))

    def point(self, phase: float, s: int) -> tuple[float, float]:
        """(x, y) at the given phase on the half of the arc where sign(y) = s."""
        phase = min(max(phase, 0.0), self.top)
        if phase <= self._mid:
            e, sigma, others, target, u_max = self.lo, 1.0, self._lo_others, phase, self._u_lo
        else:
            e, sigma, others = self.hi, -1.0, self._hi_others
            target, u_max = self.top - phase, self._u_hi
        if u_max == math.inf:
            u_max = 1.0
            while self._time(e, sigma, others, u_max) <= target:
                u_max *= 2.0

        def phi(u: float) -> float:
            return self._time(e, sigma, others, u) - target

        if target <= 0.0:
            u = 0.0
        elif phi(u_max) <= 0.0:
            u = u_max
        else:
            u = bracketed_root(phi, 0.0, u_max)
        w = sigma * u * u
        # y^2 = P(x) = sigma u^2 (x - p)(x - q), with no cancellation near e
        py = (sigma * (e - others[0] + w) * (e - others[1] + w)).real
        return e + w, s * u * math.sqrt(py)


class _Separatrix:
    """A piece of y^2 = P(x) = (x - e)(x - h)^2 that ends at the double
    root h >= e, a saddle the orbit reaches only as t -> infinity.

    With k = sqrt(h - e) and v = sqrt(x - e), the travel time from e to x
    on the loop e <= x < h is atanh(v/k)/k, and the time from x to
    infinity on the unbounded piece x > h is atanh(k/v)/k (1/v for a
    cusp, h = e).  The phase, as on ``_Arc`` growing along the piece, is
    the first of them on the loop and minus the second on the unbounded
    piece; it is infinite at h.
    """

    def __init__(self, e: float, h: float, x: float):
        self._e, self._d, self._k = e, h - e, math.sqrt(h - e)
        self._loop = x < h
        self.lo, self.hi, self.top = (e, h, math.inf) if self._loop else (h, math.inf, 0.0)

    def phase(self, x: float) -> float:
        v, k = math.sqrt(x - self._e), self._k
        if self._loop:
            return math.atanh(v / k) / k if v < k else math.inf
        if v <= k:
            return -math.inf
        return -(math.atanh(k / v) / k if k else 1.0 / v)

    def point(self, phase: float, s: int) -> tuple[float, float]:
        """(x, y) at the given phase, where sign(y) = s."""
        k = self._k
        if self._loop:
            v = k * math.tanh(k * max(phase, 0.0))
        else:
            remaining = max(-phase, 0.0)  # time to infinity
            v = k / math.tanh(k * remaining) if k else 1.0 / remaining
        # y^2 = P(x) = v^2 (v^2 - k^2)^2
        return self._e + v * v, s * v * abs(v * v - self._d)


@dataclass(frozen=True)
class _Piece:
    t_start: float
    arc: _Arc | _Separatrix
    phase: float  # phase at t_start
    s: int  # sign of y, the direction in which x moves


class EllipticOracle:
    """Exact piecewise solution of the elliptic system.

    In each region y^2 - x^3 - a x = c is constant, so the orbit runs
    along a level curve y^2 = P(x) = x^3 + a x + c, on which x moves
    monotonically between turning points, the real roots of P.  Along
    it g = x^2 + y^2 - r^2 = x^3 + x^2 + a x + c - r^2, so crossings are
    real roots of that cubic.  The walk goes from root to root, and
    every time it adds is a Carlson R_F integral (see ``_Arc``), or an
    inverse hyperbolic tangent on a level curve through a saddle (see
    ``_Separatrix``); only the state at a given t on an ``_Arc`` inverts
    the time map by root finding.

    Callable as a state function of t; ``events`` holds the crossings up
    to T in order.
    """

    def __init__(self, a_minus: float, a_plus: float, radius: float,
                 x0, t0: float, T: float):
        x, y = _start(x0, t0, T)
        check_params({"a_minus": a_minus, "a_plus": a_plus, "radius": radius},
                     positive=("radius",))
        r2 = radius * radius
        g = x * x + y * y - r2
        if g == 0.0:
            raise InvalidInitialCondition("oracle needs x0 off the circle")
        side = RegionSide.PLUS if g > 0.0 else RegionSide.MINUS
        a_of = {RegionSide.MINUS: a_minus, RegionSide.PLUS: a_plus}
        a = a_of[side]
        c = y * y - x ** 3 - a * x
        if y != 0.0:
            s = 1 if y > 0.0 else -1
        else:  # a turning point: x leaves it in the direction of ydot
            ydot = 3.0 * x * x + a
            if ydot == 0.0:
                raise InvalidInitialCondition("x0 is an equilibrium")
            s = 1 if ydot > 0.0 else -1
            x = min(_cubic_roots(0.0, a, c)[0], key=lambda r: abs(r - x))
        arc = _arc(a, c, x, s)
        crossings = [q for q in _cubic_roots(1.0, a, c - r2)[0] if arc.lo < q < arc.hi]
        self.t0 = float(t0)
        self.T = float(T)
        self.events: list[OracleEvent] = []
        self._pieces: list[_Piece] = []
        t = self.t0
        phase = arc.phase(x)
        while True:
            self._pieces.append(_Piece(t, arc, phase, s))
            ahead = [q for q in crossings if (q - x) * s > 0.0]
            if ahead:
                x_next = min(ahead) if s > 0 else max(ahead)
            elif s < 0:
                x_next = arc.lo
            elif arc.hi < math.inf:
                x_next = arc.hi
            else:
                t_escape = t + arc.top - phase
                if t_escape <= self.T:
                    raise FiniteTimeBlowUp(
                        f"x escapes to infinity at t={t_escape:.17g}, before T={self.T}")
                break
            phase_next = arc.phase(x_next)
            t += abs(phase_next - phase)
            if t > self.T:
                break
            if not ahead:
                # Turn on the root just reached; solving for it again
                # would find it a rounding error away.
                x, phase, s = x_next, phase_next, -s
                continue
            y2 = r2 - x_next * x_next
            side_to = RegionSide.PLUS if side is RegionSide.MINUS else RegionSide.MINUS
            a = a_of[side_to]
            # dg/dt = 2 y (3 x^2 + 2 x + a) under the new field
            dg = s * ((3.0 * x_next + 2.0) * x_next + a)
            if y2 <= 0.0:
                raise DegenerateTangency(f"the orbit grazes the circle at x={x_next!r}")
            if dg == 0.0 or (dg > 0.0) != (side_to is RegionSide.PLUS):
                raise NonTransversalCrossing(
                    f"the {side_to.value} field does not leave the circle at t={t:.17g}")
            self.events.append(OracleEvent(t, np.array([x_next, s * math.sqrt(y2)]),
                                           side, side_to))
            side, x = side_to, x_next
            c = y2 - x ** 3 - a * x
            arc = _arc(a, c, x, s)
            # x stays a root of the new crossing cubic, exactly.
            others = _other_roots(1.0, a, c - r2, x)[0]
            crossings = [x] + [q for q in others if arc.lo < q < arc.hi]
            phase = arc.phase(x)
        self._starts = [p.t_start for p in self._pieces]

    def __call__(self, t: float) -> Array:
        if not (self.t0 <= t <= self.T + 1e-12):
            raise ValueError(f"t={t} outside the oracle horizon [{self.t0}, {self.T}]")
        p = self._pieces[max(bisect_right(self._starts, t) - 1, 0)]
        return np.array(p.arc.point(p.phase + p.s * (t - p.t_start), p.s))


def elliptic_oracle(sys: PwsSystem, x0, t0: float, T: float,
                    ) -> tuple[EllipticOracle, list[OracleEvent]]:
    user = "the elliptic oracle"
    oracle = EllipticOracle(sys.param("a_minus", user), sys.param("a_plus", user),
                            sys.param("radius", user), x0, t0, T)
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
