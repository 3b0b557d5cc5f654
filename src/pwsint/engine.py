"""Event-driven transition stepping for piecewise-smooth systems.

The driver takes uniform steps with the discrete vector field of the
current region.  When the sign of the switching function changes across
a proposed step, the crossing is localized by an outer bracketed root
solve in time wrapped around the inner implicit step solve, the step is
completed from the crossing point with the other region's field, and
the event is recorded.  Multiple crossings inside one step are handled
by re-running detection on the completion leg, up to a small cap.

An artificial perturbation of the localized crossing time can be
injected (clamped to the step interval) to study how crossing-time
accuracy limits global accuracy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

import numpy as np

from .errors import (
    ConfigError,
    CrossingLocalizationFailed,
    DivergingFixedPoint,
    InvalidInitialCondition,
    NoConvergence,
    NonTransversalCrossing,
    RunawaySwitching,
    StepTooLarge,
)
from .model import (
    Classification,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    classify_interface_point,
    side_of,
)
from .schemes import DiscreteVectorField
from .solvers import SolveStats, SolverConfig, bracketed_root, fixed_point, newton

Array = np.ndarray

# Fixed-point iterations spent on a leg before it falls back to Newton.
NEWTON_FALLBACK_AFTER = 25


@dataclass
class CrossingEvent:
    """One localized interface transition.

    ``t_hat``/``x_hat`` solve the coupled crossing system to solver
    tolerance; ``perturbation_applied`` is the actual (clamped) shift
    added to ``t_hat`` before the completion leg, and
    ``convex_residual`` is the defect of the combined two-leg update
    over the step that produced the event.
    """

    t_hat: float
    x_hat: Array
    side_from: RegionSide | None = None
    side_to: RegionSide | None = None
    residual_g: float = 0.0
    psi_level_residual: float = 0.0
    stats_locate: SolveStats | None = None
    stats_complete: SolveStats | None = None
    perturbation_applied: float = 0.0
    convex_residual: float = 0.0
    step_index: int = -1


@dataclass
class RegionSegment:
    """A maximal run of samples governed by one region's field."""

    start_index: int
    side: RegionSide
    psi_ref: Array


@dataclass
class Trajectory:
    times: Array
    states: Array
    tau: float
    events: list[CrossingEvent]
    region_segments: list[RegionSegment]

    def segment_at(self, k: int) -> RegionSegment:
        """Segment governing sample k (the last one starting at or before k)."""
        i = bisect_right(self.region_segments, k, key=attrgetter("start_index"))
        return self.region_segments[max(i - 1, 0)]

    def segment_blocks(self) -> Iterator[tuple[RegionSegment, int, int]]:
        """Yield (segment, lo, hi): the segment governs samples lo..hi-1.

        Segments that govern no sample (several crossings in one step)
        are skipped.
        """
        segments = self.region_segments
        n = len(self.times)
        for i, seg in enumerate(segments):
            hi = segments[i + 1].start_index if i + 1 < len(segments) else n
            if hi > seg.start_index:
                yield seg, seg.start_index, hi


def _solve_leg(dvf: DiscreteVectorField, t_a: float, x_a: Array, t_b: float,
               cfg: SolverConfig) -> tuple[Array, SolveStats]:
    """Solve x = x_a + (t_b - t_a) * dvf(t_a, x_a, t_b, x) for x.

    Explicit fields evaluate directly.  Implicit ones run fixed-point
    iteration from an explicit predictor and fall back to Newton when
    the iteration stalls or expands (large steps).
    """
    h = t_b - t_a
    if h == 0.0:
        return x_a.copy(), SolveStats(0, 0.0, 0.0, "explicit")
    if not dvf.is_implicit:
        x = x_a + h * dvf.evaluate(t_a, x_a, t_b, x_a)
        return x, SolveStats(0, 0.0, 0.0, "explicit")

    def step_map(x):
        return x_a + h * dvf.evaluate(t_a, x_a, t_b, x)

    guess = step_map(x_a)
    try:
        return fixed_point(step_map, guess, cfg, max_iter=NEWTON_FALLBACK_AFTER)
    except (DivergingFixedPoint, NoConvergence):
        x, stats = newton(lambda x: x - step_map(x), guess, cfg)
        return x, stats


def smooth_step(dvf: DiscreteVectorField, t_k: float, x_k: Array, t_target: float,
                cfg: SolverConfig | None = None) -> Array:
    """One step of the discrete field from (t_k, x_k) to t_target."""
    return _solve_leg(dvf, t_k, np.asarray(x_k, dtype=float), t_target,
                      cfg or SolverConfig())[0]


def locate_crossing(dvf_from: DiscreteVectorField, surface: SwitchingSurface,
                    t_k: float, x_k: Array, tau: float,
                    cfg: SolverConfig | None = None) -> CrossingEvent:
    """Localize the interface crossing inside the step [t_k, t_k + tau].

    Runs a bracketed scalar root solve on phi(t) = g(xhat(t)), where
    xhat(t) is the inner step solution up to time t; the bracket comes
    from the sign change that triggered the call, so convergence is
    guaranteed.

    Returns a partial event carrying (t_hat, x_hat), the g-residual and
    the locate statistics; region bookkeeping is filled by the caller.
    """
    cfg = cfg or SolverConfig()
    x_k = np.asarray(x_k, dtype=float)
    t_b = t_k + tau
    n_evals = 0
    # Each in-step time is solved once: Brent evaluates the step end
    # again, and the root it returns is usually a time it evaluated.
    legs: dict[float, tuple[Array, SolveStats]] = {}

    def leg(t: float) -> tuple[Array, SolveStats]:
        if t not in legs:
            legs[t] = _solve_leg(dvf_from, t_k, x_k, t, cfg)
        return legs[t]

    def phi(t: float) -> float:
        nonlocal n_evals
        n_evals += 1
        return surface.value(leg(t)[0])

    g_a = surface.value(x_k)
    g_b = phi(t_b)
    band = surface.on_surface_tol
    if abs(g_b) <= band:
        raise ValueError("step endpoint is on the surface; treat as a landing, not a crossing")

    a_eff = t_k
    if abs(g_a) > band and g_a * g_b < 0.0:
        pass  # clean bracket straight from the trigger
    elif abs(g_a) <= band:
        # Start sits on the surface (completion leg of a previous event,
        # or an exact landing).  Walk into the step until phi picks up
        # the sign opposite the far end; transversal exit guarantees one
        # exists arbitrarily close to the start.
        want_positive = g_b < 0.0
        hi = t_b
        found = None
        for _ in range(60):
            mid = 0.5 * (a_eff + hi)
            if mid == a_eff or mid == hi:
                break
            fm = phi(mid)
            if abs(fm) > band and (fm > 0.0) == want_positive:
                found = mid
                break
            hi = mid
        if found is None:
            raise CrossingLocalizationFailed(
                "no strictly signed point found between the surface start and the step end")
        a_eff = found
    else:
        raise ValueError("no sign change across the step: locate_crossing needs "
                         "strictly opposite signs at the endpoints")

    t_hat = bracketed_root(phi, a_eff, t_b, cfg)
    x_hat, inner = leg(t_hat)
    g_hat = surface.value(x_hat)
    stats = SolveStats(iterations=n_evals, residual=abs(g_hat),
                       contraction_estimate=inner.contraction_estimate,
                       method_used=inner.method_used)
    return CrossingEvent(t_hat=float(t_hat), x_hat=x_hat,
                         residual_g=g_hat, stats_locate=stats)


class _Run:
    """Mutable state of one integration; not part of the public API."""

    def __init__(self, sys: PwsSystem, dvfs: dict, cfg: SolverConfig,
                 tau: float, perturbation: tuple[float, float] | None,
                 max_crossings_per_step: int, max_events: int):
        self.sys = sys
        self.dvfs = dvfs
        self.cfg = cfg
        self.tau = tau
        self.pert = perturbation
        self.max_crossings_per_step = max_crossings_per_step
        self.max_events = max_events
        self.events: list[CrossingEvent] = []
        self.segments: list[RegionSegment] = []

    def advance(self, t_a: float, x_a: Array, side: RegionSide, t_b: float,
                k: int) -> tuple[Array, RegionSide]:
        """Advance one grid step, localizing and crossing any transitions."""
        surface = self.sys.surface
        # The event whose completion leg is being solved, and the start
        # and field of the leg that led to it.
        pending: CrossingEvent | None = None
        first_t = first_x = first_dvf = None
        leg_t, leg_x, leg_side = t_a, x_a, side
        crossings = 0

        def close_pending(t_end: float, x_end: Array, stats: SolveStats) -> None:
            """Fill completion stats and the two-leg defect of ``pending``."""
            if pending is None:
                return
            pending.stats_complete = stats
            t_p = pending.t_hat + pending.perturbation_applied
            r = (x_end - first_x
                 - (pending.t_hat - first_t)
                 * first_dvf.evaluate(first_t, first_x, pending.t_hat, pending.x_hat)
                 - (t_end - t_p)
                 * self.dvfs[pending.side_to].evaluate(t_p, pending.x_hat, t_end, x_end))
            pending.convex_residual = float(np.linalg.norm(r))

        while True:
            dvf = self.dvfs[leg_side]
            x_prop, solve_stats = _solve_leg(dvf, leg_t, leg_x, t_b, self.cfg)
            s2 = side_of(surface, x_prop)
            if s2 is leg_side:
                close_pending(t_b, x_prop, solve_stats)
                return x_prop, leg_side
            if crossings >= self.max_crossings_per_step:
                raise StepTooLarge(
                    f"more than {self.max_crossings_per_step} crossings in step {k}; "
                    "reduce the step size")
            if len(self.events) >= self.max_events:
                raise RunawaySwitching(f"event count exceeded cap {self.max_events}")

            if s2 is RegionSide.ON_SURFACE:
                # Landed numerically on the surface: treat as a crossing
                # at the step end; the far side comes from classification.
                ev = CrossingEvent(t_hat=t_b, x_hat=x_prop,
                                   residual_g=surface.value(x_prop),
                                   stats_locate=solve_stats)
            else:
                ev = locate_crossing(dvf, surface, leg_t, leg_x, t_b - leg_t, self.cfg)
            ev.step_index = k
            close_pending(ev.t_hat, ev.x_hat, ev.stats_locate)

            tol = max(surface.on_surface_tol, 10.0 * abs(ev.residual_g))
            info = classify_interface_point(self.sys, ev.x_hat, ev.t_hat, tol=tol)
            if info.kind in (Classification.SLIDING, Classification.REPELLING):
                raise NonTransversalCrossing(
                    f"{info.kind.value} point at t={ev.t_hat}: x={ev.x_hat!r}")
            side_to = (RegionSide.PLUS if info.kind is Classification.TRANSVERSAL_UP
                       else RegionSide.MINUS)
            if side_to is leg_side:
                raise CrossingLocalizationFailed(
                    f"sign change at t={ev.t_hat} contradicts the flow direction")
            ev.side_from, ev.side_to = leg_side, side_to

            seg = self.segments[-1]
            psi_from = self.sys.conserved(leg_side).values(ev.x_hat)
            ev.psi_level_residual = float(np.max(np.abs(psi_from - seg.psi_ref)))
            self.sys.conserved(side_to).check_rank(ev.x_hat)

            t_p = ev.t_hat
            if self.pert is not None:
                c, p = self.pert
                t_p = min(max(ev.t_hat + c * self.tau ** p, leg_t), t_b)
            ev.perturbation_applied = t_p - ev.t_hat
            self.events.append(ev)
            self.segments.append(RegionSegment(
                k + 1, side_to, self.sys.conserved(side_to).values(ev.x_hat)))
            crossings += 1

            pending, first_t, first_x, first_dvf = ev, leg_t, leg_x, dvf
            if t_p >= t_b:
                # Completion leg has zero length: exact landing, or the
                # injected perturbation was clamped to the step end.
                close_pending(t_p, ev.x_hat, SolveStats(0, 0.0, 0.0, "explicit"))
                return ev.x_hat.copy(), side_to
            leg_t, leg_x, leg_side = t_p, ev.x_hat, side_to


def integrate(sys: PwsSystem, scheme_minus: DiscreteVectorField,
              scheme_plus: DiscreteVectorField, x0, t0: float, T: float,
              tau: float, cfg: SolverConfig | None = None,
              perturbation: tuple[float, float] | None = None,
              max_steps: int = 10_000_000, max_crossings_per_step: int = 4,
              max_events: int = 100_000) -> Trajectory:
    """Integrate the system on the uniform grid t0 + k*tau up to T.

    The number of steps is round((T - t0)/tau); the grid always stays
    uniform.  ``perturbation=(c, p)`` shifts every localized crossing
    time by c * tau**p (clamped to its step interval) before the
    completion leg, which degrades the crossing accuracy in a controlled
    way.  Two calls with identical inputs produce identical output, and
    independent integrations share no mutable state, so they may run
    concurrently.
    """
    cfg = cfg or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,) or not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 must be {sys.dim} finite numbers, got {x0!r}")
    if not np.all(np.isfinite((t0, T, tau))):
        raise ConfigError("t0, T and tau must be finite")
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    span = T - t0
    if span < 0.0:
        raise ConfigError("T must not precede t0")
    n_steps = int(round(span / tau))
    if n_steps > max_steps:
        raise ConfigError(f"{n_steps} steps exceed the cap {max_steps}")

    side = side_of(sys.surface, x0)
    if side is RegionSide.ON_SURFACE:
        raise InvalidInitialCondition("initial state lies on the switching surface")
    sys.conserved(side).check_rank(x0)

    run = _Run(sys, {RegionSide.MINUS: scheme_minus, RegionSide.PLUS: scheme_plus},
               cfg, tau, perturbation, max_crossings_per_step, max_events)
    run.segments.append(RegionSegment(0, side, sys.conserved(side).values(x0)))

    times = t0 + tau * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = x0
    for k in range(n_steps):
        # The side comes from advance, not from g at the new state, which
        # may sit on the surface right after a landing.
        states[k + 1], side = run.advance(times[k], states[k], side, times[k + 1], k)
    return Trajectory(times=times, states=states, tau=tau,
                      events=run.events, region_segments=run.segments)
