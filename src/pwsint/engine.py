"""Event-driven transition stepping for piecewise-smooth systems.

The driver takes uniform steps with the discrete vector field of the
current region.  Each leg is solved by the field's direct ``solve`` when
it has one, and otherwise by fixed-point iteration with a Newton
fallback.  A grid leg whose start and three earlier samples all lie in
the current region segment starts that iteration from their cubic
extrapolation, which leaves about two iterations per leg at small
steps; every other leg starts from the explicit Euler predictor.  When
the sign of the switching function changes across a proposed step, the
crossing is localized by an outer bracketed root solve in time wrapped
around the inner step solve (which reuses the proposal for the step
end), the step is completed from the crossing point with the other
region's field, and the event is recorded.  Multiple crossings inside
one step are handled by re-running detection on the completion leg, up
to a small cap.  A numerical failure inside a step is re-raised with the
step's index, start time and starting side.

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
    NumericalError,
    RunawaySwitching,
    StepTooLarge,
)
from .model import (
    _PLUS,
    Classification,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    classify_interface_point,
    side_of,
)
from .schemes import DiscreteVectorField
from .solvers import SolveStats, bracketed_root, fixed_point, newton

Array = np.ndarray

# Fixed-point iterations spent on a leg before it falls back to Newton.
NEWTON_FALLBACK_AFTER = 25

# Fixed caps of ``integrate``: crossings inside one step, events and
# grid steps per run.
MAX_CROSSINGS_PER_STEP = 4
MAX_EVENTS = 100_000
MAX_STEPS = 10_000_000

_EXPLICIT = SolveStats(0, 0.0, 0.0, "explicit")
_DIRECT = SolveStats(0, 0.0, 0.0, "direct")


@dataclass
class CrossingEvent:
    """One localized interface transition.

    ``t_hat`` is the root of g along the discrete leg of ``side_from``
    and ``x_hat`` that leg's state there, both to solver tolerance;
    ``perturbation_applied`` is the actual (clamped) shift added to
    ``t_hat`` before the completion leg.  ``stats_locate`` describes the
    localization and ``stats_complete`` the completion leg.
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
               prev: tuple[Array, Array, Array] | None = None
               ) -> tuple[Array, SolveStats]:
    """Solve x = x_a + (t_b - t_a) * dvf(t_a, x_a, t_b, x) for x.

    Explicit fields evaluate directly.  Implicit ones with a direct
    ``solve`` call it; the others run fixed-point iteration and fall back
    to Newton, from the same starting value, when the iteration stalls or
    expands (large steps).  ``prev=(x_{k-1}, x_{k-2}, x_{k-3})``, the
    three samples before x_a = x_k on the same uniform grid and field,
    starts the iteration from the cubic extrapolation
    4 (x_k + x_{k-2}) - 6 x_{k-1} - x_{k-3}, which misses the solution by
    O(h^4) (Hairer & Wanner, Solving ODEs II, section IV.8); without it
    the start is the explicit Euler predictor, which misses by O(h^2).
    """
    h = t_b - t_a
    if h == 0.0:
        return x_a.copy(), _EXPLICIT
    if not dvf.is_implicit:
        x = x_a + h * dvf.evaluate(t_a, x_a, t_b, x_a)
        return x, _EXPLICIT
    if dvf.solve is not None:
        return dvf.solve(t_a, x_a, t_b), _DIRECT

    def step_map(x):
        return x_a + h * dvf.evaluate(t_a, x_a, t_b, x)

    if prev is None:
        guess = step_map(x_a)
    else:
        x_1, x_2, x_3 = prev
        guess = 4.0 * (x_a + x_2) - 6.0 * x_1 - x_3
    try:
        return fixed_point(step_map, guess, max_iter=NEWTON_FALLBACK_AFTER)
    except (DivergingFixedPoint, NoConvergence):
        x, stats = newton(lambda x: x - step_map(x), guess)
        return x, stats


def smooth_step(dvf: DiscreteVectorField, t_k: float, x_k: Array,
                t_target: float) -> Array:
    """One step of the discrete field from (t_k, x_k) to t_target."""
    return _solve_leg(dvf, t_k, np.asarray(x_k, dtype=float), t_target)[0]


def locate_crossing(dvf_from: DiscreteVectorField, surface: SwitchingSurface,
                    t_k: float, x_k: Array,
                    end_leg: tuple[float, Array, SolveStats]) -> CrossingEvent:
    """Localize the interface crossing inside the step from t_k to t_b.

    ``end_leg=(t_b, x_b, stats)`` is the leg the caller already solved
    from (t_k, x_k) to the step end, with its solve statistics; it is
    not solved again.  Runs a bracketed scalar root solve on
    phi(t) = g(xhat(t)), where xhat(t) is the inner step solution up to
    time t; the bracket comes from the sign change between x_k and x_b,
    so convergence is guaranteed.  Each in-step time is solved, and g
    evaluated, at most once.

    Returns a partial event carrying (t_hat, x_hat), the g-residual and
    the locate statistics; region bookkeeping is filled by the caller.
    A step end in the on-surface band (|g| <= on_surface_tol) is a
    landing: the event sits at t_b with the end leg's state, g and
    solve statistics.
    """
    x_k = np.asarray(x_k, dtype=float)
    n_evals = 0
    g_a = surface.value(x_k)
    t_b, x_b, stats_b = end_leg
    # t -> (state, solve stats, g) of the leg from t_k; Brent evaluates
    # both bracket ends again and returns a time it evaluated.
    legs: dict[float, tuple[Array, SolveStats, float]] = {
        t_k: (x_k, _EXPLICIT, g_a), t_b: (x_b, stats_b, surface.value(x_b))}

    def leg(t: float) -> tuple[Array, SolveStats, float]:
        if t not in legs:
            x, stats = _solve_leg(dvf_from, t_k, x_k, t)
            legs[t] = (x, stats, surface.value(x))
        return legs[t]

    def phi(t: float) -> float:
        nonlocal n_evals
        n_evals += 1
        return leg(t)[2]

    g_b = phi(t_b)
    band = surface.on_surface_tol
    if abs(g_b) <= band:
        return CrossingEvent(t_hat=t_b, x_hat=x_b, residual_g=g_b, stats_locate=stats_b)

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

    t_hat = bracketed_root(phi, a_eff, t_b)
    x_hat, inner, g_hat = leg(t_hat)
    stats = SolveStats(iterations=n_evals, residual=abs(g_hat),
                       contraction_estimate=inner.contraction_estimate,
                       method_used=inner.method_used)
    return CrossingEvent(t_hat=float(t_hat), x_hat=x_hat,
                         residual_g=g_hat, stats_locate=stats)


def check_run_inputs(sys: PwsSystem, x0, t0: float, T: float, tau: float,
                     perturbation: tuple[float, float] | None = None) -> Array:
    """Raise ``ConfigError`` on malformed run inputs; return x0 as a float array."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,) or not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 must be {sys.dim} finite numbers, got {x0.tolist()}")
    if not np.all(np.isfinite((t0, T, tau))):
        raise ConfigError("t0, T and tau must be finite")
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    if T < t0:
        raise ConfigError("T must not precede t0")
    if perturbation is not None and not np.all(np.isfinite(perturbation)):
        raise ConfigError("perturbation c and p must be finite")
    return x0


def integrate(sys: PwsSystem, scheme_minus: DiscreteVectorField,
              scheme_plus: DiscreteVectorField, x0, t0: float, T: float,
              tau: float, perturbation: tuple[float, float] | None = None) -> Trajectory:
    """Integrate the system on the uniform grid t0 + k*tau up to T.

    The number of steps is round((T - t0)/tau); the grid always stays
    uniform.  ``perturbation=(c, p)`` shifts every localized crossing
    time by c * tau**p (clamped to its step interval) before the
    completion leg, which degrades the crossing accuracy in a controlled
    way.  Two calls with identical inputs produce identical output, and
    independent integrations share no mutable state, so they may run
    concurrently.
    """
    x0 = check_run_inputs(sys, x0, t0, T, tau, perturbation)
    n_steps = int(round((T - t0) / tau))
    if n_steps > MAX_STEPS:
        raise ConfigError(f"{n_steps} steps exceed the cap {MAX_STEPS}")

    surface = sys.surface
    side = side_of(surface, x0)
    if side is RegionSide.ON_SURFACE:
        raise InvalidInitialCondition("initial state lies on the switching surface")
    sys.conserved(side).check_rank(x0)

    events: list[CrossingEvent] = []
    segments = [RegionSegment(0, side, sys.conserved(side).values(x0))]

    def advance(t_a: float, x_a: Array, side: RegionSide, t_b: float, k: int,
                prev: tuple[Array, Array, Array] | None) -> tuple[Array, RegionSide]:
        """Advance one grid step, localizing and crossing any transitions.

        ``prev`` holds the three samples before x_a for the grid leg, or
        None; the completion legs after a crossing never use it.
        """
        crossings = 0
        while True:
            dvf = scheme_plus if side is _PLUS else scheme_minus
            x_prop, solve_stats = _solve_leg(dvf, t_a, x_a, t_b, prev)
            s2 = side_of(surface, x_prop)
            if s2 is side:
                if crossings:
                    events[-1].stats_complete = solve_stats
                return x_prop, side
            if crossings >= MAX_CROSSINGS_PER_STEP:
                raise StepTooLarge(f"more than {MAX_CROSSINGS_PER_STEP} crossings in "
                                   "the step; reduce the step size")
            if len(events) >= MAX_EVENTS:
                raise RunawaySwitching(f"event count exceeded cap {MAX_EVENTS}")

            ev = locate_crossing(dvf, surface, t_a, x_a, (t_b, x_prop, solve_stats))
            ev.step_index = k
            if crossings:
                events[-1].stats_complete = ev.stats_locate

            info = classify_interface_point(sys, ev.x_hat, ev.t_hat, ev.residual_g)
            if info.kind in (Classification.SLIDING, Classification.REPELLING):
                raise NonTransversalCrossing(
                    f"{info.kind.value} point at t={ev.t_hat}: x={ev.x_hat!r}")
            side_to = (RegionSide.PLUS if info.kind is Classification.TRANSVERSAL_UP
                       else RegionSide.MINUS)
            if side_to is side:
                raise CrossingLocalizationFailed(
                    f"sign change at t={ev.t_hat} contradicts the flow direction")
            ev.side_from, ev.side_to = side, side_to

            psi_from = sys.conserved(side).values(ev.x_hat)
            ev.psi_level_residual = float(np.max(np.abs(psi_from - segments[-1].psi_ref)))
            sys.conserved(side_to).check_rank(ev.x_hat)

            t_p = ev.t_hat
            if perturbation is not None:
                c, p = perturbation
                t_p = min(max(ev.t_hat + c * tau ** p, t_a), t_b)
            ev.perturbation_applied = t_p - ev.t_hat
            events.append(ev)
            segments.append(RegionSegment(
                k + 1, side_to, sys.conserved(side_to).values(ev.x_hat)))
            crossings += 1

            if t_p >= t_b:
                # Completion leg has zero length: exact landing, or the
                # injected perturbation was clamped to the step end.
                ev.stats_complete = _EXPLICIT
                return ev.x_hat.copy(), side_to
            t_a, x_a, side, prev = t_p, ev.x_hat, side_to, None

    times = t0 + tau * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = x = x0
    x_1 = x_2 = x_3 = None  # the three samples before x
    # An escaping orbit overflows to inf, which the finiteness checks
    # turn into a typed error; numpy need not warn about it first.
    with np.errstate(over="ignore"):
        for k in range(n_steps):
            # Python floats from times.item and the state advance returns
            # keep numpy scalars and row views out of the step; a tolist()
            # grid would hold one Python float per sample.  The side comes
            # from advance, not from g at the new state, which may sit on
            # the surface right after a landing.  The grid leg extrapolates
            # only from samples that all lie in the current segment.
            try:
                x_new, side = advance(times.item(k), x, side, times.item(k + 1), k,
                                      (x_1, x_2, x_3)
                                      if k - 3 >= segments[-1].start_index else None)
            except NumericalError as exc:
                t_k = times.item(k)
                raise type(exc)(f"step {k} at t={t_k!r}: {exc} (on the {side.value} side)",
                                k=k, t=t_k, side=side) from exc
            states[k + 1] = x_new
            x_3, x_2, x_1, x = x_2, x_1, x, x_new
    return Trajectory(times=times, states=states, tau=tau,
                      events=events, region_segments=segments)
