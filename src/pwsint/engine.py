"""Event-driven transition stepping for piecewise-smooth systems.

The driver takes uniform steps with the discrete vector field of the
current region, in one loop over the grid whose every pass solves one
leg: a step's grid leg, or, after the step has crossed, its completion
leg from the crossing point to the step end with the other region's
field.  Grid legs of implicit fields step by exactly ``tau``; every
other leg (explicit, in-step, completion) steps by the difference of
its end times.  A field with a direct ``march`` (``dmm-elliptic``)
marches a block of up to ``MARCH_BLOCK`` grid steps in one call,
evaluates ``g`` once on the stacked rows and commits in bulk the
leading rows that lie strictly on its side.  The first block of a
segment that follows a crossing is sized so that a later one ends two
rows past the crossing step predicted by the last segment on the same
side, which keeps the rows marched past a crossing and dropped to a
few.  A block's crossing or landing step takes the block's next row
and ``g`` as its grid leg; other legs are solved, by a one-step march
(a step the march could not take, or a row whose ``g`` is not finite,
is solved again so that it raises), by explicit evaluation, or by
fixed-point iteration with a Newton fallback, an iterated grid leg
starting from the quintic extrapolation of the last six samples when
they lie in the current region segment.  ``g`` is evaluated once per
leg end and handed on.  A leg that ends off its side crosses: the sign
change of ``g`` is localized by an outer bracketed root solve in time
around the inner step solve, which evaluates ``g`` once per in-step
leg it solves, and the crossing is classified with the event's own
``g`` residual and recorded.  The completion leg starts on the
surface, whatever that residual, and may cross again, up to a small
cap per step.  Each step ends in one commit; a numerical failure
inside it is re-raised with the step's index, start time and starting
side.

An artificial perturbation of the localized crossing time can be
injected (clamped to the step interval) to study how crossing-time
accuracy limits global accuracy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

import numpy as np

from .errors import (
    ConfigError,
    CrossingLocalizationFailed,
    DivergingFixedPoint,
    EvaluationError,
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

# Grid steps per march of a field that has one (the first march of a
# segment that follows a crossing takes 2 to 65, see _first_block).
# Crossings on the elliptic sweep are 25 to 400 steps apart at tau 0.04
# to 0.0025.
MARCH_BLOCK = 64

_EXPLICIT = SolveStats(0, 0.0, 0.0, "explicit")
_DIRECT = SolveStats(0, 0.0, 0.0, "direct")

# x_{k+1} ~ _QUINTIC . (x_{k-5}, ..., x_k), exact for quintic samples.
_QUINTIC = np.array([-1.0, 6.0, -15.0, 20.0, -15.0, 6.0])


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
               h: float | None = None, guess: Array | None = None
               ) -> tuple[Array, SolveStats]:
    """Solve x = x_a + h * dvf(t_a, x_a, t_b, x) for x, h = t_b - t_a by default.

    Explicit fields evaluate directly over t_b - t_a.  Implicit ones
    with a direct ``march`` take one march step of h; the others iterate
    from ``guess``, else from the Euler predictor (O(h^2) off), with a
    Newton fallback from the same start.  A grid leg passes ``h=tau``,
    which its rounded end times miss by up to ulp(t), and an iterated
    one the quintic extrapolation of the six samples up to x_a, O(h^6)
    off (Hairer & Wanner, Solving ODEs II, section IV.8).
    """
    if t_b == t_a:
        return x_a.copy(), _EXPLICIT
    if not dvf.is_implicit:
        return x_a + (t_b - t_a) * dvf.evaluate(t_a, x_a, t_b, x_a), _EXPLICIT
    if h is None:
        h = t_b - t_a
    if dvf.march is not None:
        return dvf.march(t_a, x_a, h, 1)[0], _DIRECT

    def step_map(x):
        return x_a + h * dvf.evaluate(t_a, x_a, t_b, x)

    if guess is None:
        guess = step_map(x_a)
    try:
        return fixed_point(step_map, guess, max_iter=NEWTON_FALLBACK_AFTER)
    except (DivergingFixedPoint, NoConvergence):
        return newton(lambda x: x - step_map(x), guess)


def smooth_step(dvf: DiscreteVectorField, t_k: float, x_k: Array,
                t_target: float) -> Array:
    """One step of the discrete field from (t_k, x_k) to t_target."""
    return _solve_leg(dvf, t_k, np.asarray(x_k, dtype=float), t_target)[0]


def locate_crossing(dvf_from: DiscreteVectorField, surface: SwitchingSurface,
                    t_k: float, x_k: Array,
                    end_leg: tuple[float, Array, SolveStats],
                    g_a: float, g_b: float) -> CrossingEvent:
    """Localize the interface crossing inside the step from t_k to t_b.

    ``end_leg=(t_b, x_b, stats)`` is the leg the caller already solved
    from (t_k, x_k) to the step end, with its solve statistics; it is
    not solved again.  ``g_a`` and ``g_b`` are g at x_k and x_b, which
    the caller has; they are not evaluated again.  A caller that knows
    x_k to lie on the surface, as at the start of a completion leg, may
    pass ``g_a=0.0`` whatever the g there.  Runs a bracketed
    scalar root solve on phi(t) = g(xhat(t)), where xhat(t) is the inner
    step solution up to time t; the bracket comes from the sign change
    between x_k and x_b, so convergence is guaranteed.  Each in-step
    time is solved, and g evaluated, at most once.

    Returns a partial event carrying (t_hat, x_hat), the g-residual and
    the locate statistics; region bookkeeping is filled by the caller.
    A step end in the on-surface band (|g| <= on_surface_tol) is a
    landing: the event sits at t_b with the end leg's state, g and
    solve statistics.
    """
    x_k = np.asarray(x_k, dtype=float)
    n_evals = 1  # phi(t_b), known on entry
    t_b, x_b, stats_b = end_leg
    # t -> (state, solve stats, g) of the leg from t_k; Brent evaluates
    # both bracket ends again and returns a time it evaluated.
    legs: dict[float, tuple[Array, SolveStats, float]] = {
        t_k: (x_k, _EXPLICIT, g_a), t_b: (x_b, stats_b, g_b)}

    def leg(t: float) -> tuple[Array, SolveStats, float]:
        if t not in legs:
            x, stats = _solve_leg(dvf_from, t_k, x_k, t)
            legs[t] = (x, stats, surface.value(x))
        return legs[t]

    def phi(t: float) -> float:
        nonlocal n_evals
        n_evals += 1
        return leg(t)[2]

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


def _at_step(exc: NumericalError, k: int, t: float, side: RegionSide) -> NumericalError:
    """``exc`` again, with the index, start time and starting side of its step."""
    return type(exc)(f"step {k} at t={t!r}: {exc} (on the {side.value} side)",
                     k=k, t=t, side=side)


def _first_block(segments: list[RegionSegment]) -> int:
    """Rows of the first march of the segment just entered: 2 to 65.

    The last segment on the same side took L grid steps, the last of
    them its crossing step; this segment's blocks of ``MARCH_BLOCK``
    are aligned so that one ends two rows past the same step here, row
    L - 1.  A first block of one row takes ``MARCH_BLOCK + 1`` instead,
    which ends where the two would have.  The first segment starts at
    x0, part way along, and predicts nothing.
    """
    if len(segments) < 4 or segments[-3].side is not segments[-1].side:
        return MARCH_BLOCK
    steps = segments[-2].start_index - segments[-3].start_index
    return steps % MARCH_BLOCK + 2


def check_run_inputs(sys: PwsSystem, x0, t0: float, T: float, tau: float,
                     perturbation: tuple[float, float] | None = None
                     ) -> tuple[Array, float]:
    """Raise ``ConfigError`` on malformed inputs; return x0 and the shift c * tau**p."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sys.dim,) or not np.all(np.isfinite(x0)):
        raise ConfigError(f"x0 must be {sys.dim} finite numbers, got {x0.tolist()}")
    if not np.all(np.isfinite((t0, T, tau))):
        raise ConfigError("t0, T and tau must be finite")
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    if T < t0:
        raise ConfigError("T must not precede t0")
    c, p = (0.0, 0.0) if perturbation is None else perturbation
    try:
        shift = c * tau ** p
    except OverflowError:
        shift = math.inf
    if not (math.isfinite(p) and math.isfinite(shift)):
        raise ConfigError(f"perturbation c, p and c * tau**p must be finite, "
                          f"got c={c!r}, p={p!r} at tau={tau!r}")
    return x0, shift


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
    x0, shift = check_run_inputs(sys, x0, t0, T, tau, perturbation)
    n_steps = int(round((T - t0) / tau))
    if n_steps > MAX_STEPS:
        raise ConfigError(f"{n_steps} steps exceed the cap {MAX_STEPS}")

    surface = sys.surface
    g_x = surface.value(x0)
    side = side_of(surface, x0, g_x)
    if side is RegionSide.ON_SURFACE:
        raise InvalidInitialCondition("initial state lies on the switching surface")
    sys.conserved(side).check_rank(x0)

    events: list[CrossingEvent] = []
    segments = [RegionSegment(0, side, sys.conserved(side).values(x0))]
    times = t0 + tau * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = x = x0
    band = surface.on_surface_tol
    # Each pass solves one leg of step k: its grid leg while the step has
    # not crossed, else the completion leg from the last crossing to the
    # step end.  After a crossing, t_a, x and g_x are that leg's start.
    k = crossings = 0
    entered = True  # the side changed: take its field
    # An escaping orbit overflows to inf, which the finiteness checks
    # turn into a typed error; numpy need not warn about it first.
    with np.errstate(over="ignore"):
        while k < n_steps:
            if entered:
                # Grid legs from step warm_from on start from the quintic:
                # their field iterates (explicit and marched legs never pay
                # for the start), and x_{k-5}..x_k lie in its segment.
                dvf = scheme_plus if side is _PLUS else scheme_minus
                marching = dvf.march is not None
                warm_from = (segments[-1].start_index + 5 if dvf.is_implicit and not marching
                             else n_steps)
                entered = False
            try:
                if crossings:
                    x_new, stats = _solve_leg(dvf, t_a, x, t_b)
                    g_new = surface.value(x_new)
                    events[-1].stats_complete = stats
                else:
                    leg = None
                    if marching:
                        # Commit in bulk the leading rows strictly on this
                        # side (a non-finite g is not).  The next row and its
                        # finite g are the leg of the step below; a non-finite
                        # g, or a step the march could not take, is solved
                        # there again, to raise.
                        n_block = min(_first_block(segments) if k == segments[-1].start_index
                                      else MARCH_BLOCK, n_steps - k)
                        rows = dvf.march(times.item(k), x, tau, n_block)
                        gv = np.asarray(surface.g(rows), dtype=float)
                        if gv.shape != (len(rows),):
                            raise EvaluationError(
                                f"g does not broadcast over a stack of {len(rows)} states "
                                f"(returned shape {gv.shape})")
                        lo, hi = (band, math.inf) if side is _PLUS else (-math.inf, -band)
                        inside = (gv > lo) & (gv < hi)
                        n = int(inside.argmin())
                        if inside[n]:
                            n = len(rows)
                        if n:
                            states[k + 1:k + n + 1] = rows[:n]
                            k += n
                            x, g_x = rows[n - 1], gv.item(n - 1)
                        if n == n_block:
                            continue
                        if n < len(rows) and math.isfinite(gv.item(n)):
                            leg = rows[n], _DIRECT, gv.item(n)
                    # Python floats from times.item (not a tolist() grid) and
                    # the carried state keep numpy scalars and row views out
                    # of the step.
                    t_a, t_b = times.item(k), times.item(k + 1)
                    if leg is None:
                        x_new, stats = _solve_leg(
                            dvf, t_a, x, t_b, tau,
                            _QUINTIC.dot(states[k - 5:k + 1]) if k >= warm_from else None)
                        g_new = surface.value(x_new)
                    else:
                        x_new, stats, g_new = leg
                if side_of(surface, x_new, g_new) is not side:
                    if crossings >= MAX_CROSSINGS_PER_STEP:
                        raise StepTooLarge(f"more than {MAX_CROSSINGS_PER_STEP} crossings in "
                                           "the step; reduce the step size")
                    if len(events) >= MAX_EVENTS:
                        raise RunawaySwitching(f"event count exceeded cap {MAX_EVENTS}")
                    ev = locate_crossing(dvf, surface, t_a, x, (t_b, x_new, stats), g_x, g_new)
                    ev.step_index = k
                    if crossings:
                        # The completion leg crossed: its statistics are
                        # those of this localization.
                        events[-1].stats_complete = ev.stats_locate

                    # ev.residual_g is g at ev.x_hat.
                    info = classify_interface_point(sys, ev.x_hat, ev.t_hat, ev.residual_g,
                                                    ev.residual_g)
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
                    ev.psi_level_residual = float(abs(psi_from - segments[-1].psi_ref).max())
                    sys.conserved(side_to).check_rank(ev.x_hat)

                    t_p = min(max(ev.t_hat + shift, t_a), t_b)
                    ev.perturbation_applied = t_p - ev.t_hat
                    events.append(ev)
                    segments.append(RegionSegment(
                        k + 1, side_to, sys.conserved(side_to).values(ev.x_hat)))
                    crossings += 1
                    side, entered = side_to, True
                    if t_p < t_b:
                        # The completion leg starts on the surface, whatever
                        # its g-residual: the crossing code walks in from it.
                        t_a, x, g_x = t_p, ev.x_hat, 0.0
                        continue
                    # Completion leg of zero length: exact landing, or the
                    # injected perturbation was clamped to the step end.
                    ev.stats_complete = _EXPLICIT
                    x_new, g_new = ev.x_hat.copy(), ev.residual_g
            except NumericalError as exc:
                raise _at_step(exc, k, times.item(k), segments[-1 - crossings].side) from exc
            states[k + 1] = x = x_new
            g_x = g_new
            crossings = 0
            k += 1
    return Trajectory(times=times, states=states, tau=tau,
                      events=events, region_segments=segments)
