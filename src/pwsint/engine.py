"""Event-driven transition stepping for piecewise-smooth systems.

The driver takes uniform steps with the discrete vector field of the
current region, in one loop over the grid whose every pass solves one
leg: a step's grid leg, or, after the step has crossed, its completion
leg from the crossing point to the step end with the other region's
field.  Grid legs of implicit fields step by exactly ``tau``; every
other leg (explicit, in-step, completion) steps by the difference of
its end times.  A field with a direct ``march`` (``dmm-elliptic``)
marches a block of grid steps in one call, evaluates ``g`` once on the
stacked rows (``SwitchingSurface`` states what ``g`` must do on a
stack) and commits in bulk the leading rows that lie strictly on its
side.  A segment whose crossing step the last segment on the same side
predicts is marched in one call to two rows past it, up to
``MARCH_ROWS_MAX`` rows, which keeps both the marches and the rows
marched past a crossing and dropped few; every other block takes
``MARCH_BLOCK`` rows.  A block's crossing or landing step takes the
block's next row and ``g`` as its grid leg; other legs are solved, by
a one-step march (a step the march could not take, or a row whose
``g`` is not finite, is solved again so that it raises), by explicit
evaluation, or by Anderson-accelerated fixed-point iteration
(``solvers.fixed_point``) with a Newton fallback, on the step map of
the field's float ``leg_map`` when its ``evaluate`` carries one (the
catalog ``dmm-midpoint`` fields; see ``schemes``), an iterated grid leg
starting from the quintic extrapolation of the last six samples when
they lie in the current region segment, and with the difference pairs
the segment's last grid-leg solve handed on, which hold the slope of
its step map.  ``g`` is evaluated once per leg end and handed on.  A
leg that ends off its side crosses: the sign change of ``g`` is
localized by an outer bracketed root solve in time around the inner
step solve, which evaluates ``g`` once per in-step leg it solves, and
the crossing is classified as a point on the surface (``gv=0.0``,
since the crossing point is a root of ``g`` along its leg) and
recorded.  The completion leg starts on the surface, whatever the
event's ``g`` residual, and may cross again, up to a small cap per
step.  Each step ends in one commit; a numerical failure inside it is
re-raised with the step's index, start time and starting side.  Each
region segment keeps psi at its start, x0 or a crossing point, as the
level its samples are measured against; a psi that overflows there is
such a failure (step 0 for x0), not an inf level.

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
    ConservedSet,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    classify_interface_point,
    side_of,
)
from .schemes import DiscreteVectorField
from .solvers import SolveStats, bracketed_root, fixed_point, newton

Array = np.ndarray

# Fixed caps of ``integrate``: crossings inside one step, events and
# grid steps per run.
MAX_CROSSINGS_PER_STEP = 4
MAX_EVENTS = 100_000
MAX_STEPS = 10_000_000

# Grid steps per march of a field that has one, when no crossing is
# predicted: in the first three segments, and after a segment's first
# march (see _first_block).  Crossings on the elliptic sweep are 25 to
# 400 steps apart at tau 0.04 to 0.0025.
MARCH_BLOCK = 64

# Most grid steps in one march: its temporary list of 2 * 4096 floats
# stays under 0.3 MB, however long the segment.
MARCH_ROWS_MAX = 4096

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
    localization: its iterations count the evaluations of g along the
    leg, the step end's included.  ``stats_complete`` describes the
    completion leg: its solver iterations, or the next localization's
    count when that leg crosses again, and 0 for a zero-length leg.
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
               h: float | None = None, guess: Array | None = None, *,
               memory: list | None = None) -> tuple[Array, SolveStats]:
    """Solve x = x_a + h * dvf(t_a, x_a, t_b, x) for x, h = t_b - t_a by default.

    Explicit fields evaluate directly over t_b - t_a.  Implicit ones
    with a direct ``march`` take one march step of h.  The others solve
    the step map, built by the ``leg_map`` that ``evaluate`` carries
    (Python floats, the same bits) or else as
    ``x_a + h * evaluate(t_a, x_a, t_b, x)`` on arrays, by
    ``fixed_point`` from ``guess``, else from the Euler
    predictor (O(h^2) off), and fall back to Newton from the same start
    when the map diverges, overflows or has not converged after
    ``solvers.FP_MAX_ITER`` updates.  A grid leg passes ``h=tau``, which
    its rounded end times miss by up to ulp(t).  An iterated one also
    passes ``memory``, its segment's list of the difference pairs
    ``fixed_point`` hands from one solve to the next, and, once the six
    samples up to x_a lie in its segment, their quintic extrapolation,
    O(h^6) off.  Every grid leg of a segment steps by tau with one
    field, so its step map has the slope of the last one's, exactly for
    a linear field (Hairer & Wanner, Solving ODEs II, section IV.8,
    reuse a Jacobian so).  On a coarse step (tau 0.05 to 0.1), where
    plain updates take eight, the Anderson mixing takes about four
    updates from no pairs, and a grid leg with its segment's pairs about
    two.  A zero-length leg takes its field's path too, which returns
    x_a where the field is finite.
    """
    if not dvf.is_implicit:
        return x_a + np.array(t_b - t_a) * dvf.evaluate(t_a, x_a, t_b, x_a), _EXPLICIT
    if h is None:
        h = t_b - t_a
    if dvf.march is not None:
        return dvf.march(t_a, x_a, h, 1)[0], _DIRECT

    evaluate = dvf.evaluate
    leg_map = getattr(evaluate, "leg_map", None)
    if leg_map is not None:
        step_map = leg_map(t_a, x_a, t_b, h)
    else:
        h = np.array(h)  # 0-d, as schemes._HALF: half the cost of a product, same bits

        def step_map(x):
            return x_a + h * evaluate(t_a, x_a, t_b, x)

    if guess is None:
        guess = step_map(x_a)
    try:
        return fixed_point(step_map, guess, memory=memory)
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
    landing: the event sits at t_b with the end leg's state and g, and
    its statistics count one evaluation of g, the step end's.
    """
    x_k = np.asarray(x_k, dtype=float)
    n_evals = 1  # phi(t_b), known on entry
    t_b, x_b, stats_b = end_leg
    # t -> (state, solve stats, g) of the leg from t_k.  Brent evaluates
    # both bracket ends again; it and the walk-in return a time phi saw.
    legs: dict[float, tuple[Array, SolveStats, float]] = {
        t_k: (x_k, _EXPLICIT, g_a), t_b: (x_b, stats_b, g_b)}

    def phi(t: float) -> float:
        nonlocal n_evals
        n_evals += 1
        if t not in legs:
            x, stats = _solve_leg(dvf_from, t_k, x_k, t)
            legs[t] = (x, stats, surface.value(x))
        return legs[t][2]

    band = surface.on_surface_tol
    if abs(g_b) <= band:
        t_hat = t_b
    else:
        a_eff = t_k
        if abs(g_a) <= band:
            # Start sits on the surface (completion leg of a previous
            # event, or an exact landing).  Walk into the step until phi
            # picks up the sign opposite the far end; transversal exit
            # guarantees one exists arbitrarily close to the start.
            hi = t_b
            for _ in range(60):
                mid = 0.5 * (a_eff + hi)
                if mid == a_eff or mid == hi:
                    break
                fm = phi(mid)
                if abs(fm) > band and (fm > 0.0) == (g_b < 0.0):
                    a_eff = mid
                    break
                hi = mid
            if a_eff == t_k:
                raise CrossingLocalizationFailed(
                    "no strictly signed point found between the surface start and the step end")
        elif g_a * g_b > 0.0:
            raise ValueError("no sign change across the step: locate_crossing needs "
                             "strictly opposite signs at the endpoints")
        t_hat = bracketed_root(phi, a_eff, t_b)
    x_hat, inner, g_hat = legs[t_hat]
    return CrossingEvent(t_hat=float(t_hat), x_hat=x_hat, residual_g=g_hat,
                         stats_locate=inner._replace(iterations=n_evals, residual=abs(g_hat)))


def _at_step(exc: NumericalError, k: int, t: float, side: RegionSide) -> NumericalError:
    """``exc`` again, with the index, start time and starting side of its step."""
    return type(exc)(f"step {k} at t={t!r}: {exc} (on the {side.value} side)",
                     k=k, t=t, side=side)


def _level(conserved: ConservedSet, x: Array) -> Array:
    """psi at x, the level a region segment keeps, after raising
    ``EvaluationError`` unless it is finite.  Called under
    ``np.errstate(over="ignore")``: psi of a state near 1e155 overflows,
    and the error says so where numpy would only warn."""
    psi = conserved.values(x)
    if not all(map(math.isfinite, psi.tolist())):
        raise EvaluationError(f"psi is not finite at x={x!r}")
    return psi


def _first_block(segments: list[RegionSegment]) -> int:
    """Rows of the first march of the segment just entered.

    The last segment on the same side (sides alternate, so that is
    ``segments[-3]``) took L grid steps, the last of them its crossing
    step; the first march takes L + 2 rows, ending two rows past the
    same step here, row L - 1, and at most ``MARCH_ROWS_MAX``.  The
    first segment starts at x0, part way along, and predicts nothing,
    so the first three segments take ``MARCH_BLOCK``.
    """
    if len(segments) < 4:
        return MARCH_BLOCK
    return min(segments[-2].start_index - segments[-3].start_index + 2, MARCH_ROWS_MAX)


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
    if scheme_minus.march is not None or scheme_plus.march is not None:
        # The block test below checks only the shape of g on a stack:
        # probe the rest of the SwitchingSurface contract once, on
        # dim + 1 copies of x0, against g(x0).
        n_probe = sys.dim + 1
        try:
            probe = np.asarray(surface.g(np.tile(x0, (n_probe, 1))), dtype=float)
            broadcasts = probe.shape == (n_probe,) and (probe == g_x).all()
        except (IndexError, TypeError, ValueError):
            broadcasts = False
        if not broadcasts:
            raise _at_step(EvaluationError(
                f"g does not broadcast: on a stack of {n_probe} copies of x0 it must "
                "return g(x0) for each"), 0, t0, side)

    events: list[CrossingEvent] = []
    times = t0 + tau * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, sys.dim))
    states[0] = x = x0
    band = surface.on_surface_tol
    # Each pass solves one leg of step k: its grid leg while the step has
    # not crossed, else the completion leg from the last crossing to the
    # step end.  After a crossing, t_a, x and g_x are that leg's start.
    k = crossings = 0
    entered = True  # the side changed: take its field
    # An escaping orbit, or psi at a far-out x0, overflows to inf, which
    # the finiteness checks turn into a typed error; numpy need not warn
    # about it first.
    with np.errstate(over="ignore"):
        try:
            segments = [RegionSegment(0, side, _level(sys.conserved(side), x0))]
        except EvaluationError as exc:
            raise _at_step(exc, 0, t0, side) from exc
        while k < n_steps:
            if entered:
                # Grid legs from step warm_from on start from the quintic:
                # their field iterates (explicit and marched legs never pay
                # for the start), and x_{k-5}..x_k lie in its segment.
                dvf = scheme_plus if side is _PLUS else scheme_minus
                marching = dvf.march is not None
                warm_from = (segments[-1].start_index + 5 if dvf.is_implicit and not marching
                             else n_steps)
                memory = []  # the difference pairs its grid legs hand on
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
                            _QUINTIC.dot(states[k - 5:k + 1]) if k >= warm_from else None,
                            memory=memory)
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

                    # ev.x_hat is a root of g, whatever its residual.
                    info = classify_interface_point(sys, ev.x_hat, ev.t_hat, gv=0.0)
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
                        k + 1, side_to, _level(sys.conserved(side_to), ev.x_hat)))
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
