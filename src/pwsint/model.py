"""Piecewise-smooth system model: switching surface, regions, conserved sets.

The phase space is split by the zero level set of a scalar function g
into a minus region (g < 0) and a plus region (g > 0), each carrying its
own smooth vector field and its own conserved quantities.  All values
here are immutable after construction and the callables they hold are
expected to be pure, so instances can be shared freely across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, ClassVar, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateTangency, EvaluationError

Array = np.ndarray
StateFunc = Callable[[Array], float]
VectorField = Callable[[float, Array], Array]


class RegionSide(enum.Enum):
    MINUS = "minus"
    PLUS = "plus"
    ON_SURFACE = "on_surface"


# Module-level aliases for the per-step path: looking a member up through
# its enum class costs about ten times as much as a global name.
_MINUS = RegionSide.MINUS
_PLUS = RegionSide.PLUS
_ON_SURFACE = RegionSide.ON_SURFACE


class Classification(enum.Enum):
    TRANSVERSAL_UP = "transversal_up"       # both fields increase g: minus -> plus
    TRANSVERSAL_DOWN = "transversal_down"   # both fields decrease g: plus -> minus
    REPELLING = "repelling"                 # fields point away from the surface
    SLIDING = "sliding"                     # fields point into the surface


@dataclass(frozen=True)
class SwitchingSurface:
    """Scalar switching function g with its gradient.

    ``on_surface_tol`` (fixed) is the absolute half-width of the band
    |g| <= tol inside which a point counts as numerically on the surface.
    The gradient must be finite and must not vanish on that band:
    ``gradient`` checks both, ``side_of`` calls it for a point in the
    band, and ``classify_interface_point`` when its scalar checks fail.

    ``g`` takes one state, shape (dim,), and returns a float; ``integrate``
    calls it once per step on a single 1-D state, so it should be cheap
    there: arithmetic on the 0-d arrays that ``x[..., i]`` returns costs
    about twice as much as on the scalars that ``x.T[i]`` returns.  A
    ``g`` must also accept a stack of states only when one of the run's
    fields has a ``march``: ``integrate`` then evaluates it on each block
    of states the march returns, shape (n, dim), and needs shape (n,)
    back, row i with the bits of ``g`` on row i alone (true of
    elementwise arithmetic), since it uses the block's values in place of
    single-state ones.  Such a run checks this once, on ``dim + 1``
    copies of its initial state, and raises ``EvaluationError`` at step 0
    unless each gets ``g`` of that state; it checks the shape on every
    block.  A ``g`` such as ``x[0] * x[0] + x[1] * x[1] - 1`` indexes
    rows instead: it fits a stack of exactly ``dim`` rows, with the wrong
    values, hence the ``dim + 1`` copies.  Every catalog ``g`` meets the
    stack contract, and the CLI trajectory writer relies on it.
    ``integrate`` evaluates ``g`` once per state it computes and reuses
    the value: at a step end (from the block, or from the single-state
    call) it decides the side and brackets a crossing, and at a crossing
    point it classifies the crossing.  A crossing adds one call per
    in-step leg it solves.
    """

    g: StateFunc
    grad_g: Callable[[Array], Array]
    on_surface_tol: ClassVar[float] = 1e-12

    def value(self, x: Array) -> float:
        gv = float(self.g(x))
        if not math.isfinite(gv):
            raise EvaluationError(f"g(x) is not finite at x={x!r}")
        return gv

    def gradient(self, x: Array) -> Array:
        """grad g at x, a point near the surface, after raising
        ``EvaluationError`` unless it is finite and does not vanish."""
        gr = np.asarray(self.grad_g(x), dtype=float)
        if not np.all(np.isfinite(gr)):
            raise EvaluationError(f"grad g is not finite at x={x!r}")
        if np.linalg.norm(gr) == 0.0:
            raise EvaluationError(f"grad g vanishes on the surface at x={x!r}")
        return gr


@dataclass(frozen=True)
class ConservedSet:
    """Conserved quantities of one region: psi maps a state to d_psi values.

    ``rank_tol`` (fixed) is the bound on the smallest singular value of
    grad psi at or below which ``check_rank`` reports a loss of rank.

    ``psi`` must also accept a stack of states along a leading axis,
    shape (n, dim), and then return shape (d_psi, n); the per-sample
    error series and the CLI trajectory writer evaluate it on whole
    blocks of samples at once.
    """

    psi: Callable[[Array], Array]
    grad_psi: Callable[[Array], Array]
    d_psi: int
    rank_tol: ClassVar[float] = 1e-8

    def values(self, x: Array) -> Array:
        v = np.atleast_1d(np.asarray(self.psi(x), dtype=float))
        if v.shape != (self.d_psi,):
            raise EvaluationError(
                f"psi returned shape {v.shape}, expected ({self.d_psi},)")
        return v

    def stack_values(self, states: Array) -> Array:
        """psi on a stack of states, shape (n, dim) -> (d_psi, n)."""
        psi = np.asarray(self.psi(states), dtype=float)
        # A spot check against the scalar evaluation catches functions
        # that return the right shape without actually broadcasting.
        if (psi.shape != (self.d_psi, len(states))
                or not np.array_equal(psi[:, 0], self.values(states[0]))):
            raise EvaluationError(
                f"psi does not broadcast over a stack of {len(states)} states "
                f"(returned shape {psi.shape})")
        return psi

    def check_rank(self, x: Array) -> None:
        """Full row rank of grad psi, via the smallest singular value.

        A single row's one singular value is its norm; more rows, or a
        row whose norm overflows, take the SVD.  A grad psi with an entry
        that is not finite raises ``EvaluationError``.
        """
        G = np.atleast_2d(np.asarray(self.grad_psi(x), dtype=float))
        smin = math.hypot(*G[0].tolist()) if len(G) == 1 else math.nan
        if not math.isfinite(smin):
            if not np.all(np.isfinite(G)):
                raise EvaluationError(f"grad psi is not finite at x={x!r}")
            smin = np.linalg.svd(G, compute_uv=False)[-1]
        if smin <= self.rank_tol:
            raise EvaluationError(
                f"grad psi loses rank at x={x!r} (smallest singular value {smin:.3e})")

    def __post_init__(self) -> None:
        if self.d_psi < 1:
            raise ValueError("d_psi must be at least 1")


def check_params(params: Mapping[str, float], positive: tuple = ()) -> dict[str, float]:
    """A copy of ``params``, after raising ``ConfigError`` on the first value
    that is not finite, or not above zero when ``positive`` names it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"system parameter {name} must be finite, got {value!r}")
        if name in positive and not value > 0.0:
            raise ConfigError(f"system parameter {name} must be positive, got {value!r}")
    return dict(params)


@dataclass(frozen=True)
class PwsSystem:
    """Two smooth vector fields separated by a switching surface.

    ``f_minus``/``f_plus`` must be evaluable on the closure of their
    regions; evaluating them on the wrong side is mathematically fine
    and occasionally done by the transition machinery, which always
    tracks the side explicitly.

    ``params`` is stored as a read-only view of a copy of the mapping
    given, so a copy made by ``dataclasses.replace`` has its own.
    """

    dim: int
    f_minus: VectorField
    f_plus: VectorField
    surface: SwitchingSurface
    conserved_minus: ConservedSet
    conserved_plus: ConservedSet
    name: str = ""
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    def param(self, name: str, user: str) -> float:
        """``params[name]``; a missing one raises ``ConfigError`` naming it,
        the system and ``user``, the part that needs it."""
        try:
            return self.params[name]
        except KeyError:
            raise ConfigError(f"{user} needs system parameter {name}, "
                              f"missing from the params of system {self.name!r}") from None

    def field(self, side: RegionSide) -> VectorField:
        if side is RegionSide.MINUS:
            return self.f_minus
        if side is RegionSide.PLUS:
            return self.f_plus
        raise ValueError("dynamics are undefined on the surface; pass an explicit side")

    def conserved(self, side: RegionSide) -> ConservedSet:
        if side is RegionSide.MINUS:
            return self.conserved_minus
        if side is RegionSide.PLUS:
            return self.conserved_plus
        raise ValueError("no conserved set on the surface itself")


def side_of(surface: SwitchingSurface, x: Array, gv: float | None = None) -> RegionSide:
    """Classify which side of the surface x lies on.

    Points with |g(x)| <= on_surface_tol count as on the surface, which
    keeps sign tests stable against round-off right at a crossing.
    ``gv`` is ``surface.value(x)`` when the caller has it already, as
    ``integrate`` does at every step end; the public two-argument form
    evaluates it.
    """
    if gv is None:
        gv = surface.value(x)
    if gv > surface.on_surface_tol:
        return _PLUS
    if gv < -surface.on_surface_tol:
        return _MINUS
    surface.gradient(x)
    return _ON_SURFACE


def field_for_side(sys: PwsSystem, side: RegionSide, t: float, x: Array) -> Array:
    """Evaluate the smooth field of the given region; never consults g."""
    fx = np.asarray(sys.field(side)(t, x), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise EvaluationError(f"field for side {side.value} not finite at x={x!r}")
    return fx


class InterfacePoint(NamedTuple):
    kind: Classification
    a_minus: float
    a_plus: float

    @property
    def alpha_sq_hat(self) -> float:
        """Pointwise proxy for the squared transversality constant."""
        return min(abs(self.a_minus), abs(self.a_plus))


def classify_interface_point(sys: PwsSystem, x: Array, t: float = 0.0,
                             gv: float | None = None) -> InterfacePoint:
    """Classify the local geometry at a surface point.

    Computes a_pm = grad g(x) . f_pm(t, x).  Both positive means the flow
    crosses with g increasing, both negative with g decreasing; opposite
    signs give repelling or sliding behavior.  Either product inside the
    on-surface band around zero means transversality fails.  x must lie
    within on_surface_tol of the surface; ``gv`` is ``surface.value(x)``
    when the caller has it already.  ``integrate`` passes ``gv=0.0``
    for a localized crossing, a root of g along its leg, whatever the
    g there; the band check guards the public callers, which pass none.

    grad g and both fields are evaluated once and checked on scalars: the
    sum of their entries is finite only if every entry is, and grad g
    vanishes only if its dot product with itself does.  A failed
    scalar check runs the array checks, which name the failing part.
    """
    surface = sys.surface
    if gv is None:
        gv = surface.value(x)
    if abs(gv) > surface.on_surface_tol:
        raise ValueError(f"point is not on the surface: |g|={abs(gv):.3e}")
    grad = np.asarray(surface.grad_g(x), dtype=float)
    f_minus = np.asarray(sys.f_minus(t, x), dtype=float)
    f_plus = np.asarray(sys.f_plus(t, x), dtype=float)
    flat = grad.ravel()
    if not (math.isfinite(sum(flat.tolist()) + sum(f_minus.tolist()) + sum(f_plus.tolist()))
            and flat.dot(flat)):
        surface.gradient(x)
        field_for_side(sys, RegionSide.MINUS, t, x)
        field_for_side(sys, RegionSide.PLUS, t, x)
    a_minus = float(grad.dot(f_minus))
    a_plus = float(grad.dot(f_plus))
    tol = surface.on_surface_tol
    if abs(a_minus) <= tol or abs(a_plus) <= tol:
        raise DegenerateTangency(
            f"transversality fails at x={x!r}: a_minus={a_minus:.3e}, a_plus={a_plus:.3e}")
    if a_minus > 0 and a_plus > 0:
        kind = Classification.TRANSVERSAL_UP
    elif a_minus < 0 and a_plus < 0:
        kind = Classification.TRANSVERSAL_DOWN
    elif a_minus < 0 < a_plus:
        kind = Classification.REPELLING
    else:
        kind = Classification.SLIDING
    return InterfacePoint(kind, a_minus, a_plus)
