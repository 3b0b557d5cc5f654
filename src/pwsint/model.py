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
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateTangency, EvaluationError

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
    """Scalar switching function g with its gradient and optional Hessian.

    ``on_surface_tol`` is the absolute half-width of the band |g| <= tol
    inside which a point counts as numerically on the surface.  The
    gradient must not vanish on that band; this is checked wherever the
    surface is queried near its zero set.

    ``g`` must also accept a stack of states along a leading axis, shape
    (n, dim), and then return shape (n,); the CLI trajectory writer
    evaluates it on whole blocks of samples at once.  ``integrate``
    calls it once per step on a single 1-D state, so it should be cheap
    there: arithmetic on the 0-d arrays that ``x[..., i]`` returns costs
    about twice as much as on the scalars that ``x.T[i]`` returns.
    """

    g: StateFunc
    grad_g: Callable[[Array], Array]
    hess_g: Callable[[Array], Array] | None = None
    on_surface_tol: float = 1e-12

    def value(self, x: Array) -> float:
        gv = float(self.g(x))
        if not math.isfinite(gv):
            raise EvaluationError(f"g(x) is not finite at x={x!r}")
        return gv

    def stack_values(self, states: Array) -> Array:
        """g on a stack of states, shape (n, dim) -> (n,)."""
        gv = np.asarray(self.g(states), dtype=float)
        # A spot check against the scalar evaluation catches functions
        # that return the right shape without actually broadcasting.
        if gv.shape != (len(states),) or gv[0] != self.value(states[0]):
            raise EvaluationError(
                f"g does not broadcast over a stack of {len(states)} states "
                f"(returned shape {gv.shape})")
        if not np.all(np.isfinite(gv)):
            raise EvaluationError("g(x) is not finite on a stack of states")
        return gv

    def gradient(self, x: Array) -> Array:
        gr = np.asarray(self.grad_g(x), dtype=float)
        if not np.all(np.isfinite(gr)):
            raise EvaluationError(f"grad g is not finite at x={x!r}")
        return gr

    def hessian(self, x: Array) -> Array:
        if self.hess_g is None:
            raise EvaluationError("surface has no Hessian")
        H = np.asarray(self.hess_g(x), dtype=float)
        if not np.allclose(H, H.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(H).max())):
            raise EvaluationError("Hessian of g is not symmetric")
        return H

    def check_gradient_nonzero(self, x: Array) -> None:
        """Runtime guard: grad g must not vanish near the surface."""
        if np.linalg.norm(self.gradient(x)) == 0.0:
            raise EvaluationError(f"grad g vanishes on the surface at x={x!r}")


@dataclass(frozen=True)
class ConservedSet:
    """Conserved quantities of one region: psi maps a state to d_psi values.

    ``psi`` must also accept a stack of states along a leading axis,
    shape (n, dim), and then return shape (d_psi, n); the per-sample
    error series and the CLI trajectory writer evaluate it on whole
    blocks of samples at once.
    """

    psi: Callable[[Array], Array]
    grad_psi: Callable[[Array], Array]
    d_psi: int
    rank_tol: float = 1e-8

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
        """Full row rank of grad psi, via the smallest singular value."""
        G = np.atleast_2d(np.asarray(self.grad_psi(x), dtype=float))
        smin = np.linalg.svd(G, compute_uv=False)[-1]
        if smin <= self.rank_tol:
            raise EvaluationError(
                f"grad psi loses rank at x={x!r} (smallest singular value {smin:.3e})")

    def __post_init__(self) -> None:
        if self.d_psi < 1:
            raise ValueError("d_psi must be at least 1")


@dataclass(frozen=True)
class PwsSystem:
    """Two smooth vector fields separated by a switching surface.

    ``f_minus``/``f_plus`` must be evaluable on the closure of their
    regions; evaluating them on the wrong side is mathematically fine
    and occasionally done by the transition machinery, which always
    tracks the side explicitly.
    """

    dim: int
    f_minus: VectorField
    f_plus: VectorField
    surface: SwitchingSurface
    conserved_minus: ConservedSet
    conserved_plus: ConservedSet
    name: str = ""
    params: dict = field(default_factory=dict)

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


def side_of(surface: SwitchingSurface, x: Array) -> RegionSide:
    """Classify which side of the surface x lies on.

    Points with |g(x)| <= on_surface_tol count as on the surface, which
    keeps sign tests stable against round-off right at a crossing.
    """
    gv = surface.value(x)
    if gv > surface.on_surface_tol:
        return _PLUS
    if gv < -surface.on_surface_tol:
        return _MINUS
    surface.check_gradient_nonzero(x)
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
                             tol: float | None = None) -> InterfacePoint:
    """Classify the local geometry at a surface point.

    Computes a_pm = grad g(x) . f_pm(t, x).  Both positive means the flow
    crosses with g increasing, both negative with g decreasing; opposite
    signs give repelling or sliding behavior.  Either product inside the
    on-surface band around zero means transversality fails.  ``tol``
    widens the on-surface acceptance band for callers that already hold
    a localized root with a known residual.
    """
    surface = sys.surface
    gv = surface.value(x)
    band = surface.on_surface_tol if tol is None else tol
    if abs(gv) > band:
        raise ValueError(f"point is not on the surface: |g|={abs(gv):.3e}")
    surface.check_gradient_nonzero(x)
    grad = surface.gradient(x)
    a_minus = float(grad @ field_for_side(sys, RegionSide.MINUS, t, x))
    a_plus = float(grad @ field_for_side(sys, RegionSide.PLUS, t, x))
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
