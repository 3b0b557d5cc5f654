"""Two-point discrete vector fields.

Every single-step scheme is presented as a function
f_tau(t_a, x_a, t_b, x_b) so that a step reads
x_b = x_a + (t_b - t_a) * f_tau(t_a, x_a, t_b, x_b).  Implicit schemes
use x_b; explicit ones ignore it.  Keeping one call shape for both lets
the transition engine stay scheme-agnostic.

An implicit field may also carry ``march(t_a, x_a, h, n) -> states``, a
direct solution of its own step equation: it takes ``n`` steps of
exactly ``h`` from ``x_a`` at ``t_a`` (backward for a negative ``h``)
and returns the states after each, shape (m, dim).  It stops before the
first step it cannot take, so m may be short of ``n``; only when that
is its first step does it raise ``StepTooLarge``.  The engine marches
whole blocks of grid steps of ``tau`` at once, and solves every other
leg of such a field as a one-step march over the difference of its end
times.  ``dmm-elliptic`` has one: its step equation reduces to one
scalar quadratic, solved in a loop over Python floats.  Fields without
it (the midpoint rule, user fields) are solved by fixed-point iteration
with a Newton fallback.

The ``evaluate`` of such a field may carry, as its attribute
``leg_map``, a map ``(t_a, x_a, t_b, h) -> step_map`` on Python floats:
``x_a`` and the iterate ``x`` are lists of two floats, and
``step_map(x)`` returns the list of two floats that has the bits of
``x_a + h * evaluate(t_a, x_a, t_b, x)``; the engine iterates it in
place of that expression on arrays, and ``solvers.fixed_point`` takes
its lists as they are.  It travels
with that function, so a copy of the field made with
``dataclasses.replace(dvf, evaluate=...)`` solves through the new
``evaluate``.  ``implicit_midpoint_dvf`` attaches one when its vector
field carries a ``kernel(t, x, y) -> (xdot, ydot)`` on Python floats,
as the catalog fields do (see ``systems``).  A kernel repeats the
operations of its field in their order.  On Python floats ``**``
raises ``OverflowError`` and ``/`` raises ``ZeroDivisionError`` where
numpy returns inf or nan, so a kernel squares by ``x * x``, never
``x ** 2``, and does not divide; the elliptic field squares by numpy's
scalar power, so its kernel calls ``math.pow`` for those bits and
catches the overflow.
User fields carry no kernel and keep the array path.

A field holds no conserved quantity: that belongs to the system, and
the engine reads it from ``sys.conserved(side)`` whatever the scheme.
The implicit midpoint field preserves quadratic invariants of linear
fields, and the divided-difference cubic field preserves
y^2 - x^3 - a x identically whenever its step equation holds.  Which
schemes belong to which catalog system is recorded in ``systems``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import StepTooLarge
from .model import VectorField

Array = np.ndarray
DvfFunc = Callable[[float, Array, float, Array], Array]
MarchFunc = Callable[[float, Array, float, int], Array]
KernelFunc = Callable[[float, float, float], tuple[float, float]]
LegMapFunc = Callable[[float, list[float], float, float],
                      Callable[[list[float]], list[float]]]

# An array times a 0-d array costs about half what it costs times a
# Python float, and rounds the same.
_HALF = np.array(0.5)
_TWO = np.array(2.0)
_SIX = np.array(6.0)


@dataclass(frozen=True)
class DiscreteVectorField:
    evaluate: DvfFunc
    order: int
    is_implicit: bool
    is_symmetric: bool = False
    name: str = ""
    march: MarchFunc | None = None


def implicit_midpoint_dvf(f: VectorField) -> DiscreteVectorField:
    """Implicit midpoint rule: evaluate f at the averaged endpoint.

    Second order and symmetric; exactly conservative for a quadratic
    invariant of a linear field.  When ``f`` carries a float ``kernel``,
    as the catalog fields do, ``evaluate`` carries the leg map built
    from it (see the module docstring).
    """

    def evaluate(t_a, x_a, t_b, x_b):
        return f(0.5 * (t_a + t_b), (x_a + x_b) * _HALF)

    kernel = getattr(f, "kernel", None)
    if kernel is not None:
        evaluate.leg_map = _midpoint_leg_map(kernel)
    return DiscreteVectorField(evaluate, order=2, is_implicit=True, is_symmetric=True,
                               name="dmm-midpoint")


def _midpoint_leg_map(kernel: KernelFunc) -> LegMapFunc:
    """The leg map of the midpoint rule on a field with this kernel.

    Its step maps take the operations of ``x_a + h * evaluate(t_a, x_a,
    t_b, x)`` in their order, on Python floats: the same bits, at about
    a ninth of the cost of five numpy calls on 2-vectors.  ``x_a``
    and each iterate are lists of two floats, and so is each image.
    """

    def leg_map(t_a, x_a, t_b, h):
        t = 0.5 * (t_a + t_b)
        a1, a2 = x_a

        def step_map(x):
            x1, x2 = x
            f1, f2 = kernel(t, (a1 + x1) * 0.5, (a2 + x2) * 0.5)
            return [a1 + h * f1, a2 + h * f2]

        return step_map

    return leg_map


def elliptic_dmm_dvf(a: float) -> DiscreteVectorField:
    """Divided-difference field for xdot = 2y, ydot = 3x^2 + a.

    With endpoints (x, y) and (x', y') the field is
    (y + y', x^2 + x x' + x'^2 + a).  Along any solution of the step
    equation the change of psi = y^2 - x^3 - a x telescopes to zero:
    (y + y') dy - (x^2 + x x' + x'^2) dx - a dx = 0 identically.
    Symmetric in its endpoints, hence second order.

    The step equation is solved directly.  With h = t_b - t_a, X = x'
    solves h^2 X^2 + (h^2 x - 1) X + (x + 2 h y + h^2 (x^2 + a)) = 0;
    the root that tends to x as h -> 0 is taken in cancellation-free
    form, and one application of the step map at (X, Y) gives x_b, as
    the last iterate of a fixed-point solve would.  ``march`` takes n
    such steps of one h, forward or backward, in one loop over Python
    floats, with h^2, 2h, 4h^2 and x^2 each computed once, and
    ``math.sqrt`` and the row list's ``append`` bound as locals.  A step
    with no such root (h^2 x >= 1, or a negative discriminant) ends the
    march, and raises StepTooLarge when it is the first.
    """

    def evaluate(t_a, x_a, t_b, x_b):
        x, y = x_a[0], x_a[1]
        xp, yp = x_b[0], x_b[1]
        return np.array([y + yp, x * x + x * xp + xp * xp + a])

    def march(t_a, x_a, h, n):
        x, y = x_a.tolist()
        hh, h2 = h * h, 2.0 * h
        hh4 = 4.0 * hh
        sqrt = math.sqrt
        flat = []
        append = flat.append
        for _ in range(n):
            xx = x * x
            b = hh * x - 1.0
            c = x + h2 * y + hh * (xx + a)
            disc = b * b - hh4 * c
            if not (b < 0.0 and disc >= 0.0):
                if flat:
                    break
                raise StepTooLarge(f"the step equation over h={h!r} has no root near "
                                   f"the state, |x|={math.hypot(x, y):.6g}")
            xp = 2.0 * c / (-b + sqrt(disc))
            yp = y + h * (xx + x * xp + xp * xp + a)
            # The step map at (xp, yp) returns yp itself as its second entry.
            x = x + h * (y + yp)
            y = yp
            append(x)
            append(y)
        return np.array(flat).reshape(-1, 2)

    return DiscreteVectorField(evaluate, order=2, is_implicit=True, is_symmetric=True,
                               name="dmm-elliptic", march=march)


def rk2_dvf(f: VectorField) -> DiscreteVectorField:
    """Explicit midpoint rule as a discrete field; ignores x_b."""

    def evaluate(t_a, x_a, t_b, x_b):
        h = t_b - t_a
        return f(t_a + 0.5 * h, x_a + np.array(0.5 * h) * f(t_a, x_a))

    return DiscreteVectorField(evaluate, order=2, is_implicit=False, name="rk2")


def rk4_dvf(f: VectorField) -> DiscreteVectorField:
    """Classical four-stage Runge-Kutta increment as a discrete field."""

    def evaluate(t_a, x_a, t_b, x_b):
        h = t_b - t_a
        t_mid = t_a + 0.5 * h
        half_h = np.array(0.5 * h)
        k1 = f(t_a, x_a)
        k2 = f(t_mid, x_a + half_h * k1)
        k3 = f(t_mid, x_a + half_h * k2)
        k4 = f(t_b, x_a + np.array(h) * k3)
        return (k1 + _TWO * k2 + _TWO * k3 + k4) / _SIX

    return DiscreteVectorField(evaluate, order=4, is_implicit=False, name="rk4")
