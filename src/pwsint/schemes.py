"""Two-point discrete vector fields.

Every single-step scheme is presented as a function
f_tau(t_a, x_a, t_b, x_b) so that a step reads
x_b = x_a + (t_b - t_a) * f_tau(t_a, x_a, t_b, x_b).  Implicit schemes
use x_b; explicit ones ignore it.  Keeping one call shape for both lets
the transition engine stay scheme-agnostic.

Conservative instances carry the conserved set they preserve exactly:
the implicit midpoint field preserves quadratic invariants of linear
fields, and the divided-difference cubic field preserves
y^2 - x^3 - a x identically whenever its step equation holds.  Which
scheme conserves which catalog system is recorded in ``systems``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ConservedSet, VectorField

Array = np.ndarray
DvfFunc = Callable[[float, Array, float, Array], Array]


@dataclass(frozen=True)
class DiscreteVectorField:
    evaluate: DvfFunc
    order: int
    is_implicit: bool
    conserves: ConservedSet | None = None
    is_symmetric: bool = False
    name: str = ""


def implicit_midpoint_dvf(f: VectorField,
                          conserves: ConservedSet | None = None) -> DiscreteVectorField:
    """Implicit midpoint rule: evaluate f at the averaged endpoint.

    Second order and symmetric.  Pass ``conserves`` only when the scheme
    is exactly conservative for the field at hand (quadratic invariant,
    linear field).
    """

    def evaluate(t_a, x_a, t_b, x_b):
        return f(0.5 * (t_a + t_b), 0.5 * (x_a + x_b))

    return DiscreteVectorField(evaluate, order=2, is_implicit=True,
                               conserves=conserves, is_symmetric=True,
                               name="dmm-midpoint")


def elliptic_dmm_dvf(a: float,
                     conserves: ConservedSet | None = None) -> DiscreteVectorField:
    """Divided-difference field for xdot = 2y, ydot = 3x^2 + a.

    With endpoints (x, y) and (x', y') the field is
    (y + y', x^2 + x x' + x'^2 + a).  Along any solution of the step
    equation the change of psi = y^2 - x^3 - a x telescopes to zero:
    (y + y') dy - (x^2 + x x' + x'^2) dx - a dx = 0 identically.
    Symmetric in its endpoints, hence second order.
    """

    def evaluate(t_a, x_a, t_b, x_b):
        x, y = x_a[0], x_a[1]
        xp, yp = x_b[0], x_b[1]
        return np.array([y + yp, x * x + x * xp + xp * xp + a])

    return DiscreteVectorField(evaluate, order=2, is_implicit=True,
                               conserves=conserves, is_symmetric=True,
                               name="dmm-elliptic")


def rk2_dvf(f: VectorField) -> DiscreteVectorField:
    """Explicit midpoint rule as a discrete field; ignores x_b."""

    def evaluate(t_a, x_a, t_b, x_b):
        h = t_b - t_a
        return f(t_a + 0.5 * h, x_a + 0.5 * h * f(t_a, x_a))

    return DiscreteVectorField(evaluate, order=2, is_implicit=False, name="rk2")


def rk4_dvf(f: VectorField) -> DiscreteVectorField:
    """Classical four-stage Runge-Kutta increment as a discrete field."""

    def evaluate(t_a, x_a, t_b, x_b):
        h = t_b - t_a
        k1 = f(t_a, x_a)
        k2 = f(t_a + 0.5 * h, x_a + 0.5 * h * k1)
        k3 = f(t_a + 0.5 * h, x_a + 0.5 * h * k2)
        k4 = f(t_b, x_a + h * k3)
        return (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0

    return DiscreteVectorField(evaluate, order=4, is_implicit=False, name="rk4")
