"""Built-in example systems, addressable by name.

Everything the package knows about a catalog system lives in its
``SystemSpec`` record: how to build it, its default initial state,
which conservative scheme belongs to it and how that scheme is built
for each region, and its exact solution.  ``resolve_scheme`` lives here
because it reads them.

``harmonic``: oscillator with a different spring stiffness in each half
plane, switching on the line y = 0.  Each side conserves its own energy
(omega^2 x^2 + y^2) / 2.

``elliptic``: cubic system xdot = 2y, ydot = 3x^2 + a with a different
parameter inside and outside a circle centered at the origin.  Each side
conserves y^2 - x^3 - a x, whose level sets are elliptic curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .model import ConservedSet, PwsSystem, RegionSide, SwitchingSurface
from .oracles import elliptic_oracle, harmonic_oracle
from .schemes import (
    DiscreteVectorField,
    elliptic_dmm_dvf,
    implicit_midpoint_dvf,
    rk2_dvf,
    rk4_dvf,
)


def _check_finite(params: dict[str, float]) -> dict[str, float]:
    """``params``, after raising ``ConfigError`` on the first non-finite value."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ConfigError(f"system parameter {name} must be finite, got {value!r}")
    return params


def harmonic_system(omega2_minus: float = 3.0, omega2_plus: float = 1.0) -> PwsSystem:
    """Piecewise harmonic oscillator split by the line y = 0."""
    params = _check_finite({"omega2_minus": omega2_minus, "omega2_plus": omega2_plus})

    def make_field(w2):
        # (y, -w2 x) as one product: 1.0 * y is y, and (-w2) * x is
        # -(w2 * x), signed zeros, infinities and nan included.
        c = np.array([1.0, -w2])

        def f(t, x):
            return x[::-1] * c
        return f

    def make_conserved(w2):
        def psi(x):
            return np.array([0.5 * (w2 * x[..., 0] ** 2 + x[..., 1] ** 2)])

        def grad_psi(x):
            return np.array([[w2 * x[0], x[1]]])

        return ConservedSet(psi=psi, grad_psi=grad_psi, d_psi=1)

    surface = SwitchingSurface(
        g=lambda x: x[..., 1],
        grad_g=lambda x: np.array([0.0, 1.0]),
    )
    return PwsSystem(
        dim=2,
        f_minus=make_field(omega2_minus),
        f_plus=make_field(omega2_plus),
        surface=surface,
        conserved_minus=make_conserved(omega2_minus),
        conserved_plus=make_conserved(omega2_plus),
        name="harmonic",
        params=params,
    )


def elliptic_system(a_minus: float = -3.0, a_plus: float = -2.0,
                    radius: float = 1.0) -> PwsSystem:
    """Cubic system switching on a circle of the given radius."""
    params = _check_finite({"a_minus": a_minus, "a_plus": a_plus, "radius": radius})
    # g below reads only radius**2: a radius of 0 would give a point no
    # orbit crosses, and -r the circle of radius r.
    if not radius > 0.0:
        raise ConfigError(f"system parameter radius must be positive, got {radius!r}")

    def make_field(a):
        def f(t, x):
            return np.array([2.0 * x[1], 3.0 * x[0] ** 2 + a])
        return f

    def make_conserved(a):
        def psi(x):
            # As in g: scalars for one state, columns for a stack, and
            # products that round the same on both.
            xt = x.T
            return np.array([xt[1] * xt[1] - xt[0] * xt[0] * xt[0] - a * xt[0]])

        def grad_psi(x):
            return np.array([[-3.0 * x[0] ** 2 - a, 2.0 * x[1]]])

        return ConservedSet(psi=psi, grad_psi=grad_psi, d_psi=1)

    r2 = radius * radius

    def g(x):
        # x.T[i] is a scalar for one state and a column for a stack;
        # x * x rounds exactly as x ** 2.
        xt = x.T
        return xt[0] * xt[0] + xt[1] * xt[1] - r2

    surface = SwitchingSurface(
        g=g,
        grad_g=lambda x: np.array([2.0 * x[0], 2.0 * x[1]]),
    )
    return PwsSystem(
        dim=2,
        f_minus=make_field(a_minus),
        f_plus=make_field(a_plus),
        surface=surface,
        conserved_minus=make_conserved(a_minus),
        conserved_plus=make_conserved(a_plus),
        name="elliptic",
        params=params,
    )


def _harmonic_dmm(sys: PwsSystem, side: RegionSide) -> DiscreteVectorField:
    # Midpoint is exactly conservative for the quadratic energy of a
    # linear field.
    return implicit_midpoint_dvf(sys.field(side), conserves=sys.conserved(side))


def _elliptic_dmm(sys: PwsSystem, side: RegionSide) -> DiscreteVectorField:
    a = sys.param("a_minus" if side is RegionSide.MINUS else "a_plus", "scheme 'dmm-elliptic'")
    return elliptic_dmm_dvf(a, conserves=sys.conserved(side))


def _harmonic_oracle(sys: PwsSystem, x0, t0: float, T: float):
    user = "the harmonic oracle"
    return harmonic_oracle(sys.param("omega2_minus", user), sys.param("omega2_plus", user),
                           x0, t0, T)


@dataclass(frozen=True)
class SystemSpec:
    """Catalog record of one built-in system.

    ``factory`` builds the system from keyword parameters, ``x0`` is the
    default initial state and ``scheme`` names the exactly conservative
    scheme, which ``dmm(sys, side)`` builds for one region.  ``dmm``
    reads only ``sys`` (its fields, conserved sets and ``params``), so
    it also serves a copy of the system with replaced callables.  It
    may build a direct step solve from ``sys.params`` (the field's
    ``march``); ``dmm-elliptic`` has one, built from the region's ``a``.
    ``oracle(sys, x0, t0, T)`` returns the exact solution as a state
    function of t and its crossings up to T; it reads only ``sys.params``.
    Both read the parameters through ``PwsSystem.param``, so a missing
    one is a ``ConfigError`` that names it.
    """

    factory: Callable[..., PwsSystem]
    x0: tuple[float, ...]
    scheme: str
    dmm: Callable[[PwsSystem, RegionSide], DiscreteVectorField]
    oracle: Callable[[PwsSystem, tuple, float, float], tuple]


SYSTEMS: dict[str, SystemSpec] = {
    "harmonic": SystemSpec(harmonic_system, (1.0, 1.0), "dmm-midpoint", _harmonic_dmm,
                           _harmonic_oracle),
    "elliptic": SystemSpec(elliptic_system, (-1.0, -1.0), "dmm-elliptic", _elliptic_dmm,
                           elliptic_oracle),
}

# Schemes that apply to any system; built from the region's field alone,
# they carry no conserved set.
_GENERIC_SCHEMES = {
    "dmm-midpoint": implicit_midpoint_dvf,
    "rk2": rk2_dvf,
    "rk4": rk4_dvf,
}


def make_system(name: str, **params) -> PwsSystem:
    """Instantiate a catalog system, overriding any of its parameters."""
    try:
        spec = SYSTEMS[name]
    except KeyError:
        raise ConfigError(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}") from None
    try:
        return spec.factory(**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for system {name!r}: {exc}") from None


def resolve_scheme(name: str, sys: PwsSystem, side: RegionSide) -> DiscreteVectorField:
    """Build the named scheme for one region of a system.

    The catalog system's own conservative scheme carries the region's
    conserved set; the generic schemes carry none.
    """
    spec = SYSTEMS.get(sys.name)
    if spec is not None and name == spec.scheme:
        return spec.dmm(sys, side)
    if name not in _GENERIC_SCHEMES:
        available = set(_GENERIC_SCHEMES) | ({spec.scheme} if spec else set())
        raise ConfigError(f"unknown scheme {name!r} for system {sys.name!r}; "
                          f"available: {sorted(available)}")
    return _GENERIC_SCHEMES[name](sys.field(side))
