"""Built-in example systems, addressable by name.

Everything the package knows about a catalog system lives in its
``SystemSpec`` record: how to build it, its default initial state,
its exactly conservative scheme, the builders of the schemes that are
its alone, and its exact solution.  ``resolve_scheme`` lives here
because it reads them.

``harmonic``: oscillator with a different spring stiffness in each half
plane, switching on the line y = 0.  Each side conserves its own energy
(omega^2 x^2 + y^2) / 2.

``elliptic``: cubic system xdot = 2y, ydot = 3x^2 + a with a different
parameter inside and outside a circle centered at the origin.  Each side
conserves y^2 - x^3 - a x, whose level sets are elliptic curves.

Each factory gives each region's field callable a ``kernel(t, x, y)``
attribute: the same field on Python floats, with the same bits, from
which ``implicit_midpoint_dvf`` builds its float leg map (see
``schemes``).  It belongs to that callable, so a copy of the system
whose ``f_minus`` or ``f_plus`` is replaced has none on that side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .model import ConservedSet, PwsSystem, RegionSide, SwitchingSurface, check_params
from .oracles import elliptic_oracle, harmonic_oracle
from .schemes import (
    DiscreteVectorField,
    elliptic_dmm_dvf,
    implicit_midpoint_dvf,
    rk2_dvf,
    rk4_dvf,
)


def harmonic_system(omega2_minus: float = 3.0, omega2_plus: float = 1.0) -> PwsSystem:
    """Piecewise harmonic oscillator split by the line y = 0."""
    params = check_params({"omega2_minus": omega2_minus, "omega2_plus": omega2_plus})

    def make_field(w2):
        # (y, -w2 x) as one product: 1.0 * y is y, and (-w2) * x is
        # -(w2 * x), signed zeros, infinities and nan included.
        nw2 = -w2
        c = np.array([1.0, nw2])

        def f(t, x):
            return x[::-1] * c

        def kernel(t, x, y):
            return y, nw2 * x

        f.kernel = kernel
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
    # g below reads only radius**2: a radius of 0 would give a point no
    # orbit crosses, and -r the circle of radius r.
    params = check_params({"a_minus": a_minus, "a_plus": a_plus, "radius": radius},
                          positive=("radius",))

    def make_field(a):
        def f(t, x):
            return np.array([2.0 * x[1], 3.0 * x[0] ** 2 + a])

        def kernel(t, x, y):
            # x[0] ** 2 above is numpy's scalar power, the C library's
            # pow, which rounds differently from x * x about once in a
            # thousand squares; math.pow calls the same pow, and raises
            # only where numpy returns inf.
            try:
                xx = math.pow(x, 2.0)
            except OverflowError:
                xx = math.inf
            return 2.0 * y, 3.0 * xx + a

        f.kernel = kernel
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


def _elliptic_dmm(sys: PwsSystem, side: RegionSide) -> DiscreteVectorField:
    a = sys.param("a_minus" if side is RegionSide.MINUS else "a_plus", "scheme 'dmm-elliptic'")
    return elliptic_dmm_dvf(a)


def _harmonic_oracle(sys: PwsSystem, x0, t0: float, T: float):
    user = "the harmonic oracle"
    return harmonic_oracle(sys.param("omega2_minus", user), sys.param("omega2_plus", user),
                           x0, t0, T)


@dataclass(frozen=True)
class SystemSpec:
    """Catalog record of one built-in system.

    ``factory`` builds the system from keyword parameters, ``x0`` is the
    default initial state and ``scheme`` names the exactly conservative
    scheme.  ``schemes`` holds the builders ``(sys, side) -> field`` of
    the schemes that are this system's alone; ``harmonic`` has none, as
    the generic ``dmm-midpoint`` conserves its energy.  A builder reads
    only ``sys`` (its fields and ``params``), so it also serves a copy
    of the system with replaced callables; ``dmm-elliptic`` builds its
    field's direct step solve (``march``) from the region's ``a``.
    ``oracle(sys, x0, t0, T)`` returns the exact solution as a state
    function of t and its crossings up to T; it reads only ``sys.params``.
    Both read the parameters through ``PwsSystem.param``, so a missing
    one is a ``ConfigError`` that names it.
    """

    factory: Callable[..., PwsSystem]
    x0: tuple[float, ...]
    scheme: str
    schemes: dict[str, Callable[[PwsSystem, RegionSide], DiscreteVectorField]]
    oracle: Callable[[PwsSystem, tuple, float, float], tuple]


SYSTEMS: dict[str, SystemSpec] = {
    "harmonic": SystemSpec(harmonic_system, (1.0, 1.0), "dmm-midpoint", {},
                           _harmonic_oracle),
    "elliptic": SystemSpec(elliptic_system, (-1.0, -1.0), "dmm-elliptic",
                           {"dmm-elliptic": _elliptic_dmm}, elliptic_oracle),
}

# Schemes that apply to any system, built from the region's field alone.
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

    The name is looked up among the catalog system's own schemes, then
    among the generic ones.
    """
    spec = SYSTEMS.get(sys.name)
    own = spec.schemes if spec else {}
    if name in own:
        return own[name](sys, side)
    if name not in _GENERIC_SCHEMES:
        raise ConfigError(f"unknown scheme {name!r} for system {sys.name!r}; "
                          f"available: {sorted({*own, *_GENERIC_SCHEMES})}")
    return _GENERIC_SCHEMES[name](sys.field(side))
