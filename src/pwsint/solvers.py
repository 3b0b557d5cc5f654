"""Nonlinear solvers used by the implicit stepping machinery.

Small, dense, deterministic: fixed-point iteration with contraction
monitoring, damped-free Newton with a forward-difference Jacobian, a
Brent-style bracketed scalar root finder, and a root bound for the
quadratic inequalities that appear in crossing-time estimates.

All functions are pure with respect to their inputs and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    DivergingFixedPoint,
    NoConvergence,
    NoRealSeparation,
    SingularJacobian,
)

Array = np.ndarray

_EPS = float(np.finfo(float).eps)

FP_MAX_ITER = 100  # default fixed-point cap, and the Newton cap
ROOT_MAX_ITER = 200
FD_JACOBIAN_STEP = math.sqrt(_EPS)


@dataclass(frozen=True)
class SolverConfig:
    """The two tolerances shared by the solvers.

    ``fp_tol`` is used as a mixed tolerance: an iterate x is accepted
    when the relevant residual is below fp_tol * (1 + |x|).
    ``root_tol_t`` is the absolute bracket-width target of the scalar
    root finder.  The iteration caps and the finite-difference step are
    module constants.
    """

    fp_tol: float = 1e-14
    root_tol_t: float = 1e-14

    def __post_init__(self) -> None:
        if not (self.fp_tol > 0 and self.root_tol_t > 0):
            raise ValueError("all tolerances must be positive")


@dataclass(frozen=True)
class SolveStats:
    """What a solve cost and how it behaved.

    ``contraction_estimate`` is the last observed ratio of successive
    update norms; values below one indicate the iteration contracted.
    """

    iterations: int
    residual: float
    contraction_estimate: float
    method_used: str  # "fixed_point" or "newton"


def fixed_point(map_: Callable[[Array], Array], x0: Array,
                cfg: SolverConfig | None = None,
                max_iter: int = FP_MAX_ITER) -> tuple[Array, SolveStats]:
    """Iterate x <- map(x) until the update is below the mixed tolerance.

    The observed Lipschitz ratio of successive updates is monitored; a
    ratio >= 1 sustained over five iterations aborts with
    DivergingFixedPoint, which for step maps signals that the step size
    exceeds the contraction restriction.
    """
    cfg = cfg or SolverConfig()
    x = np.asarray(x0, dtype=float)
    prev_delta = -1.0
    contraction = 0.0
    expanding = 0
    tol = cfg.fp_tol
    for it in range(1, max_iter + 1):
        x_new = np.asarray(map_(x), dtype=float)
        diff = x_new - x
        delta = math.sqrt(float(diff.dot(diff)))
        if prev_delta > 0.0:
            contraction = delta / prev_delta
            expanding = expanding + 1 if contraction >= 1.0 else 0
            if expanding >= 5:
                raise DivergingFixedPoint(
                    f"update ratio {contraction:.3g} >= 1 sustained over 5 iterations")
        if delta <= tol * (1.0 + math.sqrt(float(x_new.dot(x_new)))):
            return x_new, SolveStats(it, delta, contraction, "fixed_point")
        prev_delta = delta
        x = x_new
    raise NoConvergence(f"fixed point not converged in {max_iter} iterations")


def _fd_jacobian(F: Callable[[Array], Array], x: Array, Fx: Array) -> Array:
    n = x.size
    J = np.empty((Fx.size, n))
    for j in range(n):
        h = FD_JACOBIAN_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.atleast_1d(np.asarray(F(xp), dtype=float)) - Fx) / h
    return J


def newton(F: Callable[[Array], Array], x0: Array,
           cfg: SolverConfig | None = None) -> tuple[Array, SolveStats]:
    """Newton iteration on F(x) = 0 with a forward-difference Jacobian.

    Accepts when |F(x)| <= fp_tol * (1 + |x0|).  A Jacobian with
    condition estimate above 1e14 raises SingularJacobian.
    """
    cfg = cfg or SolverConfig()
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    target = cfg.fp_tol * (1.0 + float(np.linalg.norm(x)))
    prev_step = -1.0
    contraction = 0.0
    for it in range(FP_MAX_ITER + 1):
        Fx = np.atleast_1d(np.asarray(F(x), dtype=float))
        res = float(np.linalg.norm(Fx))
        if res <= target:
            return x, SolveStats(it, res, contraction, "newton")
        if it == FP_MAX_ITER:
            break
        J = _fd_jacobian(F, x, Fx)
        if not np.all(np.isfinite(J)) or np.linalg.cond(J) > 1e14:
            raise SingularJacobian(f"Jacobian ill-conditioned at x={x!r}")
        step = np.linalg.solve(J, -Fx)
        step_norm = float(np.linalg.norm(step))
        if prev_step > 0.0:
            contraction = step_norm / prev_step
        prev_step = step_norm
        x = x + step
    raise NoConvergence(f"Newton not converged in {FP_MAX_ITER} iterations")


def bracketed_root(phi: Callable[[float], float], a: float, b: float,
                   cfg: SolverConfig | None = None) -> float:
    """Root of a continuous scalar function on a sign-change bracket.

    Brent's method: inverse-quadratic / secant steps safeguarded by
    bisection, so convergence is guaranteed for any continuous phi and
    every evaluation stays inside [a, b].  Terminates when the bracket
    width falls below 2*eps*|t| + root_tol_t / 2.
    """
    cfg = cfg or SolverConfig()
    fa = float(phi(a))
    fb = float(phi(b))
    if fa * fb >= 0.0:
        raise BracketError(f"phi({a})={fa:.3e} and phi({b})={fb:.3e} do not bracket a root")
    c, fc = a, fa
    e = d = b - a
    for _ in range(ROOT_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * cfg.root_tol_t
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = float(phi(b))
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    raise NoConvergence(f"bracketed root not converged in {ROOT_MAX_ITER} iterations")


def quadratic_root_bound(a: float, b: float, c: float) -> float:
    """Smaller root of a*r^2 - b*r + c with a, b > 0 and 0 <= c < b^2/(4a).

    Returned in the cancellation-free form 2c / (b + sqrt(b^2 - 4ac)).
    The result always satisfies the series bound
    r <= (c/b) / (1 - 2ac/b^2), which is asserted.
    """
    if a <= 0 or b <= 0 or c < 0:
        raise ValueError("need a > 0, b > 0, c >= 0")
    disc = b * b - 4.0 * a * c
    if c >= b * b / (4.0 * a) or disc <= 0.0:
        raise NoRealSeparation(f"c={c} >= b^2/(4a)={b * b / (4.0 * a)}")
    r = 2.0 * c / (b + math.sqrt(disc))
    bound = (c / b) / (1.0 - 2.0 * a * c / (b * b))
    assert r <= bound * (1.0 + 1e-12), (r, bound)
    return r
