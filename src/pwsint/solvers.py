"""Nonlinear solvers used by the implicit stepping machinery.

Small, dense, deterministic: fixed-point iteration accelerated by
Anderson mixing of memory two once the map shows contraction, or from
its first update with the difference pairs an earlier solve of the same
slope handed on, with a monitor that flags an expanding or overflowing
map; undamped Newton with a forward-difference Jacobian; a Brent-style
bracketed scalar root finder; and a root bound for a quadratic
inequality, which acceptance criterion 7(e) checks against its series
bound.  ``FP_MAX_ITER`` caps
the updates of every fixed-point solve and the iterations of every
Newton solve.

All functions are pure with respect to their inputs, but for the
``memory`` list a fixed-point solve is handed and updates, and safe to
call concurrently when they share no such list.
"""

from __future__ import annotations

import math
from operator import mul, sub
from typing import Callable, NamedTuple

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

# An iterate x is accepted when the relevant residual is below
# FP_TOL * (1 + |x|), |x| taken by math.hypot, which does not overflow
# where the sum of squares does (|x| above about 1.3e154); ROOT_TOL_T is
# the absolute bracket-width target of the scalar root finder.
FP_TOL = 1e-14
ROOT_TOL_T = 1e-14
FP_MAX_ITER = 25
ROOT_MAX_ITER = 200
FD_JACOBIAN_STEP = math.sqrt(_EPS)

# Two difference pairs are mixed together only while the sine squared of
# the angle between their df exceeds this; below, their 2x2 normal
# equations lose most digits to cancellation.
_GRAM_MIN = 1e-8


class SolveStats(NamedTuple):
    """What a solve cost and how it behaved.

    ``contraction_estimate`` is, for a fixed-point solve, the ratio of
    its first two update norms, both plain updates (0.0 after one
    update); values below one indicate that the map contracts.  A solve
    whose first update mixed with carried difference pairs reports the
    ratio r = |dg| / |dx| of the newest pair, which it gated on.  For a
    Newton solve it is the last ratio of successive step norms.
    A leg solved in closed form by the field's own ``march`` reports
    ``"direct"`` with no iterations.  A named tuple, immutable and
    compared field by field, because every iterated leg builds one: it
    costs under half of what a frozen dataclass costs to construct.
    """

    iterations: int
    residual: float
    contraction_estimate: float
    method_used: str  # "fixed_point", "newton", "direct" or "explicit"


def fixed_point(map_: Callable[[Array], Array], x0: Array, *,
                memory: list | None = None) -> tuple[Array, SolveStats]:
    """Solve x = map(x) by Anderson-accelerated fixed-point iteration.

    Each update evaluates the map at the current iterate; the solve
    stops at the first update below the mixed tolerance and returns that
    map image.  The first two updates are plain (x <- map(x)), and their
    ratio is the map's observed contraction.  Only a contracting map is
    mixed: from the third update on, while the last update ratio r
    predicts at least three more plain updates (r^2 * update above the
    tolerance), the next iterate is the type-II Anderson mix of memory
    two (Walker & Ni, SIAM J. Numer. Anal. 49, 2011), which generically
    solves an affine map in two dimensions exactly from three updates.
    Any other solve takes exactly the plain iterates.  A mixed iterate
    whose update is not smaller than the one before ends the mixing for
    the rest of the solve.

    ``memory``, a list the caller owns, carries up to two (dg, df)
    differences of map images and updates, float lists, from one solve
    to the next of maps with the same linear part, as the steps of one
    field by one step size have (Hairer & Wanner, Solving ODEs II,
    section IV.8, reuse a Jacobian so).  When the first update fails the
    stop test and the carried ratio r = |dg| / |dg - df| of the newest
    pair predicts at least three more plain updates, the next iterate is
    the mix against the carried pairs, which lands on the fixed point of
    an affine map whose slope they hold, and r is the reported
    contraction.  That mix pays when its update is below r times the
    first, what one plain update reaches; then mixing goes on, gated by
    r on the next update, with the carried pairs until the solve has two
    of its own.  A mix that does not pay empties the list, and the next
    two updates, both plain, decide on mixing as the first two do.  A
    solve that returns after more than one update hands on its first two
    pairs, the list keeping the newest two: a solve's last iterates
    differ by little more than rounding, so their slope is mostly
    noise.  A solve of one update, or one that raises, hands nothing on.

    The observed ratio of successive update norms is monitored; a ratio
    >= 1 sustained over five updates aborts with DivergingFixedPoint,
    which for step maps signals that the step size exceeds the
    contraction restriction, and so does an update whose norm overflows
    (an infinite tolerance would accept it).  A solve that has not
    converged after FP_MAX_ITER updates raises NoConvergence.
    """
    x = np.asarray(x0, dtype=float)
    prev_delta = -1.0
    contraction = 0.0
    expanding = 0
    judge = 2  # the update whose ratio to the one before decides on mixing
    mixing = mixed = False  # mixing may pay; x is a mixed iterate
    seen = []  # the (map image, update) pair of every update before this one
    for it in range(1, FP_MAX_ITER + 1):
        g = np.asarray(map_(x), dtype=float)
        f = g - x
        delta = math.sqrt(f.dot(f))
        if delta == math.inf:
            raise DivergingFixedPoint(f"update norm overflows at iteration {it}")
        if prev_delta > 0.0:
            ratio = delta / prev_delta
            expanding = expanding + 1 if ratio >= 1.0 else 0
            if expanding >= 5:
                raise DivergingFixedPoint(
                    f"update ratio {ratio:.3g} >= 1 sustained over 5 iterations")
            if it == judge:
                if not mixed:
                    mixing = ratio < 1.0
                    if it == 2:
                        contraction = ratio
                elif ratio < contraction:  # the carried mix paid
                    mixing, ratio = True, contraction
                else:
                    memory.clear()
                    judge = 3
            elif mixed and ratio >= 1.0:
                mixing = False  # the mix did not pay: plain updates from here on
        # delta <= FP_TOL passes the mixed test whatever |g|.
        if delta <= FP_TOL or delta <= (tol := FP_TOL * (1.0 + math.hypot(*g.tolist()))):
            if it > 1 and memory is not None:
                memory[:] = (memory + _differences((seen + [(g, f)])[:3]))[-2:]
            return g, SolveStats(it, delta, contraction, "fixed_point")
        x = g
        if it == 1:
            if memory:
                # r = |dg| / |dx| with dx = dg - df; a pair of equal
                # iterates (dx = 0) predicts nothing.
                dg, df = memory[-1]
                r = math.hypot(*dg) / (math.hypot(*map(sub, dg, df)) or math.inf)
                if r * r * delta > tol:
                    contraction = r
                    x = _anderson_mix(g, f, memory)
        elif mixing and (it > 2 or memory) and ratio * ratio * delta > tol:
            x = _anderson_mix(g, f, ((memory or []) + _differences(seen[-2:] + [(g, f)]))[-2:])
        mixed = x is not g
        prev_delta = delta
        seen.append((g, f))
    raise NoConvergence(f"fixed point not converged in {FP_MAX_ITER} iterations")


def _differences(seen: list[tuple[Array, Array]]) -> list[tuple[list, list]]:
    """The (dg, df) differences of consecutive (map image, update) pairs,
    as float lists, oldest first."""
    return [((g1 - g0).tolist(), (f1 - f0).tolist())
            for (g0, f0), (g1, f1) in zip(seen, seen[1:])]


def _anderson_mix(g: Array, f: Array, pairs: list[tuple[list, list]]) -> Array:
    """The type-II Anderson iterate after the map image g.

    ``f`` is g's update, and ``pairs`` one or two (dg, df) differences
    of earlier map images and updates, float lists, oldest first.
    Returns g - c_1 dg_1 - c_2 dg_2 for the c minimizing
    |f - c_1 df_1 - c_2 df_2|, its 2x2 normal equations solved by
    Cramer's rule in Python floats.  With one pair, or when the Gram
    determinant of two is not safely positive (always in one dimension),
    the newest difference alone gives the secant step; when its df is
    zero as well, g itself is returned.
    """
    gl, fl = g.tolist(), f.tolist()
    dg2, df2 = pairs[-1]
    a22 = sum(map(mul, df2, df2))
    b2 = sum(map(mul, df2, fl))
    if len(pairs) == 2:
        dg1, df1 = pairs[0]
        a11 = sum(map(mul, df1, df1))
        a12 = sum(map(mul, df1, df2))
        b1 = sum(map(mul, df1, fl))
        det = a11 * a22 - a12 * a12
        if det > _GRAM_MIN * (a11 * a22):
            c1 = (a22 * b1 - a12 * b2) / det
            c2 = (a11 * b2 - a12 * b1) / det
            return np.array([gi - c1 * u - c2 * v for gi, u, v in zip(gl, dg1, dg2)])
    if a22 > 0.0:
        c2 = b2 / a22
        return np.array([gi - c2 * v for gi, v in zip(gl, dg2)])
    return g


def _fd_jacobian(F: Callable[[Array], Array], x: Array, Fx: Array) -> Array:
    n = x.size
    J = np.empty((Fx.size, n))
    for j in range(n):
        h = FD_JACOBIAN_STEP * max(1.0, abs(x[j]))
        xp = x.copy()
        xp[j] += h
        J[:, j] = (np.atleast_1d(np.asarray(F(xp), dtype=float)) - Fx) / h
    return J


def newton(F: Callable[[Array], Array], x0: Array) -> tuple[Array, SolveStats]:
    """Newton iteration on F(x) = 0 with a forward-difference Jacobian.

    Accepts when |F(x)| <= FP_TOL * (1 + |x0|).  A Jacobian with
    condition estimate above 1e14 raises SingularJacobian.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    target = FP_TOL * (1.0 + math.hypot(*x.tolist()))
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


def bracketed_root(phi: Callable[[float], float], a: float, b: float) -> float:
    """Root of a continuous scalar function on a sign-change bracket.

    Brent's method: inverse-quadratic / secant steps safeguarded by
    bisection, so convergence is guaranteed for any continuous phi and
    every evaluation stays inside [a, b].  Terminates when the bracket's
    half-width falls to 2*eps*|t| + ROOT_TOL_T / 2, so its width to
    4*eps*|t| + ROOT_TOL_T.
    """
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
        tol = 2.0 * _EPS * abs(b) + 0.5 * ROOT_TOL_T
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
