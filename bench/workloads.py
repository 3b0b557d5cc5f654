"""The three benchmark workloads: inputs, one body, and output checks.

A workload body is a fixed list of operations made from the seed; the
runner repeats the body in a closed loop.  Each operation is timed on
its own and checked afterwards, outside the timed region, against
independent references: the closed-form harmonic solution, exact grid
arithmetic, and the documented CSV format.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import os
import time

import numpy as np

import pwsint
from pwsint import RegionSide, cli

_now = time.perf_counter

# |t_hat - t*| may be at most C * tau^2 at every matched crossing.  The
# constants are about twice the worst case seen on the seed commit:
# 12 on integrate-csv (34 crossings accumulate), 1.92 over 1800 ensemble
# problems.
C_INTEGRATE = 25.0
C_ENSEMBLE = 4.0
# Oracle crossings closer than this many allowances to the end of the
# grid may legitimately fall on either side of it in the numerical run.
HORIZON_MULT = 2.0
PSI_TOL = 1e-11
SLOPE_RANGE = (1.8, 2.2)


class CheckFailed(Exception):
    """An operation produced output that fails its correctness check."""


def match_events(t_hats, t_end: float, tau: float, c: float, oracle_events) -> float:
    """Horizon-safe one-to-one match of computed and exact crossing times.

    Oracle crossings at least ``HORIZON_MULT`` allowances before ``t_end``
    must each be matched, in order, within ``c * tau**2``.  A computed
    crossing past them must still match the next oracle crossing (the
    oracle list reaches past ``t_end`` by the same margin).  Returns the
    largest time error.
    """
    allow = c * tau * tau
    safe_end = t_end - HORIZON_MULT * allow
    n_safe = sum(1 for ev in oracle_events if ev.t_star <= safe_end)
    if len(t_hats) < n_safe:
        raise CheckFailed(f"{len(t_hats)} crossings, the exact solution has "
                          f"{n_safe} before t={safe_end:.6g}")
    if len(t_hats) > len(oracle_events):
        raise CheckFailed(f"{len(t_hats)} crossings, the exact solution has only "
                          f"{len(oracle_events)} up to t={t_end + HORIZON_MULT * allow:.6g}")
    worst = 0.0
    for i, t_hat in enumerate(t_hats):
        err = abs(t_hat - oracle_events[i].t_star)
        if err > allow:
            raise CheckFailed(f"crossing {i}: |t_hat - t*| = {err:.3e} > {allow:.3e}")
        worst = max(worst, err)
    return worst


def _float_field(text: str, what: str) -> float:
    value = float(text)
    if f"{value:.17g}" != text:
        raise CheckFailed(f"{what}: {text!r} is not a 17-digit round-trip float")
    return value


class Op:
    """One timed operation: its start and end, and the check's outcome."""

    __slots__ = ("t0", "t1", "error", "crossing_err")

    def __init__(self, t0: float, t1: float, error: str | None = None,
                 crossing_err: float | None = None):
        self.t0, self.t1 = t0, t1
        self.error = error
        self.crossing_err = crossing_err


def run_body(workload, tracer=None) -> list[Op]:
    """Run every operation of one body in order, each after the last.

    Only the operation itself is timed; its check runs afterwards.  Any
    exception is caught here, at the operation boundary, and counted as
    a failed operation with its type and message.  With a tracer, each
    operation gets a root span and its check runs in the "check" phase.
    """
    ops = []
    for run, check in workload.operations():
        if tracer is not None:
            tracer.op += 1
        t0 = _now()
        try:
            if tracer is None:
                result = run()
            else:
                with tracer.span("bench.op"):
                    result = run()
        except Exception as exc:  # noqa: BLE001 - operation boundary
            ops.append(Op(t0, _now(), f"{type(exc).__name__}: {exc}"))
            continue
        op = Op(t0, _now())
        if tracer is not None:
            tracer.phase = "check"
        try:
            op.crossing_err = check(result)
        except Exception as exc:  # noqa: BLE001 - operation boundary
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.phase = "body"
        ops.append(op)
    return ops


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class IntegrateCsv:
    name = "integrate-csv"
    T, TAU, X0, W2 = 85.0, 1e-3, (1.0, 1.0), (3.0, 1.0)

    def __init__(self, seed: int, out_dir: str):
        # The input is fixed: the seed does not change it.
        self.prefix = os.path.join(out_dir, "integrate")
        self.argv = ["integrate", "--out", self.prefix, "--set", f"T={self.T:g}"]

    def setup_args(self) -> list[str]:
        return [f"T={self.T:g}"]

    def operations(self):
        return [(lambda: _cli(self.argv), self.check)]

    def check(self, code: int) -> float:
        if code != 0:
            raise CheckFailed(f"pwsint integrate exited with {code}")
        n_steps = int(round(self.T / self.TAU))
        w2m, w2p = self.W2
        with open(self.prefix + "_trajectory.csv", encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            if header != ["step", "t", "x_1", "x_2", "g", "side", "psi_1", "psi_error"]:
                raise CheckFailed(f"trajectory header {header}")
            k = -1
            for k, row in enumerate(rows):
                if int(row[0]) != k:
                    raise CheckFailed(f"row {k} has step {row[0]}")
                if row[1] != f"{0.0 + self.TAU * k:.17g}":
                    raise CheckFailed(f"row {k}: t={row[1]} is not t0 + k*tau")
                x1 = _float_field(row[2], "x_1")
                x2 = _float_field(row[3], "x_2")
                g = _float_field(row[4], "g")
                psi = _float_field(row[6], "psi_1")
                err = _float_field(row[7], "psi_error")
                if g != x2:
                    raise CheckFailed(f"row {k}: g={g} differs from y={x2}")
                side = row[5]
                if abs(g) > 1e-9 and side != ("plus" if g > 0.0 else "minus"):
                    raise CheckFailed(f"row {k}: side {side} disagrees with g={g}")
                w2 = w2p if side == "plus" else w2m
                if abs(psi - 0.5 * (w2 * x1 * x1 + x2 * x2)) > 1e-12 * (1.0 + psi):
                    raise CheckFailed(f"row {k}: psi_1={psi} is not the {side} energy")
                if not err <= PSI_TOL:
                    raise CheckFailed(f"row {k}: psi_error={err:.3e} > {PSI_TOL}")
            if k != n_steps:
                raise CheckFailed(f"{k + 1} trajectory rows, expected {n_steps + 1}")
        t_end = self.TAU * n_steps
        _, oracle_events = pwsint.harmonic_oracle(
            w2m, w2p, self.X0, 0.0, t_end + HORIZON_MULT * C_INTEGRATE * self.TAU ** 2)
        t_hats = []
        with open(self.prefix + "_events.csv", encoding="utf-8", newline="") as fh:
            rows = csv.DictReader(fh)
            for i, row in enumerate(rows):
                if int(row["index"]) != i:
                    raise CheckFailed(f"event row {i} has index {row['index']}")
                for key in ("t_hat", "x_hat_1", "x_hat_2", "residual_g",
                            "psi_level_residual"):
                    _float_field(row[key], key)
                if not float(row["psi_level_residual"]) <= PSI_TOL:
                    raise CheckFailed(f"event {i}: psi_level_residual "
                                      f"{row['psi_level_residual']} > {PSI_TOL}")
                t_hats.append(float(row["t_hat"]))
        return match_events(t_hats, t_end, self.TAU, C_INTEGRATE, oracle_events)


class SweepElliptic:
    name = "sweep-elliptic"
    TAUS = (4e-2, 2e-2, 1e-2, 5e-3, 2.5e-3)
    SETTINGS = ("system=elliptic", "taus=" + ",".join(f"{t:g}" for t in TAUS),
                "tau_ref=5e-5", "events_after=10")

    def __init__(self, seed: int, out_dir: str):
        # The input is fixed: the seed does not change it.
        self.prefix = os.path.join(out_dir, "sweep")
        self.argv = ["sweep", "--out", self.prefix]
        for s in self.SETTINGS:
            self.argv += ["--set", s]

    def setup_args(self) -> list[str]:
        return list(self.SETTINGS)

    def operations(self):
        return [(lambda: _cli(self.argv), self.check)]

    def check(self, code: int) -> float:
        """Slopes 2 +- 0.2, one event count across the ladder.

        Returns the largest crossing-time error in the order table; its
        reference is the RK4 run at ``tau_ref``, not a closed form.
        """
        if code != 0:
            raise CheckFailed(f"pwsint sweep exited with {code}")
        with open(self.prefix + "_order.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        cols = ("final_state_error", "time_error_after_10")
        data = [r for r in rows if r["kind"] == "data"]
        if [float(r["tau"]) for r in data] != list(self.TAUS):
            raise CheckFailed(f"order table has taus {[r['tau'] for r in data]}")
        counts = {int(r["n_events"]) for r in data}
        if len(counts) != 1 or counts.pop() < 10:
            raise CheckFailed(f"event counts differ across the tau ladder: "
                              f"{[r['n_events'] for r in data]}")
        slopes = [r for r in rows if r["kind"] == "slope"]
        if len(slopes) != 1:
            raise CheckFailed("order table has no single slope row")
        lo, hi = SLOPE_RANGE
        for c in cols:
            s = _float_field(slopes[0][c], c)
            if not lo <= s <= hi:
                raise CheckFailed(f"{c} slope {s:.4f} outside [{lo}, {hi}]")
        errs = [_float_field(r["time_error_after_10"], "time_error_after_10") for r in data]
        return max(errs)


class EnsembleCoarse:
    name = "ensemble-coarse"
    N, T = 300, 6.0

    def __init__(self, seed: int, out_dir: str):
        rng = np.random.default_rng(seed)
        # Every third problem takes the fine step, so a body's work hardly
        # varies with the seed, and p50 and p90 fall inside the coarse and
        # the fine cluster instead of on their boundary.
        tau = np.where(np.arange(self.N) % 3 == 2, 0.05, 0.1)
        # omega^2 ~ U[0.5, 4] on each side, Latin-hypercube sampled within
        # each step size, so every seed covers the stiff end of the range
        # and the largest crossing error varies less from seed to seed.
        w2 = np.empty((self.N, 2))
        for step in (0.1, 0.05):
            rows = np.flatnonzero(tau == step)
            for side in range(2):
                strata = rng.permutation(rows.size) + rng.uniform(size=rows.size)
                w2[rows, side] = 0.5 + 3.5 * strata / rows.size
        radius = rng.uniform(0.5, 2.0, size=self.N)
        angle = rng.uniform(0.0, 2.0 * math.pi, size=self.N)
        self.problems = [
            (float(w2[i, 0]), float(w2[i, 1]),
             (float(radius[i] * math.cos(angle[i])), float(radius[i] * math.sin(angle[i]))),
             float(tau[i]))
            for i in range(self.N)]

    def setup_args(self) -> list[str]:
        return [repr(v) for v in self.problems[0][:2]]

    def operations(self):
        return [(functools.partial(self.solve, *p), functools.partial(self.check, *p))
                for p in self.problems]

    @staticmethod
    def solve(w2m, w2p, x0, tau):
        sys_ = pwsint.make_system("harmonic", omega2_minus=w2m, omega2_plus=w2p)
        minus = pwsint.resolve_scheme("dmm-midpoint", sys_, RegionSide.MINUS)
        plus = pwsint.resolve_scheme("dmm-midpoint", sys_, RegionSide.PLUS)
        return sys_, pwsint.integrate(sys_, minus, plus, x0, 0.0, EnsembleCoarse.T, tau)

    def check(self, w2m, w2p, x0, tau, result) -> float:
        sys_, traj = result
        n_steps = int(round(self.T / tau))
        if len(traj.times) != n_steps + 1:
            raise CheckFailed(f"{len(traj.times)} samples, expected {n_steps + 1}")
        t_end = float(traj.times[-1])
        allow = C_ENSEMBLE * tau * tau
        _, oracle_events = pwsint.harmonic_oracle(w2m, w2p, x0, 0.0,
                                                  t_end + HORIZON_MULT * allow)
        for ev in traj.events:
            if not ev.psi_level_residual <= PSI_TOL:
                raise CheckFailed(f"psi_level_residual {ev.psi_level_residual:.3e}")
        drift = float(pwsint.conserved_error_series(traj, sys_).max())
        if not drift <= PSI_TOL:
            raise CheckFailed(f"conserved drift {drift:.3e} > {PSI_TOL}")
        return match_events([ev.t_hat for ev in traj.events], t_end, tau, C_ENSEMBLE,
                            oracle_events)


WORKLOADS = {w.name: w for w in (IntegrateCsv, SweepElliptic, EnsembleCoarse)}
