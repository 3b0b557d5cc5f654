"""Experiment runner: integrate, sweep, perturb, conserve, classify.

Configuration is a plain key=value text file with dotted keys
(``perturbation.p=2``), overridable with repeated ``--set key=value``
flags; a key that nothing reads is rejected.  All results are written
as CSV with floats at 17 significant digits so they round-trip exactly.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .diagnostics import conserved_error_series, estimate_order
from .engine import Trajectory, integrate
from .errors import ConfigError, NumericalError, PwsIntError
from .model import PwsSystem, RegionSide, classify_interface_point
# Neither name is called here; both stay cli attributes because
# bench/spans.py wraps them here.
from .oracles import harmonic_oracle, reference_trajectory  # noqa: F401
from .systems import SYSTEMS, make_system, resolve_scheme

# Every key read below or by ``main``, and ``tau_ref``, accepted and
# ignored so that configurations that set an RK4 reference step still
# run; ``system.<p>`` keys are the system factory's parameters and are
# checked by ``make_system``.
_KEYS = frozenset({
    "system", "scheme.minus", "scheme.plus", "x0", "t0", "T", "tau", "taus",
    "tau_ref", "events_after", "perturbation.c", "perturbation.p",
    "max_crossings_per_step", "max_events", "points",
})


# Rows per block of stacked states in the trajectory writer.
_WRITE_CHUNK = 512


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header: list[str], rows, row_format: str | None = None) -> None:
    """Write a header line and one line per row.

    Without ``row_format`` floats are formatted by ``fmt`` and anything
    else by ``str``; with it, each row is a tuple written as
    ``row_format % row``, whose ``%.17g`` fields give the same text.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if row_format is not None:
            for row in rows:
                fh.write(row_format % row)
            return
        for row in rows:
            fh.write(",".join(fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def parse_kv_file(path) -> dict[str, str]:
    kv: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = line.split("=", 1)
            kv[key.strip()] = value.strip()
    return kv


def _get(kv: dict, key: str, conv, default):
    if key not in kv:
        return default
    try:
        return conv(kv[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {kv[key]!r} ({exc})") from None


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.split(",") if p.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


@dataclass
class ExperimentConfig:
    system: PwsSystem
    scheme_minus_name: str
    scheme_plus_name: str
    x0: tuple
    t0: float
    T: float
    tau: float
    taus: tuple
    perturbation: tuple | None
    out: str
    events_after: tuple
    max_crossings_per_step: int
    max_events: int

    def schemes(self):
        return (resolve_scheme(self.scheme_minus_name, self.system, RegionSide.MINUS),
                resolve_scheme(self.scheme_plus_name, self.system, RegionSide.PLUS))


def build_config(kv: dict[str, str], out: str = "pwsint") -> ExperimentConfig:
    unknown = sorted(k for k in kv if k not in _KEYS and not k.startswith("system."))
    if unknown:
        raise ConfigError(f"unknown configuration key(s): {', '.join(unknown)}")
    name = kv.get("system", "harmonic")
    params = {key[len("system."):]: _get(kv, key, float, None)
              for key in kv if key.startswith("system.")}
    system = make_system(name, **params)
    spec = SYSTEMS[name]

    perturbation = None
    if "perturbation.p" in kv:
        perturbation = (_get(kv, "perturbation.c", float, 1.0),
                        _get(kv, "perturbation.p", float, None))

    t0 = _get(kv, "t0", float, 0.0)
    T = _get(kv, "T", float, 10.0)
    tau = _get(kv, "tau", float, 1e-3)
    if not all(map(math.isfinite, (t0, T, tau))):
        raise ConfigError("t0, T and tau must be finite")
    if tau <= 0.0:
        raise ConfigError("tau must be positive")
    if T < t0:
        raise ConfigError("T must not precede t0")
    x0 = _get(kv, "x0", _floats, spec.x0)
    if len(x0) != system.dim or not all(map(math.isfinite, x0)):
        raise ConfigError(f"x0 must be {system.dim} finite numbers, got {x0!r}")

    cfg = ExperimentConfig(
        system=system,
        scheme_minus_name=kv.get("scheme.minus", spec.scheme),
        scheme_plus_name=kv.get("scheme.plus", spec.scheme),
        x0=x0,
        t0=t0, T=T, tau=tau,
        taus=_get(kv, "taus", _floats, ()),
        perturbation=perturbation,
        out=out,
        events_after=_get(kv, "events_after", _ints, (10, 20, 30)),
        max_crossings_per_step=_get(kv, "max_crossings_per_step", int, 4),
        max_events=_get(kv, "max_events", int, 100_000),
    )
    cfg.schemes()  # validate scheme names now, not at run time
    return cfg


def _run(config: ExperimentConfig, perturbation: tuple | None,
         scheme_names: tuple[str, str] | None = None,
         tau: float | None = None) -> Trajectory:
    sys_ = config.system
    minus, plus = scheme_names or (config.scheme_minus_name, config.scheme_plus_name)
    return integrate(sys_, resolve_scheme(minus, sys_, RegionSide.MINUS),
                     resolve_scheme(plus, sys_, RegionSide.PLUS), config.x0, config.t0,
                     config.T, tau if tau is not None else config.tau,
                     perturbation=perturbation,
                     max_crossings_per_step=config.max_crossings_per_step,
                     max_events=config.max_events)


def _side_name(side) -> str:
    return side.value if side is not None else ""


def cmd_integrate(config: ExperimentConfig) -> list[str]:
    """Run one trajectory; emit <out>_trajectory.csv and <out>_events.csv."""
    traj = _run(config, config.perturbation)
    sys_ = config.system
    d = sys_.dim
    d_psi = sys_.conserved_minus.d_psi
    psi_err = conserved_error_series(traj, sys_)

    traj_path = f"{config.out}_trajectory.csv"
    header = (["step", "t"] + [f"x_{i+1}" for i in range(d)] + ["g", "side"]
              + [f"psi_{i+1}" for i in range(d_psi)] + ["psi_error"])

    row_format = ",".join(["%d"] + ["%.17g"] * (d + 2) + ["%s"]
                          + ["%.17g"] * (d_psi + 1)) + "\n"

    def traj_rows():
        # g and psi are evaluated on chunks of stacked states; each chunk
        # becomes Python scalars at once, bounded in size so that memory
        # stays flat however long a segment is.
        for seg, lo, hi in traj.segment_blocks():
            conserved = sys_.conserved(seg.side)
            for a in range(lo, hi, _WRITE_CHUNK):
                b = min(a + _WRITE_CHUNK, hi)
                block = traj.states[a:b]
                yield from zip(range(a, b), traj.times[a:b].tolist(), *block.T.tolist(),
                               sys_.surface.stack_values(block).tolist(),
                               repeat(seg.side.value),
                               *conserved.stack_values(block).tolist(),
                               psi_err[a:b].tolist())

    write_csv(traj_path, header, traj_rows(), row_format)

    ev_path = f"{config.out}_events.csv"
    ev_header = (["index", "t_hat"] + [f"x_hat_{i+1}" for i in range(d)]
                 + ["side_from", "side_to", "residual_g", "psi_level_residual",
                    "iters_locate", "iters_complete", "perturbation_applied"])

    def ev_rows():
        for i, ev in enumerate(traj.events):
            yield ([i, ev.t_hat] + [float(v) for v in ev.x_hat]
                   + [_side_name(ev.side_from), _side_name(ev.side_to),
                      ev.residual_g, ev.psi_level_residual,
                      ev.stats_locate.iterations if ev.stats_locate else 0,
                      ev.stats_complete.iterations if ev.stats_complete else 0,
                      ev.perturbation_applied])

    write_csv(ev_path, ev_header, ev_rows())
    return [traj_path, ev_path]


def _reference_for(config: ExperimentConfig):
    """Exact state function and event times from the system's oracle."""
    sys_ = config.system
    # A run with step tau ends at t0 + round((T - t0)/tau) * tau, which can
    # exceed T slightly; pad the reference horizon to cover every grid end.
    margin = max(config.taus) if config.taus else config.tau
    state, events = SYSTEMS[sys_.name].oracle(sys_, config.x0, config.t0,
                                              config.T + margin)
    return state, [ev.t_star for ev in events]


def cmd_sweep(config: ExperimentConfig, perturbation: tuple | None) -> list[str]:
    """Convergence study over the configured tau list; emit <out>_order.csv."""
    if len(config.taus) < 3:
        raise ConfigError("sweep needs at least 3 values in 'taus'")
    ref_state, ref_times = _reference_for(config)
    after = config.events_after
    cols = ["final_state_error"] + [f"time_error_after_{n}" for n in after]
    rows = []
    table: dict[str, list[float]] = {c: [] for c in cols}
    for tau in config.taus:
        traj = _run(config, perturbation, tau=tau)
        t_end = float(traj.times[-1])
        err_state = float(np.linalg.norm(traj.states[-1] - np.asarray(ref_state(t_end))))
        errs = [err_state]
        for n in after:
            if len(traj.events) >= n and len(ref_times) >= n:
                errs.append(abs(traj.events[n - 1].t_hat - ref_times[n - 1]))
            else:
                errs.append(float("nan"))
        for c, e in zip(cols, errs):
            table[c].append(e)
        rows.append(["data", tau, len(traj.events)] + errs)
    taus = np.asarray(config.taus)
    summary = {"slope": [], "intercept": [], "r_squared": []}
    for c in cols:
        errs = np.asarray(table[c])
        ok = np.isfinite(errs) & (errs > 0)
        if int(ok.sum()) >= 3:
            est = estimate_order(taus[ok], errs[ok])
            summary["slope"].append(est.slope)
            summary["intercept"].append(est.intercept)
            summary["r_squared"].append(est.r_squared)
        else:
            for key in summary:
                summary[key].append(float("nan"))
    for kind in ("slope", "intercept", "r_squared"):
        rows.append([kind, "", ""] + summary[kind])
    path = f"{config.out}_order.csv"
    write_csv(path, ["kind", "tau", "n_events"] + cols, rows)
    return [path]


def cmd_perturb(config: ExperimentConfig) -> list[str]:
    """Sweep with the configured crossing-time perturbation (required)."""
    if config.perturbation is None:
        raise ConfigError("perturb needs perturbation.p (and optionally perturbation.c)")
    return cmd_sweep(config, config.perturbation)


def cmd_conserve(config: ExperimentConfig) -> list[str]:
    """Conserved-quantity error of the conservative scheme vs rk2."""
    sys_ = config.system
    name = SYSTEMS[sys_.name].scheme
    path = f"{config.out}_conserve.csv"
    header = ["t", "psi_error_dmm", "psi_error_rk2"]
    if round((config.T - config.t0) / config.tau) == 0:
        write_csv(path, header, [])
        return [path]
    traj_dmm = _run(config, None, scheme_names=(name, name))
    traj_rk2 = _run(config, None, scheme_names=("rk2", "rk2"))
    err_dmm = conserved_error_series(traj_dmm, sys_)
    err_rk2 = conserved_error_series(traj_rk2, sys_)
    rows = ([float(t), float(a), float(b)]
            for t, a, b in zip(traj_dmm.times, err_dmm, err_rk2))
    write_csv(path, header, rows)
    return [path]


def cmd_classify(config: ExperimentConfig, points: list[tuple]) -> list[str]:
    """Classify listed surface points; emit <out>_classify.csv."""
    sys_ = config.system
    d = sys_.dim
    rows = []
    for pt in points:
        x = np.asarray(pt, dtype=float)
        if x.size != d:
            raise ConfigError(f"point {pt!r} has {x.size} coordinates, expected {d}")
        gv = sys_.surface.value(x)
        base = [float(v) for v in x] + [gv]
        try:
            info = classify_interface_point(sys_, x)
            rows.append(base + [info.a_minus, info.a_plus, info.alpha_sq_hat,
                                info.kind.value, ""])
        except ValueError:
            rows.append(base + ["", "", "", "", "not_on_surface"])
        except PwsIntError as exc:
            rows.append(base + ["", "", "", "", type(exc).__name__])
    path = f"{config.out}_classify.csv"
    write_csv(path, [f"x_{i+1}" for i in range(d)]
              + ["g", "a_minus", "a_plus", "alpha_sq_hat", "classification", "error"],
              rows)
    return [path]


def _parse_points(values: list[str]) -> list[tuple]:
    pts = []
    for v in values:
        try:
            pts.append(_floats(v))
        except ValueError:
            raise ConfigError(f"bad point {v!r}; expected comma-separated floats") from None
    return pts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwsint",
        description="Event-driven conservative integration of piecewise-smooth ODEs")
    parser.add_argument("command",
                        choices=["integrate", "sweep", "perturb", "conserve", "classify"])
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", default="pwsint", help="output path prefix")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a configuration key")
    parser.add_argument("--point", dest="points", action="append", default=[],
                        metavar="X1,X2", help="surface point for classify (repeatable)")
    args = parser.parse_args(argv)

    try:
        kv = parse_kv_file(args.config) if args.config else {}
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            kv[key.strip()] = value.strip()
        config = build_config(kv, out=args.out)
        if args.command == "integrate":
            paths = cmd_integrate(config)
        elif args.command == "sweep":
            paths = cmd_sweep(config, None)
        elif args.command == "perturb":
            paths = cmd_perturb(config)
        elif args.command == "conserve":
            paths = cmd_conserve(config)
        else:
            points = _parse_points(args.points or kv.get("points", "").split(";"))
            if not points or not any(points):
                raise ConfigError("classify needs at least one --point or a 'points' key")
            paths = cmd_classify(config, [p for p in points if p])
        for p in paths:
            print(p)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"error: config: {exc}", file=_sys.stderr)
        return 2
    except (NumericalError, PwsIntError) as exc:
        print(f"error: numerical: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
