"""Experiment runner: integrate, sweep, conserve, classify.

Configuration is a plain key=value text file with dotted keys
(``perturbation.p=2``), overridable with repeated ``--set key=value``
flags; a key that nothing reads is rejected, and every command is a
function of the checked configuration alone.  With ``perturbation.p``
set, every run of ``integrate``, ``sweep`` and ``conserve`` shifts each
localized crossing by ``perturbation.c * tau**perturbation.p``.
``classify`` reads its surface points from ``points=x,y;x,y``.  Each
result file is a CSV that ``write_csv`` writes with one ``%``-format for
all its rows, whose ``%.17g`` fields give floats at 17 significant
digits so they round-trip exactly.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .diagnostics import conserved_error_series, estimate_order
from .engine import Trajectory, check_run_inputs, integrate
from .errors import ConfigError, InsufficientData, PwsIntError
from .model import PwsSystem, RegionSide, classify_interface_point
# Neither name is called here; both stay cli attributes because
# bench/spans.py wraps them here.
from .oracles import harmonic_oracle, reference_trajectory  # noqa: F401
from .systems import SYSTEMS, make_system, resolve_scheme

# Every key read by ``build_config``, and ``tau_ref``, accepted and
# ignored so that configurations that set an RK4 reference step still
# run; ``system.<p>`` keys are the system factory's parameters, which
# ``make_system`` checks by name and the factory by value.
_KEYS = frozenset({
    "system", "scheme.minus", "scheme.plus", "x0", "t0", "T", "tau", "taus",
    "tau_ref", "events_after", "perturbation.c", "perturbation.p", "points",
})


# Rows per block of stacked states in the trajectory writer.
_WRITE_CHUNK = 512


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header: list[str], rows, row_format: str) -> None:
    """Write a header line, then ``row_format % row`` for each row.

    Each row is a tuple, and ``row_format`` formats the whole line,
    newline included.  Its ``%.17g`` fields give a float the text of
    ``fmt``; a cell that may be empty is passed as a string already
    formatted by ``fmt`` and written by ``%s``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row_format.__mod__, rows))


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


def _points(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(p for p in map(_floats, text.split(";")) if p)


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
    points: tuple

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
    elif "perturbation.c" in kv:
        raise ConfigError("perturbation.c needs perturbation.p")

    t0 = _get(kv, "t0", float, 0.0)
    T = _get(kv, "T", float, 10.0)
    tau = _get(kv, "tau", float, 1e-3)
    taus = _get(kv, "taus", _floats, ())
    if not all(math.isfinite(t) and t > 0.0 for t in taus):
        raise ConfigError(f"taus must all be finite and positive, got {taus!r}")
    if len(set(taus)) != len(taus):
        raise ConfigError(f"taus must not repeat a step size, got {taus!r}")
    events_after = _get(kv, "events_after", _ints, (10, 20, 30))
    if any(n < 1 for n in events_after):
        raise ConfigError(f"events_after counts must be at least 1, got {events_after!r}")
    x0 = _get(kv, "x0", _floats, spec.x0)
    # sweep calls the oracle and conserve divides by tau before any run
    # checks these, so they are checked here too.  The shift c * tau**p
    # is checked at the step sizes that run: a sweep's taus, else tau
    # (integrate checks it again at its own tau).
    check_run_inputs(system, x0, t0, T, tau, None if taus else perturbation)
    for step in taus:
        check_run_inputs(system, x0, t0, T, step, perturbation)
    points = _get(kv, "points", _points, ())
    for pt in points:
        if len(pt) != system.dim or not all(map(math.isfinite, pt)):
            raise ConfigError(f"each point must be {system.dim} finite numbers, "
                              f"got {list(pt)}")

    cfg = ExperimentConfig(
        system=system,
        scheme_minus_name=kv.get("scheme.minus", spec.scheme),
        scheme_plus_name=kv.get("scheme.plus", spec.scheme),
        x0=x0,
        t0=t0, T=T, tau=tau,
        taus=taus,
        perturbation=perturbation,
        out=out,
        events_after=events_after,
        points=points,
    )
    cfg.schemes()  # validate scheme names now, not at run time
    return cfg


def _run(config: ExperimentConfig) -> Trajectory:
    return integrate(config.system, *config.schemes(), config.x0, config.t0, config.T,
                     config.tau, perturbation=config.perturbation)


def cmd_integrate(config: ExperimentConfig) -> list[str]:
    """Run one trajectory; emit <out>_trajectory.csv and <out>_events.csv."""
    traj = _run(config)
    sys_ = config.system
    d = sys_.dim
    d_psi = sys_.conserved_minus.d_psi

    traj_path = f"{config.out}_trajectory.csv"
    header = (["step", "t"] + [f"x_{i+1}" for i in range(d)] + ["g", "side"]
              + [f"psi_{i+1}" for i in range(d_psi)] + ["psi_error"])

    row_format = ",".join(["%d"] + ["%.17g"] * (d + 2) + ["%s"]
                          + ["%.17g"] * (d_psi + 1)) + "\n"

    def traj_rows():
        # g and psi are evaluated once on chunks of stacked states, and
        # psi_error comes from the same psi; each chunk becomes Python
        # scalars at once, bounded in size so that memory stays flat
        # however long a segment is.  The run found g finite at every
        # stored state, and a catalog g gives each row of a stack the
        # bits of that row alone, so g needs no check here.
        for seg, lo, hi in traj.segment_blocks():
            conserved = sys_.conserved(seg.side)
            for a in range(lo, hi, _WRITE_CHUNK):
                b = min(a + _WRITE_CHUNK, hi)
                block = traj.states[a:b]
                psi = conserved.stack_values(block)
                psi_err = np.max(np.abs(psi - seg.psi_ref[:, None]), axis=0)
                yield from zip(range(a, b), traj.times[a:b].tolist(), *block.T.tolist(),
                               sys_.surface.g(block).tolist(),
                               repeat(seg.side.value), *psi.tolist(), psi_err.tolist())

    write_csv(traj_path, header, traj_rows(), row_format)

    ev_path = f"{config.out}_events.csv"
    ev_header = (["index", "t_hat"] + [f"x_hat_{i+1}" for i in range(d)]
                 + ["side_from", "side_to", "residual_g", "psi_level_residual",
                    "iters_locate", "iters_complete", "perturbation_applied"])

    ev_format = ",".join(["%d"] + ["%.17g"] * (d + 1) + ["%s", "%s"]
                         + ["%.17g"] * 2 + ["%d"] * 2 + ["%.17g"]) + "\n"
    ev_rows = ((i, ev.t_hat, *ev.x_hat, ev.side_from.value, ev.side_to.value,
                ev.residual_g, ev.psi_level_residual, ev.stats_locate.iterations,
                ev.stats_complete.iterations, ev.perturbation_applied)
               for i, ev in enumerate(traj.events))
    write_csv(ev_path, ev_header, ev_rows, ev_format)
    return [traj_path, ev_path]


def cmd_sweep(config: ExperimentConfig) -> list[str]:
    """Convergence study over the configured tau list; emit <out>_order.csv."""
    if len(config.taus) < 3:
        raise ConfigError("sweep needs at least 3 values in 'taus'")
    sys_ = config.system
    # A run with step tau ends at t0 + round((T - t0)/tau) * tau, which can
    # exceed T slightly; pad the reference horizon to cover every grid end.
    ref_state, ref_events = SYSTEMS[sys_.name].oracle(sys_, config.x0, config.t0,
                                                      config.T + max(config.taus))
    ref_times = [ev.t_star for ev in ref_events]
    after = config.events_after
    cols = ["final_state_error"] + [f"time_error_after_{n}" for n in after]
    rows = []
    for tau in config.taus:
        traj = _run(replace(config, tau=tau))
        t_end = float(traj.times[-1])
        err_state = float(np.linalg.norm(traj.states[-1] - np.asarray(ref_state(t_end))))
        errs = [err_state]
        for n in after:
            if len(traj.events) >= n and len(ref_times) >= n:
                errs.append(abs(traj.events[n - 1].t_hat - ref_times[n - 1]))
            else:
                errs.append(float("nan"))
        rows.append(("data", fmt(tau), len(traj.events), *errs))
    fits = []
    for errors in zip(*(row[3:] for row in rows)):
        try:
            est = estimate_order(config.taus, errors)
            fits.append((est.slope, est.intercept, est.r_squared))
        except InsufficientData:
            fits.append((float("nan"),) * 3)
    for kind, row in zip(("slope", "intercept", "r_squared"), zip(*fits)):
        rows.append((kind, "", "", *row))
    path = f"{config.out}_order.csv"
    write_csv(path, ["kind", "tau", "n_events"] + cols, rows,
              "%s,%s,%s" + ",%.17g" * len(cols) + "\n")
    return [path]


def cmd_conserve(config: ExperimentConfig) -> list[str]:
    """Conserved-quantity error of the conservative scheme vs rk2."""
    sys_ = config.system
    name = SYSTEMS[sys_.name].scheme
    path = f"{config.out}_conserve.csv"
    rows = []
    # A run with no step writes the header alone.
    if round((config.T - config.t0) / config.tau) > 0:
        traj_dmm = _run(replace(config, scheme_minus_name=name, scheme_plus_name=name))
        traj_rk2 = _run(replace(config, scheme_minus_name="rk2", scheme_plus_name="rk2"))
        err_dmm = conserved_error_series(traj_dmm, sys_)
        err_rk2 = conserved_error_series(traj_rk2, sys_)
        rows = zip(traj_dmm.times, err_dmm, err_rk2)
    write_csv(path, ["t", "psi_error_dmm", "psi_error_rk2"], rows, "%.17g,%.17g,%.17g\n")
    return [path]


def cmd_classify(config: ExperimentConfig) -> list[str]:
    """Classify the configured surface points; emit <out>_classify.csv."""
    if not config.points:
        raise ConfigError("classify needs at least one point in 'points'")
    sys_ = config.system
    d = sys_.dim
    rows = []
    for pt in config.points:
        x = np.asarray(pt, dtype=float)
        # A far-out point overflows g, and gets a row with its error like
        # any other point that cannot be classified.
        with np.errstate(over="ignore", invalid="ignore"):
            base = (*pt, float(sys_.surface.g(x)))
            try:
                info = classify_interface_point(sys_, x)
                rows.append(base + (fmt(info.a_minus), fmt(info.a_plus),
                                    fmt(info.alpha_sq_hat), info.kind.value, ""))
            except ValueError:
                rows.append(base + ("", "", "", "", "not_on_surface"))
            except PwsIntError as exc:
                rows.append(base + ("", "", "", "", type(exc).__name__))
    path = f"{config.out}_classify.csv"
    write_csv(path, [f"x_{i+1}" for i in range(d)]
              + ["g", "a_minus", "a_plus", "alpha_sq_hat", "classification", "error"],
              rows, ",".join(["%.17g"] * (d + 1) + ["%s"] * 5) + "\n")
    return [path]


_COMMANDS = {"integrate": cmd_integrate, "sweep": cmd_sweep,
             "conserve": cmd_conserve, "classify": cmd_classify}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pwsint",
        description="Event-driven conservative integration of piecewise-smooth ODEs")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--out", default="pwsint", help="output path prefix")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a configuration key")
    args = parser.parse_args(argv)

    try:
        kv = parse_kv_file(args.config) if args.config else {}
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, value = item.split("=", 1)
            kv[key.strip()] = value.strip()
        for p in _COMMANDS[args.command](build_config(kv, out=args.out)):
            print(p)
        return 0
    except (ConfigError, OSError) as exc:
        print(f"error: config: {exc}", file=_sys.stderr)
        return 2
    except PwsIntError as exc:
        print(f"error: numerical: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
