"""pwsint benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark imports pwsint from the checkout's ``src`` directory and
drives it only through its public entry points (``pwsint.cli.main``,
``integrate``, and the ``systems``/``schemes``/``oracles`` factories),
in this one process and thread, as a single closed-loop client: each
operation starts after the previous one finished.  The workload body
(see ``workloads.py``) is repeated while another body still fits in
``--seconds``; every operation's output is checked.

``--trace 0`` reports the end-to-end metrics; set-up time is measured
in fresh interpreters (``setup_probe.py``), started one at a time and
waited for.  ``--trace 1`` alternates untraced and traced bodies and
reports the per-layer metrics of the traced ones (``spans.py``); the
spans are written to ``.bench_out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print the same numbers for a
reader, with the sample counts and the host context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

_now = time.perf_counter


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def import_pwsint():
    """Import pwsint from this checkout's sources, never from elsewhere."""
    init = SRC / "pwsint" / "__init__.py"
    if not init.is_file():
        die(f"no pwsint sources at {init.relative_to(ROOT)}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import pwsint
    import pwsint.cli  # noqa: F401 - the CLI module is driven and traced

    if Path(pwsint.__file__).resolve() != init.resolve():
        die(f"imported pwsint from {pwsint.__file__}, not from the checkout")
    return pwsint


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def host_context(factors: list[float]) -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "kernel_ref_ms": hostspeed.KERNEL_REF_S * 1e3,
            "host_factor_p50": statistics.median(factors),
            "host_factor_max": max(factors)}


def setup_seconds(workload) -> tuple[list[float], list[float]]:
    """Cold set-up times, one fresh interpreter per sample, run in turn.

    Each probe also times the host-speed kernel in its own process; its
    set-up time is divided by that host factor.  Returns the reference
    times and the factors.
    """
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    cmd = [sys.executable, str(probe), str(SRC), workload.name, *workload.setup_args()]
    samples, factors = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()}")
        setup, kernel = (float(v) for v in proc.stdout.split())
        factor = kernel / hostspeed.KERNEL_REF_S
        samples.append(setup / factor)
        factors.append(factor)
    return samples, factors


def closed_loop(seconds: float, cycle):
    """Call ``cycle()`` at least once, and again while another call fits."""
    start = _now()
    durations = []
    while True:
        t0 = _now()
        cycle()
        durations.append(_now() - t0)
        if _now() - start + statistics.median(durations) > seconds:
            return


def measure(workloads, name: str, seed: int, seconds: float) -> tuple[list, dict]:
    """Untraced run: the end-to-end metrics."""
    workload = workloads.WORKLOADS[name](seed, str(OUT))
    setup, setup_factors = setup_seconds(workload)
    bodies: list[list] = []
    with hostspeed.HostSpeed() as host:
        closed_loop(seconds, lambda: bodies.append(workloads.run_body(workload)))
    ops = [op for body in bodies for op in body]
    # Every operation runs once per body.  Its latency is the median of
    # its repetitions, in reference seconds; a body's time is their sum.
    ref = [[host.reference_seconds(op.t0, op.t1) for op in body] for body in bodies]
    per_op = [statistics.median(r[i] for r in ref) for i in range(len(ref[0]))]
    per_op_ms = [t * 1e3 for t in per_op]
    errs = [op.crossing_err for op in ops if op.crossing_err is not None]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(per_op), "s"),
        "traj_ms_p50": (quantile(per_op_ms, 0.5), "ms"),
        "traj_ms_p90": (quantile(per_op_ms, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "crossing_err_max": (max(errs, default=0.0), "model-t"),
    }
    raw_s = [sum(op.t1 - op.t0 for op in body) for body in bodies]
    factors = setup_factors + [host.factor(op.t0, op.t1) for op in ops]
    notes = {"bodies": len(bodies), "ops": len(ops), "setup_probes": len(setup),
             "ops_per_body": len(bodies[0]), "host_samples": len(host.starts),
             "raw_body_s": ",".join(f"{t:.4g}" for t in raw_s)}
    return ops, {"metrics": metrics, "notes": notes, "factors": factors}


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, n_bodies: int, traced_s: float, overhead: float) -> dict:
    """Per-layer metrics of the traced bodies, per body or per call.

    Times are raw seconds of the traced bodies; ``overhead`` is traced
    over untraced body time, both in reference seconds, minus 1.
    """
    agg = tracer.agg["body"]
    cnt = tracer.counts["body"]
    every = {**tracer.agg["check"], **agg}  # the harmonic oracle runs in checks only

    def calls(name):
        return agg[name][0] / n_bodies if name in agg else 0.0

    def total_s(name):
        return agg[name][1] / n_bodies if name in agg else 0.0

    def us_per_call(name, table=agg):
        return _per(table[name][1], table[name][0]) * 1e6 if name in table else 0.0

    steps = cnt["engine.integrate.steps"] / n_bodies
    body_s = traced_s / n_bodies
    fp_calls = calls("solvers.fixed_point")
    locate_calls = calls("engine.locate_crossing")
    rows = cnt["cli.write_csv.rows"] / n_bodies
    samples = cnt["diagnostics.conserved_error_series.samples"] / n_bodies
    loop_self = agg["engine.integrate"][2] / n_bodies if "engine.integrate" in agg else 0.0
    m = {
        "engine.integrate.calls": (calls("engine.integrate"), "count"),
        "engine.integrate.steps": (steps, "count"),
        "engine.events": (cnt["engine.events"] / n_bodies, "count"),
        "engine.loop_self_us_per_step": (_per(loop_self, steps) * 1e6, "us"),
        "schemes.evaluate.calls_per_step": (_per(calls("schemes.evaluate"), steps), "call/step"),
        "schemes.evaluate.us_per_call": (us_per_call("schemes.evaluate"), "us"),
        "solvers.fixed_point.calls": (fp_calls, "count"),
        "solvers.fixed_point.iters_per_call": (
            _per(cnt["solvers.fixed_point.iters"] / n_bodies, fp_calls), "iter/call"),
        "solvers.fixed_point.iters_max": (cnt["solvers.fixed_point.iters_max"], "iter"),
        "solvers.fixed_point.us_per_call": (us_per_call("solvers.fixed_point"), "us"),
        "solvers.newton.calls": (calls("solvers.newton"), "count"),
        "model.side_of.calls_per_step": (_per(calls("model.side_of"), steps), "call/step"),
        "model.side_of.us_per_call": (us_per_call("model.side_of"), "us"),
        "model.g.evals_per_step": (_per(calls("model.g"), steps), "eval/step"),
        "model.field.evals_per_step": (_per(calls("model.field"), steps), "eval/step"),
        "model.classify_interface_point.calls": (
            calls("model.classify_interface_point"), "count"),
        "model.classify_interface_point.us_per_call": (
            us_per_call("model.classify_interface_point"), "us"),
        "engine.locate_crossing.calls": (locate_calls, "count"),
        "engine.locate_crossing.us_per_call": (us_per_call("engine.locate_crossing"), "us"),
        "engine.locate_crossing.phi_evals_per_call": (
            _per(cnt["engine.locate_crossing.phi_evals"] / n_bodies, locate_calls),
            "eval/call"),
        "engine.locate_crossing.share": (
            _per(total_s("engine.locate_crossing"), body_s), "frac"),
        "solvers.bracketed_root.calls": (calls("solvers.bracketed_root"), "count"),
        "solvers.bracketed_root.evals_per_call": (
            _per(cnt["solvers.bracketed_root.evals"] / n_bodies,
                 calls("solvers.bracketed_root")), "eval/call"),
        "solvers.bracketed_root.us_per_call": (us_per_call("solvers.bracketed_root"), "us"),
        "oracles.reference_trajectory.s": (total_s("oracles.reference_trajectory"), "s"),
        "oracles.reference_trajectory.steps": (
            cnt["oracles.reference_trajectory.steps"] / n_bodies, "count"),
        "oracles.reference_trajectory.share": (
            _per(total_s("oracles.reference_trajectory"), body_s), "frac"),
        "oracles.harmonic_oracle.us_per_call": (
            us_per_call("oracles.harmonic_oracle", every), "us"),
        "cli.write_csv.s": (total_s("cli.write_csv"), "s"),
        "cli.write_csv.rows": (rows, "count"),
        "cli.write_csv.bytes": (cnt["cli.write_csv.bytes"] / n_bodies, "B"),
        "cli.write_csv.us_per_row": (_per(total_s("cli.write_csv"), rows) * 1e6, "us"),
        "cli.write_csv.share": (_per(total_s("cli.write_csv"), body_s), "frac"),
        "engine.Trajectory.segment_at.calls": (calls("engine.Trajectory.segment_at"), "count"),
        "engine.Trajectory.segment_at.us_per_call": (
            us_per_call("engine.Trajectory.segment_at"), "us"),
        "diagnostics.conserved_error_series.s": (
            total_s("diagnostics.conserved_error_series"), "s"),
        "diagnostics.conserved_error_series.us_per_sample": (
            _per(total_s("diagnostics.conserved_error_series"), samples) * 1e6, "us"),
        "systems.make_system.us": (us_per_call("systems.make_system"), "us"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    return m


def measure_traced(workloads, spans, pwsint, name: str, seed: int,
                   seconds: float) -> tuple[list, dict]:
    """Traced run: untraced and traced bodies in turn; per-layer metrics."""
    workload = workloads.WORKLOADS[name](seed, str(OUT))
    tracer = spans.Tracer()
    plain, traced = [], []

    def pair():
        plain.append(workloads.run_body(workload))
        with spans.instrument(tracer, pwsint):
            traced.append(workloads.run_body(workload, tracer))

    with hostspeed.HostSpeed() as host:
        closed_loop(seconds, pair)

    def ref_s(bodies):
        return sum(host.reference_seconds(op.t0, op.t1) for b in bodies for op in b)

    raw_traced_s = sum(op.t1 - op.t0 for b in traced for op in b)
    metrics = layer_metrics(tracer, len(traced), raw_traced_s,
                            ref_s(traced) / ref_s(plain) - 1.0)
    trace_path = OUT / f"trace_{name}_seed{seed}.csv"
    tracer.write(str(trace_path))
    ops = [op for b in plain + traced for op in b]
    notes = {"pairs": len(traced), "ops": len(ops), "spans": len(tracer.spans),
             "spans_aggregated_only": tracer.dropped,
             "trace_file": str(trace_path.relative_to(ROOT))}
    factors = [host.factor(op.t0, op.t1) for op in ops]
    return ops, {"metrics": metrics, "notes": notes, "factors": factors}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pwsint = import_pwsint()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        die("--seconds must be positive")
    OUT.mkdir(exist_ok=True)

    if args.trace:
        ops, result = measure_traced(workloads, spans, pwsint, args.workload,
                                     args.seed, args.seconds)
    else:
        ops, result = measure(workloads, args.workload, args.seed, args.seconds)
    failures = [op.error for op in ops if op.error is not None]
    host = host_context(result["factors"])

    print(f"# pwsint benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    print("# samples: " + " ".join(f"{k}={v}" for k, v in result["notes"].items()))
    for key, (value, unit) in result["metrics"].items():
        print(f"{key:48s} {value:>16.6g} {unit}")
    print(f"{'ops_failed_frac':48s} {len(failures) / len(ops):>16.6g} "
          f"frac ({len(failures)}/{len(ops)})")
    for message in sorted(set(failures))[:5]:
        print(f"# failed: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
