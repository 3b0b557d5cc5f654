"""In-memory span tracing of the pwsint layers, applied from outside.

The package is not modified.  ``instrument`` replaces, for the duration
of a ``with`` block, the module attributes that ``pwsint.engine``,
``pwsint.cli`` and ``pwsint.oracles`` look up at call time, plus the
package-level entry points the benchmark itself calls.  Callables stored
inside frozen records (``DiscreteVectorField.evaluate``, the system's
fields and its switching function ``g``) are wrapped by handing out
copies made with ``dataclasses.replace``.

Every wrapped call records a span: name, start, end, parent span and
operation id.  Aggregates (calls, total time, self time and per-layer
counters) are kept for every span; the raw span records are kept up to
a cap and written out when the run ends.  Self time is a span's
duration minus the time covered by its child spans.  Everything runs
on one thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.phase = "body"
        self.op = 0
        # phase -> name -> [calls, total_s, self_s]
        self.agg = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        # phase -> counter name -> value
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []  # frames: [span_id, child_seconds]
        self._next_id = 0

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[self.phase][key] += value

    def maximum(self, key: str, value: float) -> None:
        c = self.counts[self.phase]
        c[key] = max(c[key], value)

    def _open(self, name: str):
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: list, parent: int, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        if stack:
            stack[-1][1] += dur
        a = self.agg[self.phase][name]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[1]
        if len(self.spans) < self.max_spans:
            self.spans.append((frame[0], parent, self.op, self.phase, name, t0, t1))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, pre=None, post=None):
        """Wrap ``fn`` so each call records a span called ``name``.

        ``pre(args, kwargs)`` may return replacement arguments (used to
        count calls of a callback); ``post(args, result)`` runs after the
        span has closed and returns the value handed to the caller.
        """

        def traced(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            frame, parent = self._open(name)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(name + ".raised")
                raise
            finally:
                self._close(name, frame, parent, t0, _now())
            return post(args, result) if post is not None else result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        frame, parent = self._open(name)
        t0 = _now()
        try:
            yield
        finally:
            self._close(name, frame, parent, t0, _now())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,op,phase,name,start_s,end_s\n")
            for sid, parent, op, phase, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{op},{phase},{name},{t0!r},{t1!r}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} further spans kept only in the aggregates\n")


@contextlib.contextmanager
def instrument(tracer: Tracer, pwsint):
    """Patch the pwsint layers with span wrappers; restore on exit."""
    engine, cli, oracles = pwsint.engine, pwsint.cli, pwsint.oracles
    T = tracer
    wrap = T.wrap

    def traced_system(sys_):
        surface = dataclasses.replace(sys_.surface, g=wrap("model.g", sys_.surface.g))
        return dataclasses.replace(
            sys_, surface=surface,
            f_minus=wrap("model.field", sys_.f_minus),
            f_plus=wrap("model.field", sys_.f_plus))

    def traced_dvf(dvf):
        return dataclasses.replace(dvf, evaluate=wrap("schemes.evaluate", dvf.evaluate))

    def after_make_system(args, sys_):
        return traced_system(sys_)

    def after_scheme(args, dvf):
        return traced_dvf(dvf)

    def after_integrate(args, traj):
        T.count("engine.integrate.steps", len(traj.times) - 1)
        T.count("engine.events", len(traj.events))
        return traj

    def after_fixed_point(args, res):
        its = res[1].iterations
        T.count("solvers.fixed_point.iters", its)
        T.maximum("solvers.fixed_point.iters_max", its)
        return res

    def after_locate(args, ev):
        if ev.stats_locate is not None:
            T.count("engine.locate_crossing.phi_evals", ev.stats_locate.iterations)
        return ev

    def before_bracket(args, kwargs):
        phi = args[0]

        def counted(t):
            T.count("solvers.bracketed_root.evals")
            return phi(t)

        return (counted,) + tuple(args[1:]), kwargs

    def before_write_csv(args, kwargs):
        path, header, rows = args[0], args[1], args[2]

        def counted():
            for row in rows:
                T.count("cli.write_csv.rows")
                yield row

        return (path, header, counted()) + tuple(args[3:]), kwargs

    def after_write_csv(args, res):
        T.count("cli.write_csv.bytes", os.path.getsize(args[0]))
        return res

    def after_series(args, errs):
        T.count("diagnostics.conserved_error_series.samples", len(errs))
        return errs

    def after_reference(args, res):
        T.count("oracles.reference_trajectory.steps", len(res[0].times) - 1)
        return res

    # (owner, attribute, span name, pre, post)
    targets = [
        (pwsint, "make_system", "systems.make_system", None, after_make_system),
        (cli, "make_system", "systems.make_system", None, after_make_system),
        (pwsint, "resolve_scheme", "schemes.resolve_scheme", None, after_scheme),
        (cli, "resolve_scheme", "schemes.resolve_scheme", None, after_scheme),
        (oracles, "rk4_dvf", "schemes.rk4_dvf", None, after_scheme),
        (pwsint, "integrate", "engine.integrate", None, after_integrate),
        (cli, "integrate", "engine.integrate", None, after_integrate),
        (oracles, "integrate", "engine.integrate", None, after_integrate),
        (engine, "locate_crossing", "engine.locate_crossing", None, after_locate),
        (engine, "side_of", "model.side_of", None, None),
        (engine, "classify_interface_point", "model.classify_interface_point", None, None),
        (engine, "fixed_point", "solvers.fixed_point", None, after_fixed_point),
        (engine, "newton", "solvers.newton", None, None),
        (engine, "bracketed_root", "solvers.bracketed_root", before_bracket, None),
        (engine.Trajectory, "segment_at", "engine.Trajectory.segment_at", None, None),
        (cli, "write_csv", "cli.write_csv", before_write_csv, after_write_csv),
        (cli, "conserved_error_series", "diagnostics.conserved_error_series",
         None, after_series),
        (pwsint, "conserved_error_series", "diagnostics.conserved_error_series",
         None, after_series),
        (cli, "reference_trajectory", "oracles.reference_trajectory", None, after_reference),
        (cli, "harmonic_oracle", "oracles.harmonic_oracle", None, None),
        (pwsint, "harmonic_oracle", "oracles.harmonic_oracle", None, None),
    ]
    saved = []
    try:
        for owner, attr, name, pre, post in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(name, original, pre, post))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
