"""The benchmark's trace hooks still find every name they patch.

``bench/spans.py`` wraps module attributes of the package, looked up
with ``owner.__dict__[attr]``, for the duration of a traced run.  A
refactor that renames or drops one of them breaks the traced run with a
``KeyError``; this test catches that and checks that every attribute is
restored when the block exits.
"""

import importlib
from pathlib import Path

import pwsint
import pwsint.cli  # not imported by the package itself

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_instrument_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    owners = [pwsint, pwsint.engine, pwsint.cli, pwsint.oracles, pwsint.engine.Trajectory]
    before = [dict(vars(owner)) for owner in owners]

    with spans.instrument(spans.Tracer(), pwsint):
        assert pwsint.engine.fixed_point is not before[1]["fixed_point"]
        assert pwsint.cli.write_csv is not before[2]["write_csv"]

    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys(), owner
        changed = [k for k in saved if after[k] is not saved[k]]
        assert not changed, (owner, changed)


def test_traced_run_sees_the_engine_layers(monkeypatch):
    # The engine looks these names up at call time; a loop that bound
    # them once would bypass the wrappers and zero the per-layer figures.
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    with spans.instrument(tracer, pwsint):
        sys_ = pwsint.make_system("harmonic")
        minus, plus = (pwsint.resolve_scheme("dmm-midpoint", sys_, side)
                       for side in (pwsint.RegionSide.MINUS, pwsint.RegionSide.PLUS))
        traj = pwsint.integrate(sys_, minus, plus, [1.0, 1.0], 0.0, 3.0, 1e-2)
    assert len(traj.events) == 2
    steps = len(traj.times) - 1
    # Fewest calls each layer makes: one per step, or one per crossing.
    fewest = {"model.side_of": steps, "solvers.fixed_point": steps,
              "engine.locate_crossing": 2, "model.classify_interface_point": 2,
              "solvers.bracketed_root": 2}
    body = tracer.agg["body"]
    for name, n in fewest.items():
        assert body[name][0] >= n, name
