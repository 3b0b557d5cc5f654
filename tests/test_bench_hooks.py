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
