"""The package's public surface: its export list and the README's quick start."""

import contextlib
import io
import math
import pathlib
import re

import pwsint

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves_once():
    assert len(set(pwsint.__all__)) == len(pwsint.__all__)
    missing = [name for name in pwsint.__all__ if not hasattr(pwsint, name)]
    assert missing == []


def test_readme_quick_start_runs_and_prints_what_its_comments_say():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README quick start", "exec"), {"__name__": "__main__"})
    crossings, t_hat, drift, t_err = out.getvalue().splitlines()
    assert crossings == "4 crossings"
    assert abs(float(t_hat) - math.pi / 4) < 1e-5
    assert float(drift) < 1e-13
    assert math.isclose(float(t_err), abs(float(t_hat) - math.pi / 4), rel_tol=1e-6)
