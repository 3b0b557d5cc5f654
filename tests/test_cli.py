import csv
import dataclasses
import inspect
import math
import pathlib
import warnings

import numpy as np
import pytest

from pwsint import cli, classify_interface_point, conserved_error_series, integrate
from pwsint.cli import build_config, main, parse_kv_file
from pwsint.errors import ConfigError
from pwsint.systems import SYSTEMS


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def per_cell_lines(rows):
    """Rows formatted a cell at a time: ``fmt`` for floats, ``str`` for the rest."""
    return [",".join(cli.fmt(v) if isinstance(v, float) else str(v) for v in row)
            for row in rows]


def data_lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_kv_file_with_comments(self, tmp_path):
        path = write_config(tmp_path, """
# comment line
system=harmonic
tau = 5e-3   # trailing comment
system.omega2_minus=3.5
""")
        kv = parse_kv_file(path)
        assert kv == {"system": "harmonic", "tau": "5e-3", "system.omega2_minus": "3.5"}

    def test_bad_line_rejected(self, tmp_path):
        path = write_config(tmp_path, "this is not a key value pair\n")
        from pwsint.errors import ConfigError
        with pytest.raises(ConfigError):
            parse_kv_file(path)

    def test_defaults_per_system(self):
        cfg = build_config({})
        assert cfg.system.name == "harmonic"
        assert cfg.x0 == (1.0, 1.0)
        assert cfg.scheme_minus_name == "dmm-midpoint"
        cfg = build_config({"system": "elliptic"})
        assert cfg.x0 == (-1.0, -1.0)
        assert cfg.scheme_minus_name == "dmm-elliptic"

    def test_system_parameter_overrides(self):
        cfg = build_config({"system.omega2_minus": "5.0"})
        assert cfg.system.params["omega2_minus"] == 5.0
        cfg = build_config({"system": "elliptic", "system.radius": "2.0"})
        assert cfg.system.params["radius"] == 2.0

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("system,param", [("harmonic", "omega2_minus"),
                                              ("harmonic", "omega2_plus"),
                                              ("elliptic", "a_minus"),
                                              ("elliptic", "a_plus"),
                                              ("elliptic", "radius")])
    def test_non_finite_system_parameter_is_config_error(self, tmp_path, capsys,
                                                         system, param, value):
        key = f"system.{param}"
        # The factory's check, the one check of system parameters.
        message = f"system parameter {param} must be finite"
        with pytest.raises(ConfigError, match=message):
            build_config({"system": system, key: value})
        for command in ("integrate", "sweep", "conserve", "classify"):
            rc = main([command, "--out", str(tmp_path / "m"), "--set", f"system={system}",
                       "--set", f"{key}={value}", "--set", "T=0.5",
                       "--set", "taus=0.04,0.02,0.01", "--set", "points=1,0"])
            assert rc == 2
            assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["0", "-0", "-1"])
    def test_non_positive_radius_is_config_error(self, tmp_path, capsys, value):
        with pytest.raises(ConfigError, match="radius must be positive"):
            build_config({"system": "elliptic", "system.radius": value})
        for command in ("integrate", "sweep", "conserve", "classify"):
            rc = main([command, "--out", str(tmp_path / "m"), "--set", "system=elliptic",
                       "--set", f"system.radius={value}", "--set", "T=0.5",
                       "--set", "taus=0.04,0.02,0.01", "--set", "points=1,0"])
            assert rc == 2
            assert "radius must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_mixed_schemes_per_region(self):
        cfg = build_config({"scheme.minus": "rk2", "scheme.plus": "dmm-midpoint"})
        mn, pl = cfg.schemes()
        assert mn.name == "rk2" and not mn.is_implicit
        assert pl.name == "dmm-midpoint" and pl.is_implicit

    @pytest.mark.parametrize("key,value", [("tua", "0.5"),
                                           ("system.omega2_minsu", "9"),
                                           ("seed", "0"),
                                           ("solver.fp_max_iter", "7"),
                                           ("solver.fp_tol", "1e-13"),
                                           ("solver.root_tol_t", "1e-10"),
                                           ("max_crossings_per_step", "0"),
                                           ("max_events", "5")])
    def test_unknown_key_rejected(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=key.split(".")[-1]):
            build_config({key: value})
        rc = main(["integrate", "--out", str(tmp_path / "u"), "--set", f"{key}={value}"])
        assert rc == 2

    @pytest.mark.parametrize("setting", ["x0=1", "x0=1,1,1", "x0=nan,1", "T=nan",
                                         "tau=nan", "t0=nan", "tau=inf",
                                         "tau=0", "tau=-1e-3", "t0=2",
                                         "taus=nan,1e-2,5e-3", "taus=2e-2,0,5e-3",
                                         "taus=1e-2,1e-2,1e-2", "taus=2e-2,0.01,1e-2",
                                         "events_after=0", "events_after=10,-1",
                                         "perturbation.c=5", "perturbation.p=-1000"])
    def test_malformed_run_input_is_config_error(self, tmp_path, setting):
        rc = main(["integrate", "--out", str(tmp_path / "m"), "--set", "T=1",
                   "--set", setting])
        assert rc == 2
        assert not (tmp_path / "m_trajectory.csv").exists()
        key, value = setting.split("=", 1)
        if key in ("x0", "t0", "T", "tau", "perturbation.p"):
            # integrate takes these too, and rejects them with the same text.
            with pytest.raises(ConfigError) as cli_error:
                build_config({"T": "1", key: value})
            run = {"x0": [1.0, 1.0], "t0": 0.0, "T": 1.0, "tau": 1e-3}
            perturbation = None
            if key == "perturbation.p":
                perturbation = (1.0, float(value))
            else:
                run[key] = [float(v) for v in value.split(",")] if key == "x0" else float(value)
            cfg = build_config({})
            with pytest.raises(ConfigError) as lib_error:
                integrate(cfg.system, *cfg.schemes(), run["x0"], run["t0"], run["T"],
                          run["tau"], perturbation=perturbation)
            assert str(lib_error.value) == str(cli_error.value)

    @pytest.mark.parametrize("c,p", [("1", "nan"), ("nan", "2"), ("1", "inf"),
                                     ("inf", "2"), ("-inf", "2")])
    def test_non_finite_perturbation_is_config_error(self, tmp_path, c, p):
        rc = main(["integrate", "--out", str(tmp_path / "m"), "--set", "T=1",
                   "--set", f"perturbation.c={c}", "--set", f"perturbation.p={p}"])
        assert rc == 2
        assert not (tmp_path / "m_trajectory.csv").exists()
        # integrate rejects it with the same text.
        with pytest.raises(ConfigError) as cli_error:
            build_config({"perturbation.c": c, "perturbation.p": p})
        cfg = build_config({})
        with pytest.raises(ConfigError) as lib_error:
            integrate(cfg.system, *cfg.schemes(), cfg.x0, 0.0, 1.0, 1e-3,
                      perturbation=(float(c), float(p)))
        assert str(lib_error.value) == str(cli_error.value)

    @pytest.mark.parametrize("command", ["integrate", "sweep", "conserve", "classify"])
    @pytest.mark.parametrize("points", ["garbage", "1,0;1,2,3", "nan,0", "1,0;-inf,0"])
    def test_malformed_points_are_config_error(self, tmp_path, command, points):
        with pytest.raises(ConfigError, match="point"):
            build_config({"points": points})
        rc = main([command, "--out", str(tmp_path / "m"), "--set", "T=1",
                   "--set", "taus=4e-2,2e-2,1e-2", "--set", f"points={points}"])
        assert rc == 2
        assert not list(tmp_path.iterdir())

    def test_point_flag_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--out", str(tmp_path / "k"), "--point=1,0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --point=1,0" in capsys.readouterr().err

    def test_bad_scheme_is_config_error(self):
        from pwsint.errors import ConfigError
        with pytest.raises(ConfigError):
            build_config({"scheme.minus": "euler"})

    def test_readme_lists_every_key(self):
        # The README's configuration block names each key once, as
        # "key=default" or "key=example".
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("\n```\nsystem=", 1)[1]
        block = "system=" + block.split("\n```", 1)[0]
        keys = [line.split("=", 1)[0] for line in block.splitlines()
                if line and not line[0].isspace()]
        assert len(keys) == len(set(keys))
        assert {k for k in keys if not k.startswith("system.")} == cli._KEYS
        params = {f"system.{name}" for spec in SYSTEMS.values()
                  for name in inspect.signature(spec.factory).parameters}
        assert {k for k in keys if k.startswith("system.")} == params


class TestIntegrateCommand:
    def test_default_harmonic_run(self, tmp_path):
        out = str(tmp_path / "h")
        rc = main(["integrate", "--out", out])
        assert rc == 0
        header, rows = read_csv(f"{out}_trajectory.csv")
        assert header == ["step", "t", "x_1", "x_2", "g", "side", "psi_1", "psi_error"]
        assert len(rows) == 10001  # T=10, tau=1e-3: samples 0..10000
        ev_header, ev_rows = read_csv(f"{out}_events.csv")
        assert ev_header[:4] == ["index", "t_hat", "x_hat_1", "x_hat_2"]
        assert len(ev_rows) == 4
        assert math.isclose(float(ev_rows[0][1]), 0.7853982, abs_tol=1e-5)
        sides = [(r[4], r[5]) for r in ev_rows]
        assert sides[0] == ("plus", "minus")

    def test_elliptic_run_event_residuals(self, tmp_path):
        out = str(tmp_path / "e")
        rc = main(["integrate", "--out", out, "--set", "system=elliptic",
                   "--set", "T=4"])
        assert rc == 0
        _, ev_rows = read_csv(f"{out}_events.csv")
        assert len(ev_rows) >= 3
        for row in ev_rows:
            assert abs(float(row[6])) <= 1e-12  # residual_g column

    def test_trajectory_rows_match_per_sample_formatting(self, tmp_path):
        # The writer evaluates g and psi on chunks of stacked states; the
        # per-sample loop it replaced is the reference, to the byte.
        out = str(tmp_path / "e")
        settings = {"system": "elliptic", "T": "4"}
        argv = [a for k, v in settings.items() for a in ("--set", f"{k}={v}")]
        assert main(["integrate", "--out", out] + argv) == 0
        config = build_config(settings)
        traj = cli._run(config)
        sys_ = config.system
        psi_err = conserved_error_series(traj, sys_)
        want = []
        for seg, lo, hi in traj.segment_blocks():
            for k in range(lo, hi):
                x = traj.states[k]
                row = ([k, float(traj.times[k])] + [float(v) for v in x]
                       + [sys_.surface.value(x), seg.side.value]
                       + [float(v) for v in sys_.conserved(seg.side).values(x)]
                       + [float(psi_err[k])])
                want.append(",".join(cli.fmt(v) if isinstance(v, float) else str(v)
                                     for v in row))
        with open(f"{out}_trajectory.csv", encoding="utf-8") as fh:
            got = fh.read().splitlines()[1:]
        assert len(traj.region_segments) >= 4 and len(want) > 3 * cli._WRITE_CHUNK
        assert got == want

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_g_column_is_the_single_state_value(self, tmp_path, name):
        # The writer evaluates g on stacks without a check of its own: each
        # row must still carry the g of its state alone.
        out = str(tmp_path / name)
        assert main(["integrate", "--out", out, "--set", f"system={name}",
                     "--set", "T=2"]) == 0
        header, rows = read_csv(f"{out}_trajectory.csv")
        surface = SYSTEMS[name].factory().surface
        xs = [header.index("x_1"), header.index("x_2")]
        col = header.index("g")
        assert len({row[header.index("side")] for row in rows}) == 2
        assert len(rows) > 3 * cli._WRITE_CHUNK
        for row in rows:
            x = np.array([float(row[i]) for i in xs])
            assert float(row[col]) == surface.value(x), row

    def test_event_rows_match_per_cell_formatting(self, tmp_path):
        out = str(tmp_path / "e")
        settings = {"system": "elliptic", "T": "10", "tau": "1e-2", "perturbation.p": "2"}
        argv = [a for k, v in settings.items() for a in ("--set", f"{k}={v}")]
        assert main(["integrate", "--out", out] + argv) == 0
        traj = cli._run(build_config(settings))
        rows = [[i, ev.t_hat] + [float(v) for v in ev.x_hat]
                + [ev.side_from.value, ev.side_to.value, ev.residual_g,
                   ev.psi_level_residual, ev.stats_locate.iterations,
                   ev.stats_complete.iterations, ev.perturbation_applied]
                for i, ev in enumerate(traj.events)]
        assert len(rows) == 10
        assert data_lines(f"{out}_events.csv") == per_cell_lines(rows)

    def test_zero_crossing_run_empty_events(self, tmp_path):
        out = str(tmp_path / "z")
        rc = main(["integrate", "--out", out, "--set", "x0=0.1,0.1",
                   "--set", "T=0.5"])
        assert rc == 0
        _, ev_rows = read_csv(f"{out}_events.csv")
        assert ev_rows == []

    def test_float_fields_roundtrip(self, tmp_path):
        out = str(tmp_path / "r")
        main(["integrate", "--out", out, "--set", "T=1"])
        _, rows = read_csv(f"{out}_trajectory.csv")
        # 17 significant digits survive parse -> format round trip
        for row in rows[:50]:
            for v in (row[2], row[3]):
                assert f"{float(v):.17g}" == v

    def test_deterministic_output(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["integrate", "--out", out1, "--set", "T=2"])
        main(["integrate", "--out", out2, "--set", "T=2"])
        a = open(f"{out1}_trajectory.csv", "rb").read()
        b = open(f"{out2}_trajectory.csv", "rb").read()
        assert a == b


class TestSweepCommands:
    def test_harmonic_sweep_slopes(self, tmp_path):
        out = str(tmp_path / "s")
        rc = main(["sweep", "--out", out,
                   "--set", "taus=4e-2,2e-2,1e-2,5e-3",
                   "--set", "T=12", "--set", "events_after=1,2,3"])
        assert rc == 0
        header, rows = read_csv(f"{out}_order.csv")
        assert header[0] == "kind"
        data = [r for r in rows if r[0] == "data"]
        assert len(data) == 4
        slope = next(r for r in rows if r[0] == "slope")
        # final-state error and each per-event time error scale as tau^2
        for col in range(3, 7):
            assert abs(float(slope[col]) - 2.0) < 0.3
        r2 = next(r for r in rows if r[0] == "r_squared")
        assert float(r2[3]) > 0.99

    ELLIPTIC_SWEEP = ["--set", "system=elliptic", "--set", "taus=4e-2,2e-2,1e-2",
                      "--set", "T=2", "--set", "events_after=1,2"]

    def test_elliptic_sweep_ignores_tau_ref(self, tmp_path):
        # The reference is the exact oracle; tau_ref, far too coarse for
        # an RK4 reference run, is accepted and changes nothing.
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        assert main(["sweep", "--out", outs[0]] + self.ELLIPTIC_SWEEP) == 0
        assert main(["sweep", "--out", outs[1], "--set", "tau_ref=1e-2"]
                    + self.ELLIPTIC_SWEEP) == 0
        texts = [open(f"{o}_order.csv", encoding="utf-8").read() for o in outs]
        assert texts[0] == texts[1]
        _, rows = read_csv(f"{outs[0]}_order.csv")
        slope = next(r for r in rows if r[0] == "slope")
        for col in range(3, 6):
            assert abs(float(slope[col]) - 2.0) < 0.3

    def test_sweep_needs_three_taus(self, tmp_path):
        rc = main(["sweep", "--out", str(tmp_path / "x"),
                   "--set", "taus=1e-2,5e-3"])
        assert rc == 2

    def test_perturb_alias_runs(self, tmp_path):
        out = str(tmp_path / "p")
        rc = main(["sweep", "--out", out,
                   "--set", "taus=2e-2,1e-2,5e-3",
                   "--set", "T=6", "--set", "perturbation.p=2",
                   "--set", "events_after="])
        assert rc == 0
        _, rows = read_csv(f"{out}_order.csv")
        slope = next(r for r in rows if r[0] == "slope")
        assert abs(float(slope[3]) - 2.0) < 0.4

    def test_sweep_applies_perturbation(self, tmp_path):
        # Criterion 4's p=1 case through the CLI: a crossing shifted by
        # tau^1 brings the final-state error down to first order.
        out = str(tmp_path / "p1")
        rc = main(["sweep", "--out", out,
                   "--set", "taus=2e-2,1e-2,5e-3,2.5e-3,1.25e-3",
                   "--set", "T=20", "--set", "perturbation.p=1",
                   "--set", "events_after="])
        assert rc == 0
        _, rows = read_csv(f"{out}_order.csv")
        slope = next(r for r in rows if r[0] == "slope")
        assert abs(float(slope[3]) - 1.0) < 0.2

    def test_shift_checked_only_at_the_sweep_taus(self, tmp_path):
        # 0.04**-110 ~ 1e153 is finite; 1e-3**-110, at the unused default
        # tau, is not.
        out = str(tmp_path / "s")
        rc = main(["sweep", "--out", out, "--set", "taus=0.04,0.02,0.01",
                   "--set", "perturbation.p=-110", "--set", "T=5"])
        assert rc == 0
        _, rows = read_csv(f"{out}_order.csv")
        assert [float(r[1]) for r in rows if r[0] == "data"] == [0.04, 0.02, 0.01]

    @pytest.mark.parametrize("command, settings", [
        ("sweep", ["taus=0.04,0.02,0.001"]),
        ("integrate", ["taus=0.04,0.02,0.01"]),
        ("integrate", []),
    ])
    def test_shift_overflow_at_a_run_tau_is_exit_2(self, tmp_path, capsys,
                                                   command, settings):
        out = tmp_path / "o"
        argv = [command, "--out", str(out), "--set", "perturbation.p=-110",
                "--set", "T=5"]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: config: perturbation c, p and c * tau**p must be finite, "
            "got c=1.0, p=-110.0 at tau=0.001\n")
        assert list(tmp_path.iterdir()) == []

    def test_order_cells_read_back_through_fmt(self, tmp_path):
        # The elliptic run has 10 crossings, so the time_error_after_40
        # column and its three fits are nan.
        out = str(tmp_path / "o")
        assert main(["sweep", "--out", out, "--set", "system=elliptic",
                     "--set", "taus=0.04,0.02,0.01", "--set", "events_after=10,40"]) == 0
        header, rows = read_csv(f"{out}_order.csv")
        assert header == ["kind", "tau", "n_events", "final_state_error",
                          "time_error_after_10", "time_error_after_40"]
        assert [r[0] for r in rows] == ["data"] * 3 + ["slope", "intercept", "r_squared"]
        assert [r[1:3] for r in rows[:3]] == [[cli.fmt(t), "10"] for t in (0.04, 0.02, 0.01)]
        for row in rows:
            assert all(cli.fmt(float(c)) == c for c in row[3:] + row[1:2] if c)
            assert row[5] == "nan"
        assert [r[1:3] for r in rows[3:]] == [["", ""]] * 3

    def test_perturb_is_not_a_command(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--out", str(tmp_path / "x"),
                  "--set", "taus=1e-2,5e-3,2.5e-3", "--set", "perturbation.p=2"])
        assert exc.value.code == 2


class TestConserveCommand:
    def test_harmonic_conserve_columns(self, tmp_path):
        out = str(tmp_path / "c")
        rc = main(["conserve", "--out", out, "--set", "T=5"])
        assert rc == 0
        header, rows = read_csv(f"{out}_conserve.csv")
        assert header == ["t", "psi_error_dmm", "psi_error_rk2"]
        assert len(rows) == 5001
        dmm = max(float(r[1]) for r in rows)
        rk2 = max(float(r[2]) for r in rows)
        assert dmm <= 1e-11
        assert rk2 > 100 * dmm  # the non-conservative column visibly drifts

    def test_zero_length_run_header_only(self, tmp_path):
        out = str(tmp_path / "c0")
        rc = main(["conserve", "--out", out, "--set", "T=0"])
        assert rc == 0
        header, rows = read_csv(f"{out}_conserve.csv")
        assert header == ["t", "psi_error_dmm", "psi_error_rk2"]
        assert rows == []


    @pytest.mark.parametrize("T", ["5", "0"])
    def test_rows_match_per_cell_formatting(self, tmp_path, T):
        out = str(tmp_path / "c")
        assert main(["conserve", "--out", out, "--set", f"T={T}"]) == 0
        config = build_config({"T": T})
        rows = []
        if T != "0":
            trajs = [cli._run(dataclasses.replace(config, scheme_minus_name=name,
                                                  scheme_plus_name=name))
                     for name in ("dmm-midpoint", "rk2")]
            errs = [conserved_error_series(traj, config.system) for traj in trajs]
            rows = [[float(t), float(a), float(b)]
                    for t, a, b in zip(trajs[0].times, *errs)]
            assert len(rows) == 5001
        with open(f"{out}_conserve.csv", encoding="utf-8") as fh:
            assert fh.read().splitlines() == (["t,psi_error_dmm,psi_error_rk2"]
                                              + per_cell_lines(rows))


class TestClassifyCommand:
    def test_rows_for_surface_points(self, tmp_path):
        out = str(tmp_path / "k")
        sqrt2 = math.sqrt(2.0)
        rc = main(["classify", "--out", out,
                   "--set", f"points={sqrt2},0;-{sqrt2},0;1,1"])
        assert rc == 0
        header, rows = read_csv(f"{out}_classify.csv")
        assert header[-2:] == ["classification", "error"]
        assert rows[0][6] == "transversal_down" and rows[0][7] == ""
        assert rows[1][6] == "transversal_up"
        assert rows[2][7] != ""  # (1, 1) is not on the surface

    def test_rows_match_per_cell_formatting(self, tmp_path):
        # Two transversal points, one off the surface and one where both
        # fields vanish.
        out = str(tmp_path / "k")
        assert main(["classify", "--out", out,
                     "--set", "points=1.41,0;-1.41,0;1,1;0,0"]) == 0
        sys_ = build_config({}).system
        rows = []
        for pt, error in [((1.41, 0.0), ""), ((-1.41, 0.0), ""),
                          ((1.0, 1.0), "not_on_surface"), ((0.0, 0.0), "DegenerateTangency")]:
            x = np.asarray(pt)
            row = list(pt) + [sys_.surface.value(x)]
            if error:
                rows.append(row + ["", "", "", "", error])
                continue
            info = classify_interface_point(sys_, x)
            rows.append(row + [info.a_minus, info.a_plus, info.alpha_sq_hat,
                               info.kind.value, ""])
        assert data_lines(f"{out}_classify.csv") == per_cell_lines(rows)

    def test_classify_needs_points(self, tmp_path):
        rc = main(["classify", "--out", str(tmp_path / "k")])
        assert rc == 2

    def test_degenerate_point_is_a_row_error(self, tmp_path):
        # Both fields vanish at the origin, so neither crosses y = 0 there;
        # the failure goes to that row's error column and the next row is
        # still classified.
        out = str(tmp_path / "k")
        rc = main(["classify", "--out", out, "--set", "points=0,0;1.41,0"])
        assert rc == 0
        _, rows = read_csv(f"{out}_classify.csv")
        assert rows[0][6:] == ["", "DegenerateTangency"]
        assert rows[1][6:] == ["transversal_down", ""]

    def test_far_out_point_is_a_row_error(self, tmp_path):
        # g overflows at (1e200, 0): that point gets its own row, with g
        # written as inf, and the command neither warns nor stops.
        out = str(tmp_path / "k")
        rc = main(["classify", "--out", out, "--set", "system=elliptic",
                   "--set", "points=1,0;1e200,0"])
        assert rc == 0
        assert data_lines(f"{out}_classify.csv") == [
            "1,0,0,,,,,DegenerateTangency",
            "9.9999999999999997e+199,0,inf,,,,,EvaluationError"]


class TestExitCodes:
    def test_numerical_failure_is_exit_3(self, tmp_path):
        # initial condition on the switching surface
        rc = main(["integrate", "--out", str(tmp_path / "n"),
                   "--set", "x0=1,0", "--set", "T=1"])
        assert rc == 3

    def test_escaping_orbit_names_the_step(self, tmp_path, capsys):
        # The exact elliptic orbit from (2, 1) blows up at t = 0.8087.
        rc = main(["integrate", "--out", str(tmp_path / "e"), "--set", "system=elliptic",
                   "--set", "x0=2,1", "--set", "T=2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "step 806 at t=0.806: the step equation" in err

    @pytest.mark.parametrize("x0", ["1e155,1", "1e200,1"])
    def test_psi_that_overflows_at_x0_is_exit_3(self, tmp_path, capsys, x0):
        # Numpy's overflow warning would be a crash under -W error; the run
        # writes no CSV with psi_1=inf and psi_error=nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["integrate", "--out", str(tmp_path / "p"), "--set", f"x0={x0}",
                       "--set", "T=1"])
        assert rc == 3
        assert "step 0 at t=0.0: psi is not finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_set_without_equals_is_exit_2(self, tmp_path, capsys):
        rc = main(["integrate", "--out", str(tmp_path / "s"), "--set", "T"])
        assert rc == 2
        assert "--set expects KEY=VALUE, got 'T'" in capsys.readouterr().err

    def test_missing_config_file_is_exit_2(self, tmp_path):
        rc = main(["integrate", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "m")])
        assert rc == 2
