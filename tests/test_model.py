import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

from pwsint import (
    Classification,
    ConservedSet,
    EllipticOracle,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    classify_interface_point,
    elliptic_dmm_dvf,
    field_for_side,
    harmonic_oracle,
    make_system,
    resolve_scheme,
    side_of,
)
from pwsint.errors import ConfigError, DegenerateTangency, EvaluationError
from pwsint.systems import SYSTEMS

SQRT2 = math.sqrt(2.0)


def constant_field_system(fy_minus: float, fy_plus: float) -> PwsSystem:
    """g = y with vertical constant fields; x is conserved on both sides."""
    conserved = ConservedSet(psi=lambda x: np.array([x[..., 0]]),
                             grad_psi=lambda x: np.array([[1.0, 0.0]]),
                             d_psi=1)
    surface = SwitchingSurface(g=lambda x: x[..., 1],
                               grad_g=lambda x: np.array([0.0, 1.0]))
    return PwsSystem(dim=2,
                     f_minus=lambda t, x: np.array([0.0, fy_minus]),
                     f_plus=lambda t, x: np.array([0.0, fy_plus]),
                     surface=surface,
                     conserved_minus=conserved, conserved_plus=conserved)


class TestSideOf:
    def test_plus_for_line(self, harmonic):
        assert side_of(harmonic.surface, np.array([1.0, 1.0])) is RegionSide.PLUS

    def test_plus_outside_circle(self, elliptic):
        # g = x^2 + y^2 - 1 = 1 at (-1, -1)
        assert side_of(elliptic.surface, np.array([-1.0, -1.0])) is RegionSide.PLUS

    def test_on_surface_at_crossing_point(self, harmonic):
        assert side_of(harmonic.surface, np.array([SQRT2, 0.0])) is RegionSide.ON_SURFACE

    def test_minus(self, harmonic):
        assert side_of(harmonic.surface, np.array([0.0, -0.5])) is RegionSide.MINUS

    def test_band_width(self, harmonic):
        tol = harmonic.surface.on_surface_tol
        assert side_of(harmonic.surface, np.array([0.0, 0.5 * tol])) is RegionSide.ON_SURFACE
        assert side_of(harmonic.surface, np.array([0.0, 2.0 * tol])) is RegionSide.PLUS

    def test_nonfinite_g_rejected(self, harmonic):
        with pytest.raises(EvaluationError):
            side_of(harmonic.surface, np.array([0.0, math.nan]))

    def test_vanishing_gradient_on_surface_rejected(self):
        surface = SwitchingSurface(g=lambda x: x[1] ** 3,
                                   grad_g=lambda x: np.array([0.0, 3.0 * x[1] ** 2]))
        with pytest.raises(EvaluationError):
            side_of(surface, np.array([1.0, 0.0]))

    def test_gradient_checks_that_it_does_not_vanish(self):
        surface = SwitchingSurface(g=lambda x: x[1] ** 3,
                                   grad_g=lambda x: np.array([0.0, 3.0 * x[1] ** 2]))
        with pytest.raises(EvaluationError, match="grad g vanishes on the surface"):
            surface.gradient(np.array([1.0, 0.0]))
        np.testing.assert_array_equal(surface.gradient(np.array([1.0, 1.0])), [0.0, 3.0])


class TestFieldForSide:
    def test_harmonic_plus(self, harmonic):
        got = field_for_side(harmonic, RegionSide.PLUS, 0.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(got, [1.0, -1.0])

    def test_harmonic_minus(self, harmonic):
        got = field_for_side(harmonic, RegionSide.MINUS, 0.0, np.array([1.0, 1.0]))
        np.testing.assert_allclose(got, [1.0, -3.0])

    def test_elliptic_minus(self, elliptic):
        got = field_for_side(elliptic, RegionSide.MINUS, 0.0, np.array([-1.0, -1.0]))
        np.testing.assert_allclose(got, [-2.0, 0.0])

    def test_on_surface_is_caller_error(self, harmonic):
        with pytest.raises(ValueError):
            field_for_side(harmonic, RegionSide.ON_SURFACE, 0.0, np.array([1.0, 0.0]))


class TestClassify:
    def test_harmonic_down_crossing(self, harmonic):
        info = classify_interface_point(harmonic, np.array([SQRT2, 0.0]))
        assert info.kind is Classification.TRANSVERSAL_DOWN
        assert math.isclose(info.a_minus, -3.0 * SQRT2, rel_tol=1e-14)
        assert math.isclose(info.a_plus, -SQRT2, rel_tol=1e-14)
        assert math.isclose(info.alpha_sq_hat, SQRT2, rel_tol=1e-14)

    def test_harmonic_up_crossing(self, harmonic):
        info = classify_interface_point(harmonic, np.array([-SQRT2, 0.0]))
        assert info.kind is Classification.TRANSVERSAL_UP

    def test_sliding(self):
        sys_ = constant_field_system(fy_minus=1.0, fy_plus=-1.0)
        info = classify_interface_point(sys_, np.array([0.0, 0.0]))
        assert info.kind is Classification.SLIDING

    def test_repelling(self):
        sys_ = constant_field_system(fy_minus=-1.0, fy_plus=1.0)
        info = classify_interface_point(sys_, np.array([0.0, 0.0]))
        assert info.kind is Classification.REPELLING

    def test_degenerate_tangency(self):
        conserved = ConservedSet(psi=lambda x: np.array([x[..., 1]]),
                                 grad_psi=lambda x: np.array([[0.0, 1.0]]),
                                 d_psi=1)
        surface = SwitchingSurface(g=lambda x: x[..., 1],
                                   grad_g=lambda x: np.array([0.0, 1.0]))
        sys_ = PwsSystem(dim=2,
                         f_minus=lambda t, x: np.array([1.0, 0.0]),  # tangent to S
                         f_plus=lambda t, x: np.array([1.0, 0.0]),
                         surface=surface,
                         conserved_minus=conserved, conserved_plus=conserved)
        with pytest.raises(DegenerateTangency):
            classify_interface_point(sys_, np.array([0.0, 0.0]))

    def test_off_surface_rejected(self, harmonic):
        with pytest.raises(ValueError):
            classify_interface_point(harmonic, np.array([1.0, 1.0]))

    def test_residual_widens_the_band(self, harmonic):
        # A point is accepted only within the on-surface band.
        x = np.array([SQRT2, 5.0 * harmonic.surface.on_surface_tol])
        with pytest.raises(ValueError):
            classify_interface_point(harmonic, x)

    def test_gradient_evaluated_once(self, harmonic):
        calls = []

        def counting_grad_g(x):
            calls.append(x)
            return harmonic.surface.grad_g(x)

        surface = dataclasses.replace(harmonic.surface, grad_g=counting_grad_g)
        counted = dataclasses.replace(harmonic, surface=surface)
        classify_interface_point(counted, np.array([SQRT2, 0.0]))
        assert len(calls) == 1

    def test_errors_name_the_failing_part(self):
        # The products decide the common case; a non-finite or zero one
        # falls back to the array checks, which raise the same errors, in
        # the same order, as checking each array first.
        x = np.array([0.0, 0.0])
        xr = repr(x)
        nan_field = lambda t, x: np.array([math.nan, 1.0])
        one = lambda t, x: np.array([0.0, 1.0])
        cases = [
            (lambda x: np.array([math.inf, 1.0]), one, one,
             EvaluationError, f"grad g is not finite at x={xr}"),
            (lambda x: np.array([0.0, 0.0]), one, one,
             EvaluationError, f"grad g vanishes on the surface at x={xr}"),
            # Squares that underflow: the norm is 0 although the products
            # with large fields are not.
            (lambda x: np.array([0.0, 1e-170]), lambda t, x: np.array([0.0, 1e200]),
             lambda t, x: np.array([0.0, 1e200]),
             EvaluationError, f"grad g vanishes on the surface at x={xr}"),
            (lambda x: np.array([0.0, 1.0]), nan_field, one,
             EvaluationError, f"field for side minus not finite at x={xr}"),
            (lambda x: np.array([0.0, 1.0]), one, nan_field,
             EvaluationError, f"field for side plus not finite at x={xr}"),
            (lambda x: np.array([0.0, 1.0]), lambda t, x: np.array([1.0, 0.0]), one,
             DegenerateTangency,
             f"transversality fails at x={xr}: a_minus=0.000e+00, a_plus=1.000e+00"),
        ]
        conserved = ConservedSet(psi=lambda x: np.array([x[..., 0]]),
                                 grad_psi=lambda x: np.array([[1.0, 0.0]]), d_psi=1)
        for grad_g, f_minus, f_plus, error, text in cases:
            sys_ = PwsSystem(dim=2, f_minus=f_minus, f_plus=f_plus,
                             surface=SwitchingSurface(g=lambda x: x[..., 1], grad_g=grad_g),
                             conserved_minus=conserved, conserved_plus=conserved)
            with pytest.raises(error) as info:
                classify_interface_point(sys_, x)
            assert str(info.value) == text

    def test_known_g_is_not_evaluated_again(self, harmonic):
        calls = []

        def counting_g(x):
            calls.append(x)
            return harmonic.surface.g(x)

        surface = dataclasses.replace(harmonic.surface, g=counting_g)
        counted = dataclasses.replace(harmonic, surface=surface)
        x = np.array([SQRT2, 0.0])
        assert (classify_interface_point(counted, x, gv=0.0)
                == classify_interface_point(harmonic, x))
        assert calls == []

    def test_invariant_under_positive_rescaling(self, harmonic):
        scaled_surface = SwitchingSurface(g=lambda x: 2.0 * x[..., 1],
                                          grad_g=lambda x: np.array([0.0, 2.0]))
        scaled = PwsSystem(dim=2, f_minus=harmonic.f_minus, f_plus=harmonic.f_plus,
                           surface=scaled_surface,
                           conserved_minus=harmonic.conserved_minus,
                           conserved_plus=harmonic.conserved_plus)
        a = classify_interface_point(harmonic, np.array([SQRT2, 0.0]))
        b = classify_interface_point(scaled, np.array([SQRT2, 0.0]))
        assert a.kind is b.kind
        assert math.isclose(b.a_minus, 2.0 * a.a_minus, rel_tol=1e-14)

    @pytest.mark.parametrize("x_point,expect_up", [(-SQRT2, True), (SQRT2, False)])
    def test_classification_matches_euler_microstep(self, harmonic, x_point, expect_up):
        # A 1e-8 explicit Euler step with either field must move g in the
        # direction the classification promises.
        x = np.array([x_point, 0.0])
        info = classify_interface_point(harmonic, x)
        assert (info.kind is Classification.TRANSVERSAL_UP) == expect_up
        for side in (RegionSide.MINUS, RegionSide.PLUS):
            moved = x + 1e-8 * field_for_side(harmonic, side, 0.0, x)
            g_after = harmonic.surface.value(moved)
            assert (g_after > 0) == expect_up


class TestTypesAndCatalog:
    def test_stack_values_of_catalog_surfaces(self):
        # The CLI trajectory writer takes g on stacks unchecked: every
        # catalog g must give row i of a stack the bits of row i alone.
        rng = np.random.default_rng(3)
        for name, spec in SYSTEMS.items():
            sys_ = spec.factory()
            for n in (1, sys_.dim, sys_.dim + 1, 50):
                states = (rng.standard_normal((n, sys_.dim))
                          * rng.choice([1e-3, 1.0, 1e3], (n, 1)))
                got = np.asarray(sys_.surface.g(states), dtype=float)
                assert got.shape == (n,), name
                for row, x in zip(got.tolist(), states):
                    want = sys_.surface.value(x)
                    assert np.float64(row).tobytes() == np.float64(want).tobytes(), name

    @pytest.mark.parametrize("radius", [1.0, 0.3, 7.5])
    def test_elliptic_g_matches_power_form(self, radius):
        # The catalog g squares by multiplication; it must give the bits
        # and shapes of x ** 2, on one state and on a stack, overflow too.
        surface = make_system("elliptic", radius=radius).surface
        r2 = radius * radius
        rng = np.random.default_rng(7)
        inputs = [np.array([1e200, -3.0]), np.array([[1e200, 1.0], [-2.0, 1e300]])]
        for scale in (1e-3, 1.0, 1e3):
            inputs += list(scale * rng.standard_normal((20, 2)))
            inputs += [scale * rng.standard_normal((n, 2)) for n in (1, 2, 50)]
        for x in inputs:
            with np.errstate(over="ignore"):
                got = surface.g(x)
                want = x[..., 0] ** 2 + x[..., 1] ** 2 - r2
            assert np.shape(got) == np.shape(want) == x.shape[:-1]
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("side", [RegionSide.MINUS, RegionSide.PLUS])
    def test_harmonic_field_has_the_bits_of_its_formula(self, side):
        # The catalog field computes (y, -w2 x) as one product with
        # (1, -w2); it must give the bits of the formula, sign of zero
        # and of nan included, overflow too.
        sys_ = make_system("harmonic", omega2_minus=3.0, omega2_plus=0.7)
        w2 = sys_.params[f"omega2_{side.value}"]
        entries = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]
        for a in entries:
            for b in entries:
                x = np.array([a, b])
                with np.errstate(over="ignore"):
                    got = sys_.field(side)(0.0, x)
                    want = np.array([x[1], -w2 * x[0]])
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (a, b)
                assert np.signbit(got).tolist() == np.signbit(want).tolist()

    def test_conserved_rank_check(self):
        cs = ConservedSet(psi=lambda x: np.array([x[0] * 0.0]),
                          grad_psi=lambda x: np.array([[0.0, 0.0]]),
                          d_psi=1)
        with pytest.raises(EvaluationError):
            cs.check_rank(np.array([1.0, 1.0]))

    def test_tolerances_are_fixed(self):
        assert SwitchingSurface.on_surface_tol == 1e-12
        assert ConservedSet.rank_tol == 1e-8
        with pytest.raises(TypeError):
            SwitchingSurface(g=lambda x: x[..., 1], grad_g=lambda x: np.array([0.0, 1.0]),
                             on_surface_tol=1e-6)
        with pytest.raises(TypeError):
            ConservedSet(psi=lambda x: np.array([x[..., 0]]),
                         grad_psi=lambda x: np.array([[1.0, 0.0]]), d_psi=1, rank_tol=0.0)

    def test_readme_quotes_the_tolerances(self):
        # The README's tolerance note quotes the values the classes hold.
        readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
        note = readme.read_text(encoding="utf-8").split(
            "- The geometric tolerances are fixed", 1)[1].split("\n- ", 1)[0]
        quoted = {float(v) for v in re.findall(r"\b\d+e-\d+\b", note)}
        assert quoted == {SwitchingSurface.on_surface_tol, ConservedSet.rank_tol}

    def test_d_psi_positive(self):
        with pytest.raises(ValueError):
            ConservedSet(psi=lambda x: np.array([]), grad_psi=lambda x: np.array([[]]),
                         d_psi=0)

    def test_catalog_names_and_overrides(self):
        sys_ = make_system("harmonic", omega2_minus=5.0)
        assert sys_.params["omega2_minus"] == 5.0
        got = field_for_side(sys_, RegionSide.MINUS, 0.0, np.array([1.0, 0.0]))
        np.testing.assert_allclose(got, [0.0, -5.0])
        with pytest.raises(ConfigError):
            make_system("lorenz")
        with pytest.raises(ConfigError):
            make_system("harmonic", bogus=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, param", [(name, param) for name in sorted(SYSTEMS)
                                             for param in make_system(name).params])
    def test_non_finite_parameters_are_rejected(self, name, param, value):
        # The factory names the parameter; a run would fail only where
        # a field first turns non-finite (step 785 for omega2_minus=nan).
        message = re.escape(f"system parameter {param} must be finite, got {value!r}")
        with pytest.raises(ConfigError, match=message):
            make_system(name, **{param: value})
        with pytest.raises(ConfigError, match=message):
            SYSTEMS[name].factory(**{param: value})

    @pytest.mark.parametrize("radius", [0.0, -0.0, -1.0])
    def test_non_positive_radius_is_rejected(self, radius):
        message = re.escape(f"system parameter radius must be positive, got {radius!r}")
        with pytest.raises(ConfigError, match=message):
            make_system("elliptic", radius=radius)
        with pytest.raises(ConfigError, match=message):
            SYSTEMS["elliptic"].factory(radius=radius)

    @pytest.mark.parametrize("side, param", [(RegionSide.MINUS, "a_minus"),
                                             (RegionSide.PLUS, "a_plus")])
    def test_dmm_without_its_parameter_is_config_error(self, side, param):
        params = {k: v for k, v in make_system("elliptic").params.items() if k != param}
        sys_ = dataclasses.replace(make_system("elliptic"), params=params)
        with pytest.raises(ConfigError, match=f"'dmm-elliptic' needs system parameter {param},"):
            resolve_scheme("dmm-elliptic", sys_, side)
        # The other side's parameter is still there.
        other = RegionSide.PLUS if side is RegionSide.MINUS else RegionSide.MINUS
        assert resolve_scheme("dmm-elliptic", sys_, other).name == "dmm-elliptic"

    @pytest.mark.parametrize("name, param", [("harmonic", "omega2_minus"),
                                             ("elliptic", "a_minus")])
    def test_oracle_without_its_parameters_is_config_error(self, name, param):
        spec = SYSTEMS[name]
        sys_ = dataclasses.replace(make_system(name), params={})
        message = (f"the {name} oracle needs system parameter {param}, "
                   f"missing from the params of system '{name}'")
        with pytest.raises(ConfigError, match=re.escape(message)):
            spec.oracle(sys_, spec.x0, 0.0, 1.0)

    def test_params_are_read_only(self):
        # A DMM built from a changed a while the fields keep the old one
        # would drift off the conserved set and report no level residual.
        sys_ = make_system("elliptic")
        with pytest.raises(TypeError):
            sys_.params["a_minus"] = -2.5
        assert sys_.params == {"a_minus": -3.0, "a_plus": -2.0, "radius": 1.0}

    def test_params_are_copied(self):
        given = {"a_minus": -3.0, "a_plus": -2.0, "radius": 1.0}
        sys_ = dataclasses.replace(make_system("elliptic"), params=given)
        copy = dataclasses.replace(sys_, name="copy")
        given["a_minus"] = -2.5
        assert sys_.params["a_minus"] == copy.params["a_minus"] == -3.0
        assert copy.params == sys_.params and copy.params is not sys_.params
        assert make_system("elliptic", **sys_.params).params == sys_.params

    def test_schemes_and_oracles_read_params(self):
        sys_ = make_system("elliptic", a_minus=-2.5)
        dmm = resolve_scheme("dmm-elliptic", sys_, RegionSide.MINUS)
        direct = elliptic_dmm_dvf(-2.5)
        x = np.array([0.3, -0.2])
        assert np.array_equal(dmm.march(0.0, x, 1e-2, 5), direct.march(0.0, x, 1e-2, 5))
        _, events = SYSTEMS["elliptic"].oracle(sys_, (-1.0, -1.0), 0.0, 5.0)
        exact = EllipticOracle(-2.5, -2.0, 1.0, (-1.0, -1.0), 0.0, 5.0).events
        assert [ev.t_star for ev in events] == [ev.t_star for ev in exact]
        harmonic = make_system("harmonic", omega2_minus=5.0)
        _, events = SYSTEMS["harmonic"].oracle(harmonic, (1.0, 1.0), 0.0, 5.0)
        _, exact = harmonic_oracle(5.0, 1.0, (1.0, 1.0), 0.0, 5.0)
        assert [ev.t_star for ev in events] == [ev.t_star for ev in exact]

    def test_elliptic_conserved_values(self, elliptic):
        # psi_plus = y^2 - x^3 + 2x is 0 at (-1, -1)
        v = elliptic.conserved_plus.values(np.array([-1.0, -1.0]))
        np.testing.assert_allclose(v, [0.0], atol=1e-15)


class TestRankCheck:
    @staticmethod
    def counting_svd(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls, svd

    def test_one_row_takes_its_norm(self, monkeypatch):
        # A single row's one singular value is its norm: the check gives
        # the SVD's value to rounding, raises where the SVD says so and
        # leaves numpy's SVD alone.
        calls, svd = self.counting_svd(monkeypatch)
        rng = np.random.default_rng(5)
        tol = ConservedSet.rank_tol
        for dim in (2, 3, 5):
            for scale in (1e-300, 1e-12, 3e-9, 1.0, 1e150):
                row = scale * rng.standard_normal(dim)
                want = svd(row[None, :], compute_uv=False)[-1]
                assert math.isclose(math.hypot(*row.tolist()), want, rel_tol=4e-16)
                cs = ConservedSet(psi=lambda x: np.array([0.0]),
                                  grad_psi=lambda x, row=row: np.array([row]), d_psi=1)
                if want > tol:
                    cs.check_rank(np.zeros(dim))
                    continue
                with pytest.raises(EvaluationError) as info:
                    cs.check_rank(np.zeros(dim))
                assert str(info.value).endswith(f"(smallest singular value {want:.3e})")
        assert calls == []

    def test_zero_gradient_text(self, harmonic, monkeypatch):
        # psi = (omega^2 x^2 + y^2)/2 has a zero gradient at the origin.
        calls, _ = self.counting_svd(monkeypatch)
        with pytest.raises(EvaluationError) as info:
            harmonic.conserved_plus.check_rank(np.array([0.0, 0.0]))
        assert str(info.value) == ("grad psi loses rank at x=array([0., 0.]) "
                                   "(smallest singular value 0.000e+00)")
        assert calls == []

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_row_raises(self, monkeypatch, bad):
        # An infinite entry made the SVD return nan, which passed the
        # check silently, and a nan entry made it raise numpy's untyped
        # LinAlgError; both now raise EvaluationError naming x, with no
        # SVD, while a finite row still takes its norm.
        calls, _ = self.counting_svd(monkeypatch)
        cs = ConservedSet(psi=lambda x: np.array([0.0]),
                          grad_psi=lambda x: np.array([[x[0], 1.0]]), d_psi=1)
        with pytest.raises(EvaluationError,
                           match=re.escape(f"grad psi is not finite at x={np.array([bad, 0.0])!r}")):
            cs.check_rank(np.array([bad, 0.0]))
        cs.check_rank(np.array([2.0, 0.0]))
        assert calls == []

    def test_two_invariants_take_the_svd(self, monkeypatch):
        # A free rigid body conserves |m|^2/2 and sum m_i^2/(2 I_i); their
        # gradients m and m/I are independent except where m lies along a
        # principal axis.
        inertia = np.array([1.0, 2.0, 3.0])
        cs = ConservedSet(
            psi=lambda m: np.array([0.5 * m @ m, 0.5 * m @ (m / inertia)]),
            grad_psi=lambda m: np.array([m, m / inertia]), d_psi=2)
        calls, _ = self.counting_svd(monkeypatch)
        cs.check_rank(np.array([0.3, -0.5, 0.8]))
        with pytest.raises(EvaluationError, match="grad psi loses rank"):
            cs.check_rank(np.array([0.0, 0.0, 1.3]))
        assert len(calls) == 2


class TestEllipticPsi:
    @pytest.mark.parametrize("side", [RegionSide.MINUS, RegionSide.PLUS])
    def test_stack_single_and_float_psi_agree_bit_for_bit(self, elliptic, side):
        # psi = y^2 - x^3 - a x as products of Python floats: on a stack,
        # on each state alone and in plain float arithmetic, with no
        # array power whose rounding could depend on numpy's SIMD paths.
        cs = elliptic.conserved(side)
        a = elliptic.params["a_minus" if side is RegionSide.MINUS else "a_plus"]
        rng = np.random.default_rng(17)
        states = rng.uniform(-2.0, 2.0, size=(500, 2)) * 10.0 ** rng.integers(-3, 4, size=(500, 1))
        stacked = cs.stack_values(states)
        assert stacked.shape == (1, len(states))
        for i, x in enumerate(states):
            xf, yf = x.tolist()
            want = yf * yf - xf * xf * xf - a * xf
            single = cs.values(x)
            assert single.tolist() == [want] == [stacked.item(0, i)]
