import math

import numpy as np
import pytest

from pwsint import (
    Classification,
    ConservedSet,
    PwsSystem,
    RegionSide,
    SwitchingSurface,
    classify_interface_point,
    field_for_side,
    make_system,
    side_of,
)
from pwsint.errors import ConfigError, DegenerateTangency, EvaluationError

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

    def test_invariant_under_positive_rescaling(self, harmonic):
        scaled_surface = SwitchingSurface(g=lambda x: 2.0 * x[..., 1],
                                          grad_g=lambda x: np.array([0.0, 2.0]),
                                          hess_g=lambda x: np.zeros((2, 2)))
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
    def test_hessian_symmetry_guard(self):
        surface = SwitchingSurface(g=lambda x: x[1], grad_g=lambda x: np.array([0.0, 1.0]),
                                   hess_g=lambda x: np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(EvaluationError):
            surface.hessian(np.zeros(2))

    def test_stack_values_of_catalog_surfaces(self, harmonic, elliptic):
        states = np.array([[1.0, 2.0], [-0.5, 0.25], [0.0, -3.0]])
        for sys_ in (harmonic, elliptic):
            want = [sys_.surface.value(x) for x in states]
            assert sys_.surface.stack_values(states).tolist() == want

    @pytest.mark.parametrize("g", [
        lambda x: x[1],                              # indexes the first axis
        lambda x: x[1] if x.ndim == 1 else np.zeros(len(x)),  # right shape, wrong values
    ])
    def test_non_broadcasting_g_raises(self, g):
        surface = SwitchingSurface(g=g, grad_g=lambda x: np.array([0.0, 1.0]))
        with pytest.raises(EvaluationError):
            surface.stack_values(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))

    def test_non_finite_g_on_stack_raises(self, harmonic):
        with pytest.raises(EvaluationError):
            harmonic.surface.stack_values(np.array([[1.0, 2.0], [0.0, math.inf]]))

    def test_conserved_rank_check(self):
        cs = ConservedSet(psi=lambda x: np.array([x[0] * 0.0]),
                          grad_psi=lambda x: np.array([[0.0, 0.0]]),
                          d_psi=1)
        with pytest.raises(EvaluationError):
            cs.check_rank(np.array([1.0, 1.0]))

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

    def test_elliptic_conserved_values(self, elliptic):
        # psi_plus = y^2 - x^3 + 2x is 0 at (-1, -1)
        v = elliptic.conserved_plus.values(np.array([-1.0, -1.0]))
        np.testing.assert_allclose(v, [0.0], atol=1e-15)
