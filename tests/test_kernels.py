"""Tests for radial kernel construction, constants, and condition checks."""

import math

import numpy as np
import pytest
from scipy import integrate

from rednw.errors import ArgumentError
from rednw.kernels import (
    KernelProfile,
    RadialKernel,
    builtin_profile,
    make_kernel,
    second_moment,
    surface_area,
    validate_conditions,
)

BUILTINS = ("triweight_poly3", "biweight", "epanechnikov", "uniform")


def quad_integral(kernel):
    """Independent oracle: scipy adaptive quadrature of the radial integral."""
    prof = kernel.profile
    d = kernel.dim

    def integrand(s):
        val = float(np.atleast_1d(prof.raw_profile(np.array([s])))[0])
        return kernel.norm_const * val * surface_area(d) * s ** (d - 1)

    val, _ = integrate.quad(integrand, 0.0, prof.support_radius)
    return val


def mc_integral(kernel, func, n_draws, seed):
    """Monte Carlo integral of func(u) over the support cube, with its std error."""
    rng = np.random.default_rng(seed)
    r = kernel.profile.support_radius
    d = kernel.dim
    u = rng.uniform(-r, r, size=(n_draws, d))
    vals = np.array([func(row) for row in u]) * (2.0 * r) ** d
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_draws))


class TestConstants:
    def test_triweight_norm_const_closed_form(self):
        """d=1 normalization is exactly 35/32 = 1/B(1/2, 4)."""
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        assert abs(k.norm_const - 35.0 / 32.0) <= 1e-10

    def test_triweight_l2_const_closed_form(self):
        # (35/32)^2 * Integral[(1-x^2)^6, {x,-1,1}] = (35/32)^2 * B(1/2,7) = 2450/3003
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        assert abs(k.l2_const - 2450.0 / 3003.0) <= 1e-10

    def test_uniform_norm_const(self):
        k = make_kernel(builtin_profile("uniform"), 1)
        assert abs(k.norm_const - 0.5) <= 1e-12

    def test_custom_parabolic_profile_norm(self):
        """k(t) = 1 - t^2 on [0,1) normalizes with c = 3/4 in one dimension."""
        prof = KernelProfile(
            name="custom",
            raw_profile=lambda t: np.where(t < 1.0, 1.0 - t * t, 0.0),
            support_radius=1.0,
            smoothness_order=0,
        )
        k = make_kernel(prof, 1)
        assert abs(k.norm_const - 0.75) <= 1e-10

    def test_second_moment_triweight_d1(self):
        # closed form: 2*(35/32)*B(3/2,4)/2 = 1/9
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        np.testing.assert_allclose(second_moment(k), 1.0 / 9.0, atol=1e-10)

    def test_surface_area_low_dims(self):
        np.testing.assert_allclose(surface_area(1), 2.0, rtol=1e-14)
        np.testing.assert_allclose(surface_area(2), 2.0 * math.pi, rtol=1e-14)
        np.testing.assert_allclose(surface_area(3), 4.0 * math.pi, rtol=1e-14)

    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_integral_one_all_builtins(self, name, dim):
        """Quadrature normalization agrees with an independent scipy oracle."""
        k = make_kernel(builtin_profile(name), dim)
        assert abs(quad_integral(k) - 1.0) <= 1e-8

    @pytest.mark.parametrize("name", BUILTINS)
    def test_integral_one_monte_carlo_band(self, name):
        k = make_kernel(builtin_profile(name), 2)
        est, se = mc_integral(k, k.eval, n_draws=200_000, seed=1234)
        assert abs(est - 1.0) <= 3.0 * se + 1e-6

    def test_l2_const_monte_carlo_band(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 2)
        est, se = mc_integral(
            k, lambda u: k.eval(u) ** 2, n_draws=200_000, seed=99
        )
        assert abs(est - k.l2_const) <= 3.0 * se + 1e-6


class TestEval:
    def test_triweight_at_zero(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        np.testing.assert_allclose(k.eval(np.zeros(1)), 35.0 / 32.0, rtol=1e-14)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_zero_beyond_support(self, name):
        k = make_kernel(builtin_profile(name), 3)
        r = k.profile.support_radius
        u = np.array([2.0 * r, 0.0, 0.0])
        assert k.eval(u) == 0.0

    def test_rotation_invariance(self):
        """K(u) = k(|u|) gives identical values under any orthogonal map."""
        k = make_kernel(builtin_profile("triweight_poly3"), 3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            u = rng.uniform(-1.2, 1.2, size=3)
            # same norm, so exactly the same value up to rounding in the norm
            np.testing.assert_allclose(k.eval(q @ u), k.eval(u), rtol=1e-12, atol=1e-15)

    def test_dimension_mismatch_raises(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 2)
        with pytest.raises(ArgumentError):
            k.eval(np.zeros(3))

    def test_weights_match_eval_on_radii(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 2)
        t = np.array([0.0, 0.2, 0.7, 0.999, 1.0, 1.5])
        direct = np.array([k.eval(np.array([ti, 0.0])) for ti in t])
        np.testing.assert_allclose(k.weights(t), direct, rtol=1e-14)

    def test_kernel_is_immutable(self):
        k = make_kernel(builtin_profile("uniform"), 1)
        with pytest.raises(Exception):
            k.norm_const = 2.0


class TestValidation:
    def test_triweight_all_checks_pass(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 2)
        rep = validate_conditions(k)
        assert rep.all_passed
        by_name = {c.name: c for c in rep.checks}
        assert abs(by_name["k3_odd_integral"].value) <= 1e-10
        assert abs(by_name["first_moment_zero"].value) <= 1e-8
        assert abs(by_name["integral_one"].value) <= 1e-8

    def test_triweight_k4_slope_constant(self):
        # max |k'(t)|/t for k(t)=(1-t^2)^3 is 6, attained as t -> 0
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        rep = validate_conditions(k)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["k4_slope_bound"].passed
        np.testing.assert_allclose(by_name["k4_slope_bound"].value, 6.0, rtol=1e-6)

    def test_uniform_flagged_nondifferentiable(self):
        """Step-edge profiles are admitted but flagged on the smoothness checks."""
        k = make_kernel(builtin_profile("uniform"), 1)
        rep = validate_conditions(k)
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["k3_twice_differentiable"].passed
        assert not by_name["k4_slope_bound"].passed
        assert not rep.all_passed
        # the integrability checks still pass
        assert by_name["integral_one"].passed
        assert by_name["bounded"].passed

    def test_biweight_smoothness_boundary(self):
        # one continuous derivative: slope bound holds, twice-differentiable does not
        k = make_kernel(builtin_profile("biweight"), 1)
        by_name = {c.name: c for c in validate_conditions(k).checks}
        assert by_name["k4_slope_bound"].passed
        assert not by_name["k3_twice_differentiable"].passed

    def test_report_json_shape(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        d = validate_conditions(k).to_json_dict()
        assert set(d) == {"norm_const", "l2_const", "checks"}
        for entry in d["checks"]:
            assert set(entry) == {"name", "value", "pass"}


class TestRejection:
    def test_unknown_builtin_name(self):
        with pytest.raises(ArgumentError):
            builtin_profile("gaussian")

    def test_profile_not_vanishing_rejected(self):
        prof = KernelProfile(
            name="custom",
            raw_profile=lambda t: np.exp(-t),
            support_radius=1.0,
            smoothness_order=2,
        )
        with pytest.raises(ArgumentError):
            make_kernel(prof, 1)

    def test_zero_profile_rejected(self):
        prof = KernelProfile(
            name="custom",
            raw_profile=lambda t: np.zeros_like(t),
            support_radius=1.0,
            smoothness_order=0,
        )
        with pytest.raises(ArgumentError):
            make_kernel(prof, 1)

    def test_bad_dim_rejected(self):
        with pytest.raises(ArgumentError):
            make_kernel(builtin_profile("uniform"), 0)
