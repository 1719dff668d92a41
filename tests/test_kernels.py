"""Tests for radial kernel construction, constants, and condition checks."""

import math

import numpy as np
import pytest
from scipy import integrate

from conftest import kernel_weights

from rednw import kernels
from rednw.errors import ArgumentError
from rednw.kernels import (
    KernelProfile,
    _gauss_legendre,
    RadialKernel,
    builtin_profile,
    make_kernel,
    surface_area,
    validate_conditions,
)

P = np.polynomial.polynomial
BUILTINS = ("triweight_poly3", "biweight", "epanechnikov", "uniform")


def quad_integral(kernel):
    """Independent oracle: scipy adaptive quadrature of the radial integral."""
    prof = kernel.profile
    d = kernel.dim

    def integrand(s):
        val = float(np.atleast_1d(prof.values(np.array([s])))[0])
        return kernel.norm_const * val * surface_area(d) * s ** (d - 1)

    val, _ = integrate.quad(integrand, 0.0, prof.support_radius)
    return val


def mc_integral(kernel, func, n_draws, seed):
    """Monte Carlo integral of f(u) = func(||u||) over the support cube, with
    its std error; func maps an array of radii elementwise."""
    rng = np.random.default_rng(seed)
    r = kernel.profile.support_radius
    d = kernel.dim
    u = rng.uniform(-r, r, size=(n_draws, d))
    vals = func(np.linalg.norm(u, axis=1)) * (2.0 * r) ** d
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
        k = make_kernel(KernelProfile(name="custom", coefficients=(1, 0, -1)), 1)
        assert abs(k.norm_const - 0.75) <= 1e-10

    def test_second_moment_triweight_d1(self):
        # closed form: 2*(35/32)*B(3/2,4)/2 = 1/9
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        np.testing.assert_allclose(k.mu2, 1.0 / 9.0, atol=1e-10)

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
        est, se = mc_integral(k, lambda t: kernel_weights(k, t), n_draws=200_000, seed=1234)
        assert abs(est - 1.0) <= 3.0 * se + 1e-6

    def test_l2_const_monte_carlo_band(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 2)
        est, se = mc_integral(
            k, lambda t: kernel_weights(k, t) ** 2, n_draws=200_000, seed=99
        )
        assert abs(est - k.l2_const) <= 3.0 * se + 1e-6


class TestQuadratureNodes:
    """Gauss-Legendre nodes are computed once per node count and shared."""

    def test_cached_nodes_read_only(self):
        for m in (16, 32):
            x, w = _gauss_legendre(m)
            assert x.shape == w.shape == (m,)
            assert not x.flags.writeable and not w.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 0.0
            with pytest.raises(ValueError):
                w[0] = 0.0

    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("dim", [1, 20])
    def test_constants_identical_cold_and_warm(self, name, dim):
        _gauss_legendre.cache_clear()
        cold = make_kernel(builtin_profile(name), dim)
        warm = make_kernel(builtin_profile(name), dim)
        assert _gauss_legendre.cache_info().hits > 0
        assert (cold.norm_const, cold.l2_const, cold.mu2) == (
            warm.norm_const, warm.l2_const, warm.mu2)


class TestEval:
    def test_triweight_at_zero(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        np.testing.assert_allclose(k.norm_const * k.profile_of_squares(np.zeros(1)), 35.0 / 32.0,
                                   rtol=1e-14)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_zero_beyond_support(self, name):
        k = make_kernel(builtin_profile(name), 3)
        r = k.profile.support_radius
        u = np.array([2.0 * r, 0.0, 0.0])
        assert k.profile_of_squares(np.array([u @ u]))[0] == 0.0

    def test_rotation_invariance(self):
        """K(u) = k(|u|) gives identical values under any orthogonal map."""
        k = make_kernel(builtin_profile("triweight_poly3"), 3)
        rng = np.random.default_rng(7)
        for _ in range(50):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            u = rng.uniform(-1.2, 1.2, size=3)
            # same norm, so exactly the same value up to rounding in the norm
            v = q @ u
            turned, plain = k.profile_of_squares(np.array([v @ v, u @ u]))
            np.testing.assert_allclose(turned, plain, rtol=1e-12, atol=1e-15)

    def test_weights_match_eval_on_radii(self):
        """K(u) at a point, norm_const times the profile at the squared
        radius u . u, is the reference weight at the radius itself."""
        k = make_kernel(builtin_profile("triweight_poly3"), 2)
        t = np.array([0.0, 0.2, 0.7, 0.999, 1.0, 1.5])
        u = np.column_stack([t, np.zeros_like(t)])
        point = k.norm_const * k.profile_of_squares(np.einsum("ij,ij->i", u, u))
        np.testing.assert_allclose(point, kernel_weights(k, t), rtol=1e-14)
        np.testing.assert_array_equal(k.norm_const * k.profile_of_squares(t * t), point)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("name,power", [("triweight_poly3", 3), ("biweight", 2),
                                            ("epanechnikov", 1), ("uniform", 0)])
    def test_weights_match_power_form(self, name, power, dim):
        """One pass over all squared radii gives norm_const * (1 - t^2)^k
        inside the support and exactly 0 from its edge on (beyond it for uniform)."""
        k = make_kernel(builtin_profile(name), dim)
        r = k.profile.support_radius
        t = np.array([0.0, 0.1, 0.5, 0.9, 0.999, r, np.nextafter(r, np.inf), 2.0 * r, 10.0 * r])
        inside = t <= r
        ref = np.where(inside, k.norm_const * (1.0 - np.minimum(t * t, 1.0)) ** power, 0.0)
        w = k.norm_const * k.profile_of_squares(t * t)
        np.testing.assert_allclose(w, ref, rtol=1e-15, atol=0.0)
        assert np.all(w[~inside] == 0.0)
        assert w[5] == (k.norm_const if power == 0 else 0.0)

    def test_kernel_is_immutable(self):
        k = make_kernel(builtin_profile("uniform"), 1)
        with pytest.raises(Exception):
            k.norm_const = 2.0


class TestValidation:
    def test_triweight_all_checks_pass(self):
        k = make_kernel(builtin_profile("triweight_poly3"), 2)
        rep = validate_conditions(k)
        assert all(c.passed for c in rep.checks)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["k3_odd_integral"].value == 0.0
        assert by_name["first_moment_zero"].value == 0.0
        assert abs(by_name["integral_one"].value) <= 1e-8

    @staticmethod
    def assert_symmetric_checks_exact(kernel):
        """A radial kernel is even, so its first moment and odd integral are
        exactly 0, whatever its profile."""
        rep = validate_conditions(kernel)
        assert [c.name for c in rep.checks] == [
            "bounded", "integral_one", "edge_decay", "first_moment_zero",
            "k3_odd_integral", "k3_twice_differentiable", "k4_slope_bound"]
        by_name = {c.name: c for c in rep.checks}
        for name in ("first_moment_zero", "k3_odd_integral"):
            assert by_name[name].value == 0.0 and by_name[name].passed

    @pytest.mark.parametrize("dim", range(1, 7))
    @pytest.mark.parametrize("name", BUILTINS)
    def test_symmetric_checks_exact_for_builtins(self, name, dim):
        self.assert_symmetric_checks_exact(make_kernel(builtin_profile(name), dim))

    def test_symmetric_checks_exact_for_step_edge_custom_profile(self):
        """A profile that jumps at its edge: the report states the two
        symmetric conditions, and the edge shows in the derived checks."""
        kernel = make_kernel(KernelProfile(name="custom", coefficients=(2, -1)), 3)
        self.assert_symmetric_checks_exact(kernel)
        by_name = {c.name: c for c in validate_conditions(kernel).checks}
        assert (by_name["k3_twice_differentiable"].value, by_name["k4_slope_bound"].value) == (
            -1.0, math.inf)
        assert not by_name["k3_twice_differentiable"].passed
        assert not by_name["k4_slope_bound"].passed

    def test_bounded_is_the_exact_maximum(self):
        """k(t) = 1 + t - t^3 peaks inside (0, 1), at t = 1 / sqrt(3), where
        a grid of radii falls short by about 4e-9."""
        k = make_kernel(KernelProfile(name="custom", coefficients=(1, 1, 0, -1)), 1)
        bounded = validate_conditions(k).checks[0]
        assert bounded.name == "bounded" and bounded.passed
        assert bounded.value == pytest.approx(1 + 2 / (3 * math.sqrt(3)), rel=4e-16)

    @pytest.mark.parametrize("name", BUILTINS)
    def test_integral_one_checks_the_quadrature(self, name, monkeypatch):
        """The unit integral is the closed form, so a quadrature 1% off shows."""
        good = validate_conditions(make_kernel(builtin_profile(name), 3)).checks[1]
        assert good.name == "integral_one" and good.passed and good.value <= 4e-15
        quadrature = kernels._radial_integral
        monkeypatch.setattr(kernels, "_radial_integral", lambda *a: 1.01 * quadrature(*a))
        bad = validate_conditions(make_kernel(builtin_profile(name), 3)).checks[1]
        assert not bad.passed and bad.value == pytest.approx(1 - 1 / 1.01, rel=1e-12)

    def test_triweight_k4_slope_constant(self):
        # max |k'(t)|/t for k(t)=(1-t^2)^3 is 6, attained at t = 0, exactly
        k = make_kernel(builtin_profile("triweight_poly3"), 1)
        rep = validate_conditions(k)
        by_name = {c.name: c for c in rep.checks}
        assert by_name["k4_slope_bound"].passed
        assert by_name["k4_slope_bound"].value == 6.0

    @pytest.mark.parametrize("name, smoothness, slope", [
        ("triweight_poly3", 2, 6.0), ("biweight", 1, 4.0), ("epanechnikov", 0, 2.0),
        ("uniform", -1, 0.0),
    ])
    def test_builtins_derive_smoothness_and_exact_slope(self, name, smoothness, slope):
        """(1 - t^2)^k has a root of multiplicity k at its edge, so k - 1
        continuous derivatives, and max |k'(t) / t| = 2k, attained at t = 0."""
        profile = builtin_profile(name)
        assert profile.smoothness_order == smoothness
        by_name = {c.name: c for c in validate_conditions(make_kernel(profile, 2)).checks}
        assert by_name["k3_twice_differentiable"].value == smoothness
        assert by_name["k4_slope_bound"].value == slope
        assert by_name["k4_slope_bound"].passed == (smoothness >= 1)
        assert (by_name["edge_decay"].value, by_name["edge_decay"].passed) == (0.0, True)

    def test_uniform_flagged_nondifferentiable(self):
        """Step-edge profiles are admitted but flagged on the smoothness checks."""
        k = make_kernel(builtin_profile("uniform"), 1)
        rep = validate_conditions(k)
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["k3_twice_differentiable"].passed
        assert not by_name["k4_slope_bound"].passed
        assert not all(c.passed for c in rep.checks)
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


class TestDerivedConditions:
    """A profile is its coefficients: smoothness and the slope bound are
    derived from them exactly, and its quadrature ends at an exact rule."""

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_coefficient_form_matches_product_form(self, name):
        profile = builtin_profile(name)
        t = np.linspace(0.0, 1.0, 1001)
        np.testing.assert_allclose(P.polyval(t, profile.coefficients), profile.values(t),
                                   rtol=1e-12, atol=1e-14)

    def test_root_at_edge_found_despite_rounding(self):
        """1 - t^2 / R^2 at R = 0.3 rounds to 1.1e-16 at R, not 0: within
        64 eps of its terms' sum, so a root of multiplicity 1, order 0."""
        R = 0.3
        coefficients = (1.0, 0.0, -1.0 / R ** 2)
        assert P.polyval(R, coefficients) != 0.0
        assert KernelProfile(name="custom", coefficients=coefficients,
                             support_radius=R).smoothness_order == 0

    @pytest.mark.parametrize("coefficients, order", [
        (P.polypow([1.0, -1.0], 4), 0),  # (1 - t)^4: the t term makes k(|t|) kink at 0
        (P.polymul(P.polypow([1.0, 0.0, -1.0], 4), [1.0, 0.0, 0.0, 1.0]), 2),  # t^3 at 0
        ((1.0, 0.0, 0.0, -1.0), 0),  # a simple root at the edge
    ], ids=["kink-at-0", "cube-at-0", "simple-root"])
    def test_smoothness_is_the_smaller_order(self, coefficients, order):
        assert KernelProfile(name="custom", coefficients=coefficients).smoothness_order == order

    def test_slope_bound_at_an_interior_extremum(self):
        """k'(t) / t = -(1 + 8 t^2 - 8 t^4) is largest in size, 3, at t^2 = 1/2."""
        kernel = make_kernel(KernelProfile(name="custom",
                                           coefficients=(7 / 6, 0, -1 / 2, 0, -2, 0, 4 / 3)), 1)
        by_name = {c.name: c for c in validate_conditions(kernel).checks}
        np.testing.assert_allclose(by_name["k4_slope_bound"].value, 3.0, rtol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_high_degree_profile_integrates_exactly(self, dim):
        """1 - t^60 needs the 32-node rule; its normalization is then exact:
        1 / (S_d (1 / d - 1 / (d + 60)))."""
        kernel = make_kernel(KernelProfile(name="custom", coefficients=(1.0,) + (0.0,) * 59 + (-1.0,)),
                             dim)
        expected = 1.0 / (surface_area(dim) * (1.0 / dim - 1.0 / (dim + 60)))
        np.testing.assert_allclose(kernel.norm_const, expected, rtol=1e-14)


class TestRejection:
    def test_unknown_builtin_name(self):
        with pytest.raises(ArgumentError):
            builtin_profile("gaussian")

    def test_zero_profile_rejected(self):
        with pytest.raises(ArgumentError, match="cannot normalize"):
            make_kernel(KernelProfile(name="custom", coefficients=(0.0,)), 1)

    @pytest.mark.parametrize("coefficients, radius, message", [
        ((), 1.0, "profile coefficients must be finite and at least one"),
        ((1.0, math.nan), 1.0, "profile coefficients must be finite and at least one"),
        ((1.0, 0.0, -1.0), math.inf, "support radius must be positive and finite"),
        ((1.0, 0.0, -1.0), 0.0, "support radius must be positive and finite"),
    ], ids=["empty", "nan", "inf-radius", "zero-radius"])
    def test_invalid_profile_rejected(self, coefficients, radius, message):
        with pytest.raises(ArgumentError, match=message):
            KernelProfile(name="custom", coefficients=coefficients, support_radius=radius)

    def test_bad_dim_rejected(self):
        with pytest.raises(ArgumentError):
            make_kernel(builtin_profile("uniform"), 0)

    @pytest.mark.parametrize("name, last", [
        ("triweight_poly3", 251), ("biweight", 253), ("epanechnikov", 256), ("uniform", 258),
    ])
    def test_dim_past_the_float_range_rejected(self, name, last):
        """R(K) holds c^2, which overflows one dimension past ``last``; from
        d = 344 the sphere's area does too. Each raises ArgumentError naming
        the dimension, while ``last`` itself still gives finite constants."""
        kernel = make_kernel(builtin_profile(name), last)
        assert all(math.isfinite(v) for v in (kernel.norm_const, kernel.l2_const, kernel.mu2))
        for dim in (last + 1, 344, 10 ** 30):
            with pytest.raises(ArgumentError, match=f"^kernel dimension {dim} is too large"):
                make_kernel(builtin_profile(name), dim)
