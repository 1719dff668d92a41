"""Tests for the plug-in kernel regression estimator and its intervals."""

import dataclasses
import math
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rednw import npregress, simulate
from rednw.errors import ArgumentError, EmptyWindowError, RednwError
from rednw.kernels import BUILTIN_PROFILES, KernelProfile, builtin_profile, make_kernel
from rednw.npregress import (
    _SORT_MIN_QUERIES,
    BandwidthRule,
    NWBatch,
    NWConfig,
    NWFit,
    PointResult,
    _loo_prefix,
    _nw_core,
    bandwidth,
    gaussian_quantile,
    nw_batch,
    nw_estimate,
    uniform_sup_error,
)
from rednw.reduction import ReductionBasis, oracle_basis, reduce
from rednw.simulate import (
    MethodSpec,
    Model1Config,
    Model2Config,
    draw_test_points,
    gen_model1,
    run_replications,
    undersmoothed_rule,
)

TRIWEIGHT_1D = make_kernel(builtin_profile("triweight_poly3"), 1)


def default_config(**kw):
    kw.setdefault("kernel", TRIWEIGHT_1D)
    kw.setdefault("bandwidth", BandwidthRule(kind="fixed", h_fixed=1.0))
    kw.setdefault("d", 1)
    return NWConfig(**kw)


def brute_force_nw(kernel, basis_matrix, X, Y, x0, h):
    """Direct double-loop evaluation of the weighted average, no vectorization."""
    d = basis_matrix.shape[0]
    w0 = [sum(basis_matrix[a][j] * x0[j] for j in range(len(x0))) for a in range(d)]
    num = 0.0
    den = 0.0
    for i in range(len(Y)):
        wi = [
            sum(basis_matrix[a][j] * X[i][j] for j in range(X.shape[1]))
            for a in range(d)
        ]
        t = math.sqrt(sum((w0[a] - wi[a]) ** 2 for a in range(d))) / h
        val = float(kernel.weights(np.array([t]))[0])
        num += val * Y[i]
        den += val
    return num / den


def dense_loocv(kernel, W, Y, grid):
    """Leave-one-out bandwidth choice from the full n x n kernel matrix.

    Returns the chosen h and, per grid value, the leave-one-out mass and
    prediction of every point (prediction NaN where the mass is zero).
    """
    dists = np.linalg.norm(W[:, None, :] - W[None, :, :], axis=2)
    best_h, best_err, per_h = None, math.inf, {}
    for h in grid:
        wts = kernel.weights(dists / h)
        np.fill_diagonal(wts, 0.0)
        mass = wts.sum(axis=1)
        ok = mass > 0
        pred = np.full(len(Y), np.nan)
        pred[ok] = (wts[ok] @ Y) / mass[ok]
        per_h[h] = (mass, pred)
        if not np.any(ok):
            continue
        err = float(np.sum((Y[ok] - pred[ok]) ** 2)) + float(np.sum(~ok)) * float(np.var(Y))
        if err < best_err:
            best_h, best_err = h, err
    return best_h, per_h


def bisect_quantile(q, tol=1e-12):
    """Independent oracle: bisection on the normal CDF via math.erf."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGaussianQuantile:
    def test_median(self):
        assert gaussian_quantile(0.5) == 0.0

    def test_ninety_seven_five(self):
        np.testing.assert_allclose(
            gaussian_quantile(0.975), 1.959963984540054, atol=1e-9
        )

    @pytest.mark.parametrize("q", [0.005, 0.05, 0.3, 0.7, 0.95, 0.995, 0.9999])
    def test_against_bisection_oracle(self, q):
        np.testing.assert_allclose(
            gaussian_quantile(q), bisect_quantile(q), atol=1e-9
        )

    def test_symmetry(self):
        for q in (0.01, 0.2, 0.45):
            np.testing.assert_allclose(
                gaussian_quantile(q), -gaussian_quantile(1.0 - q), atol=1e-12
            )

    def test_domain(self):
        for q in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ArgumentError):
                gaussian_quantile(q)


class TestBandwidth:
    def test_power_rule_ambient_six(self):
        rule = BandwidthRule(kind="power_rule", constant=5.0, exponent_dim="ambient_p")
        np.testing.assert_allclose(
            bandwidth(rule, n=1000, p=6, d=1), 5.0 * 10.0**-0.3, rtol=1e-14
        )

    def test_power_rule_ambient_twenty(self):
        rule = BandwidthRule(kind="power_rule", constant=10.0, exponent_dim="ambient_p")
        np.testing.assert_allclose(
            bandwidth(rule, n=100, p=20, d=1), 10.0 * 100.0 ** (-1.0 / 24.0), rtol=1e-14
        )

    def test_power_rule_reduced_d(self):
        rule = BandwidthRule(kind="power_rule", constant=2.0, exponent_dim="reduced_d")
        np.testing.assert_allclose(
            bandwidth(rule, n=500, p=9, d=2), 2.0 * 500.0 ** (-1.0 / 6.0), rtol=1e-14
        )

    def test_explicit_exponent_override(self):
        rule = BandwidthRule(
            kind="power_rule", constant=2.0, exponent_dim="reduced_d", exponent=0.3
        )
        np.testing.assert_allclose(
            bandwidth(rule, n=81, p=6, d=1), 2.0 * 81.0**-0.3, rtol=1e-14
        )

    def test_fixed(self):
        rule = BandwidthRule(kind="fixed", h_fixed=0.7)
        assert bandwidth(rule, n=10, p=3, d=1) == 0.7

    def test_loocv_picks_grid_minimizer(self):
        rng = np.random.default_rng(8)
        w = rng.uniform(-1.0, 1.0, size=(80, 1))
        y = np.sin(2.0 * w[:, 0]) + 0.1 * rng.standard_normal(80)
        grid = (0.1, 0.3, 0.6, 1.2)
        rule = BandwidthRule(kind="loocv", cv_grid=grid)
        h = bandwidth(rule, n=80, p=1, d=1, kernel=TRIWEIGHT_1D, W=w, Y=y)
        assert h in grid
        # direct leave-one-out score per grid value, small n double loop
        scores = {}
        for hg in grid:
            total = 0.0
            for i in range(80):
                num = den = 0.0
                for j in range(80):
                    if j == i:
                        continue
                    t = abs(w[i, 0] - w[j, 0]) / hg
                    val = float(TRIWEIGHT_1D.weights(np.array([t]))[0])
                    num += val * y[j]
                    den += val
                total += (y[i] - num / den) ** 2 if den > 0 else float(np.var(y))
            scores[hg] = total
        assert h == min(scores, key=scores.get)

    def test_loocv_needs_data(self):
        rule = BandwidthRule(kind="loocv", cv_grid=(0.5, 1.0))
        with pytest.raises(ArgumentError):
            bandwidth(rule, n=10, p=2, d=1)

    def test_rule_validation(self):
        with pytest.raises(ArgumentError):
            BandwidthRule(kind="power_rule", constant=-1.0)
        with pytest.raises(ArgumentError):
            BandwidthRule(kind="fixed")
        with pytest.raises(ArgumentError):
            BandwidthRule(kind="plugin")
        with pytest.raises(ArgumentError):
            BandwidthRule(kind="power_rule", exponent_dim="both")

    @pytest.mark.parametrize("kw", [
        {"kind": "fixed", "h_fixed": math.inf},
        {"kind": "fixed", "h_fixed": math.nan},
        {"kind": "power_rule", "constant": math.inf},
        {"kind": "loocv", "constant": math.nan, "cv_grid": (0.5,)},
        {"kind": "loocv", "cv_grid": (math.nan,)},
        {"kind": "loocv", "cv_grid": (0.3, math.inf)},
        {"kind": "loocv", "cv_grid": (0.3, 0.0)},
        {"kind": "loocv", "cv_grid": (-0.3, 0.5)},
    ], ids=["h-inf", "h-nan", "constant-inf", "constant-nan", "grid-nan", "grid-inf",
            "grid-zero", "grid-negative"])
    def test_non_finite_or_non_positive_rejected(self, kw):
        with pytest.raises(ArgumentError):
            BandwidthRule(**kw)

    def test_empty_cv_grid_rejected_at_call(self):
        rule = BandwidthRule(kind="loocv", cv_grid=())
        with pytest.raises(ArgumentError):
            bandwidth(rule, n=10, p=2, d=1, kernel=TRIWEIGHT_1D,
                      W=np.zeros((10, 1)), Y=np.zeros(10))


class TestPointEstimate:
    def test_constant_response(self):
        X = np.linspace(-0.5, 0.5, 9).reshape(-1, 1)
        Y = np.full(9, 3.7)
        fit = nw_estimate(default_config(), oracle_basis([[1.0]]), X, Y, [0.0])
        assert fit.eta_hat == 3.7
        assert fit.sigma2_hat == 0.0
        assert fit.ci_lo == fit.ci_hi == 3.7

    def test_single_in_window_point(self):
        X = np.array([[0.0], [5.0], [-5.0], [7.0]])
        Y = np.array([2.5, 100.0, -100.0, 50.0])
        fit = nw_estimate(default_config(), oracle_basis([[1.0]]), X, Y, [0.1])
        assert fit.eta_hat == 2.5

    def test_hand_dataset_matches_brute_force(self):
        X = np.array([[0.0], [0.3], [-0.4], [0.8], [-0.9]])
        Y = np.array([1.0, 2.0, -1.0, 0.5, 3.0])
        basis = oracle_basis([[1.0]])
        fit = nw_estimate(default_config(), basis, X, Y, [0.1])
        expected = brute_force_nw(TRIWEIGHT_1D, basis.matrix, X, Y, [0.1], 1.0)
        np.testing.assert_allclose(fit.eta_hat, expected, rtol=1e-14)

    def test_random_instances_match_brute_force(self):
        """Vectorized path equals the direct double loop on small instances."""
        rng = np.random.default_rng(2024)
        for trial in range(40):
            n = int(rng.integers(5, 51))
            d = int(rng.integers(1, 4))
            p = int(rng.integers(d, d + 4))
            q, _ = np.linalg.qr(rng.standard_normal((p, d)))
            basis = ReductionBasis(matrix=q.T, method="oracle", d=d, p=p)
            X = rng.uniform(-1.0, 1.0, size=(n, p))
            Y = rng.standard_normal(n)
            x0 = 0.1 * rng.uniform(-1.0, 1.0, size=p)
            h = float(rng.uniform(1.5, 3.0))
            kern = make_kernel(builtin_profile("triweight_poly3"), d)
            cfg = NWConfig(
                kernel=kern, bandwidth=BandwidthRule(kind="fixed", h_fixed=h), d=d
            )
            fit = nw_estimate(cfg, basis, X, Y, x0)
            expected = brute_force_nw(kern, basis.matrix, X, Y, x0, h)
            np.testing.assert_allclose(fit.eta_hat, expected, rtol=1e-13)

    def test_convexity_within_window(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(-1.0, 1.0, size=(60, 2))
        Y = rng.uniform(-5.0, 5.0, size=60)
        basis = oracle_basis([[1.0, 0.0]])
        cfg = default_config()
        fit = nw_estimate(cfg, basis, X, Y, [0.0, 0.0])
        w = X[:, 0]
        inside = np.abs(w) < 1.0
        assert Y[inside].min() <= fit.eta_hat <= Y[inside].max()

    def test_rotation_invariance(self):
        """Estimates depend on the span only: any orthogonal recombination matches."""
        rng = np.random.default_rng(12)
        n, p, d = 80, 5, 2
        q, _ = np.linalg.qr(rng.standard_normal((p, d)))
        basis = ReductionBasis(matrix=q.T, method="oracle", d=d, p=p)
        X = rng.uniform(-1.0, 1.0, size=(n, p))
        Y = rng.standard_normal(n)
        x0 = np.zeros(p)
        kern = make_kernel(builtin_profile("triweight_poly3"), d)
        cfg = NWConfig(
            kernel=kern, bandwidth=BandwidthRule(kind="fixed", h_fixed=2.0), d=d
        )
        base = nw_estimate(cfg, basis, X, Y, x0)
        for _ in range(10):
            a, _ = np.linalg.qr(rng.standard_normal((d, d)))
            rotated = ReductionBasis(matrix=a @ q.T, method="oracle", d=d, p=p)
            fit = nw_estimate(cfg, rotated, X, Y, x0)
            np.testing.assert_allclose(fit.eta_hat, base.eta_hat, atol=1e-12)
            np.testing.assert_allclose(fit.ci_lo, base.ci_lo, atol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(77)
        X = rng.uniform(-1.0, 1.0, size=(40, 1))
        Y = rng.standard_normal(40)
        basis = oracle_basis([[1.0]])
        cfg = default_config()
        fit = nw_estimate(cfg, basis, X, Y, [0.0])
        perm = rng.permutation(40)
        fit_p = nw_estimate(cfg, basis, X[perm], Y[perm], [0.0])
        np.testing.assert_allclose(fit_p.eta_hat, fit.eta_hat, rtol=1e-13)

    def test_ci_half_width_formula(self):
        """Interval endpoints reproduce z*sqrt(sigma2*l2/(n h^d f_hat)) exactly."""
        rng = np.random.default_rng(15)
        X = rng.uniform(-1.0, 1.0, size=(200, 1))
        Y = X[:, 0] ** 2 + 0.3 * rng.standard_normal(200)
        cfg = default_config(bandwidth=BandwidthRule(kind="fixed", h_fixed=0.4))
        fit = nw_estimate(cfg, oracle_basis([[1.0]]), X, Y, [0.2])
        z = gaussian_quantile(0.975)
        half = z * math.sqrt(
            fit.sigma2_hat * TRIWEIGHT_1D.l2_const / (fit.n * fit.h_used * fit.f_hat)
        )
        np.testing.assert_allclose(fit.ci_hi - fit.eta_hat, half, rtol=1e-12)
        np.testing.assert_allclose(fit.eta_hat - fit.ci_lo, half, rtol=1e-12)

    def test_f_hat_mass_identity(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1.0, 1.0, size=(50, 1))
        Y = rng.standard_normal(50)
        fit = nw_estimate(default_config(), oracle_basis([[1.0]]), X, Y, [0.0])
        np.testing.assert_allclose(
            fit.f_hat, fit.effective_mass / (fit.n * fit.h_used), rtol=1e-14
        )

    def test_empty_window_names_point_and_bandwidth(self):
        X = np.array([[10.0], [11.0], [12.0]])
        Y = np.array([1.0, 2.0, 3.0])
        with pytest.raises(EmptyWindowError) as exc:
            nw_estimate(default_config(), oracle_basis([[1.0]]), X, Y, [0.0])
        msg = str(exc.value)
        assert "h=" in msg and "w0=" in msg

    def test_nonsmooth_kernel_refused_by_default(self):
        epan = make_kernel(builtin_profile("epanechnikov"), 1)
        X = np.array([[0.0], [0.2], [-0.2], [0.4]])
        cfg = NWConfig(
            kernel=epan, bandwidth=BandwidthRule(kind="fixed", h_fixed=1.0), d=1
        )
        with pytest.raises(ArgumentError) as exc:
            nw_estimate(cfg, oracle_basis([[1.0]]), X, np.ones(4), [0.0])
        assert "allow_nonsmooth_kernel" in str(exc.value)
        cfg_ok = NWConfig(
            kernel=epan,
            bandwidth=BandwidthRule(kind="fixed", h_fixed=1.0),
            d=1,
            allow_nonsmooth_kernel=True,
        )
        fit = nw_estimate(cfg_ok, oracle_basis([[1.0]]), X, np.ones(4), [0.0])
        assert fit.eta_hat == 1.0

    def test_kernel_dim_must_match_d(self):
        with pytest.raises(ArgumentError):
            NWConfig(
                kernel=TRIWEIGHT_1D,
                bandwidth=BandwidthRule(kind="fixed", h_fixed=1.0),
                d=2,
            )

    def test_minimum_sample_size(self):
        with pytest.raises(ArgumentError):
            nw_estimate(
                default_config(),
                oracle_basis([[1.0]]),
                np.array([[0.0]]),
                np.array([1.0]),
                [0.0],
            )


class TestBatch:
    def test_singleton_equals_point_call(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1.0, 1.0, size=(25, 1))
        Y = rng.standard_normal(25)
        cfg = default_config()
        basis = oracle_basis([[1.0]])
        single = nw_estimate(cfg, basis, X, Y, [0.1])
        batch = nw_batch(cfg, basis, X, Y, np.array([[0.1]]))
        assert len(batch) == 1 and batch[0].ok
        assert batch[0].fit == single

    def test_duplicated_rows_duplicated_fits(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1.0, 1.0, size=(25, 1))
        Y = rng.standard_normal(25)
        out = nw_batch(
            default_config(), oracle_basis([[1.0]]), X, Y, np.array([[0.1], [0.1]])
        )
        assert out[0].fit == out[1].fit

    def test_error_marker_does_not_abort_batch(self):
        X = np.array([[0.0], [0.1], [-0.1]])
        Y = np.array([1.0, 2.0, 0.0])
        X0 = np.array([[0.0], [50.0], [0.05]])
        out = nw_batch(default_config(), oracle_basis([[1.0]]), X, Y, X0)
        assert out[0].ok and out[2].ok
        assert not out[1].ok
        # the marker is a serializable message, not a raised exception
        assert "window" in out[1].error and "h=" in out[1].error
        assert out[1].fit is None
        assert out[1].index == 1

    @pytest.mark.parametrize("h, f_hat", [(1e200, "0.000e+00"), (1e-200, "inf")])
    def test_bandwidth_power_outside_float_range(self, h, f_hat):
        """h**d past the float range leaves degenerate-density rows, not a crash."""
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 2))
        Y = rng.standard_normal(30)
        cfg = default_config(kernel=make_kernel(builtin_profile("triweight_poly3"), 2), d=2,
                             bandwidth=BandwidthRule(kind="fixed", h_fixed=h))
        # queries at sample rows keep their own point's mass at any h
        out = nw_batch(cfg, oracle_basis(np.eye(2)), X, Y, X[:3])
        assert [r.ok for r in out] == [False] * 3
        assert all(r.error.startswith(f"degenerate density estimate {f_hat} at") for r in out)

    def test_model1_points_have_finite_intervals(self):
        cfg_m = Model1Config(seed=0)
        X, Y, _ = gen_model1(cfg_m, 500, rng_stream=0)
        basis = oracle_basis([np.ones(6)])
        rule = BandwidthRule(kind="power_rule", constant=5.0, exponent_dim="ambient_p")
        cfg = NWConfig(kernel=TRIWEIGHT_1D, bandwidth=rule, d=1)
        # test points drawn from the same design stay in the data cloud
        X0, _, _ = gen_model1(cfg_m, 10, rng_stream=123)
        out = nw_batch(cfg, basis, X, Y, X0)
        assert all(r.ok for r in out)
        for r in out:
            assert np.isfinite(r.fit.ci_lo) and np.isfinite(r.fit.ci_hi)
            assert r.fit.ci_lo < r.fit.eta_hat < r.fit.ci_hi


class TestSupError:
    def test_zero_against_own_fits(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1.0, 1.0, size=(60, 1))
        Y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(60)
        basis = oracle_basis([[1.0]])
        cfg = default_config(bandwidth=BandwidthRule(kind="fixed", h_fixed=0.5))
        grid = np.linspace(-0.5, 0.5, 11).reshape(-1, 1)
        fits = [r.fit.eta_hat for r in nw_batch(cfg, basis, X, Y, grid)]
        assert uniform_sup_error(cfg, basis, X, Y, grid, np.array(fits)) == 0.0

    def test_empty_window_propagates(self):
        X = np.array([[0.0], [0.1], [0.2]])
        Y = np.array([1.0, 2.0, 3.0])
        grid = np.array([[40.0]])
        with pytest.raises(EmptyWindowError):
            uniform_sup_error(
                default_config(), oracle_basis([[1.0]]), X, Y, grid, np.zeros(1)
            )

    def test_sup_error_shrinks_with_n(self):
        cfg_m = Model1Config(seed=3)
        basis = oracle_basis([np.ones(6)])
        rule = undersmoothed_rule()
        beta = np.ones(6) / np.sqrt(6.0)
        grid_w = np.linspace(-1.5, 1.5, 25)
        grid = np.outer(grid_w, beta)
        truth = grid_w**2
        errs = {}
        for n, stream in ((250, 1), (4000, 2)):
            X, Y, _ = gen_model1(cfg_m, n, rng_stream=stream)
            cfg = NWConfig(kernel=TRIWEIGHT_1D, bandwidth=rule, d=1)
            errs[n] = uniform_sup_error(cfg, basis, X, Y, grid, truth)
        assert errs[4000] < errs[250]


class TestVarianceBands:
    def test_plug_in_variance_near_truth(self):
        """Median variance plug-in at an interior point sits near the design's 0.25."""
        cfg_m = Model1Config(seed=0)
        basis = oracle_basis([np.ones(6)])
        x0 = 1.5 * np.ones(6) / np.sqrt(6.0)
        cfg = NWConfig(kernel=TRIWEIGHT_1D, bandwidth=undersmoothed_rule(), d=1)
        s2 = []
        for rep in range(200):
            X, Y, _ = gen_model1(cfg_m, 4000, rng_stream=rep)
            s2.append(nw_estimate(cfg, basis, X, Y, x0).sigma2_hat)
        assert 0.15 <= float(np.median(s2)) <= 0.35

    def test_ci_width_shrinks_with_n(self):
        cfg_m = Model1Config(seed=0)
        basis = oracle_basis([np.ones(6)])
        x0 = 1.5 * np.ones(6) / np.sqrt(6.0)
        rule = BandwidthRule(kind="power_rule", constant=5.0, exponent_dim="ambient_p")
        cfg = NWConfig(kernel=TRIWEIGHT_1D, bandwidth=rule, d=1)
        med = {}
        for n in (250, 1000, 4000):
            widths = []
            for rep in range(50):
                X, Y, _ = gen_model1(cfg_m, n, rng_stream=1000 + rep)
                fit = nw_estimate(cfg, basis, X, Y, x0)
                widths.append(fit.ci_hi - fit.ci_lo)
            med[n] = float(np.median(widths))
        assert med[4000] < med[1000] < med[250]


def _shift_data(seed=21, n=400):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    Y = np.sin(2.0 * X[:, 0]) + 0.3 * rng.standard_normal(n)
    return X, Y


class TestShiftEquivariance:
    def test_shift_moves_eta_only(self):
        """Adding a constant to Y shifts eta_hat by it and leaves the variance
        and interval width alone; E[Y^2] - E[Y]^2 loses them to cancellation."""
        X, Y = _shift_data()
        basis = oracle_basis([[1.0, 0.0]])
        cfg = default_config(bandwidth=BandwidthRule(kind="fixed", h_fixed=0.3))
        x0 = [0.2, 0.0]
        base = nw_estimate(cfg, basis, X, Y, x0)
        shifted = nw_estimate(cfg, basis, X, Y + 1e8, x0)
        assert base.sigma2_hat > 0.01
        np.testing.assert_allclose(shifted.eta_hat, base.eta_hat + 1e8, rtol=1e-14)
        np.testing.assert_allclose(shifted.sigma2_hat, base.sigma2_hat, rtol=1e-6)
        np.testing.assert_allclose(shifted.ci_hi - shifted.ci_lo, base.ci_hi - base.ci_lo,
                                   rtol=1e-6)


def _call_entry(entry, cfg, basis, X, Y, x0):
    if entry == "nw_estimate":
        return nw_estimate(cfg, basis, X, Y, x0)
    if entry == "nw_batch":
        return nw_batch(cfg, basis, X, Y, np.atleast_2d(x0))
    return uniform_sup_error(cfg, basis, X, Y, np.atleast_2d(x0), np.zeros(1))


ENTRIES = ("nw_estimate", "nw_batch", "uniform_sup_error")


class TestNonFiniteInputs:
    """Every NW entry point rejects non-finite data instead of returning NaN,
    silently dropping a row, or misreporting an empty window."""

    def setup_method(self):
        self.X, self.Y = _shift_data(seed=5, n=100)
        self.basis = oracle_basis([[1.0, 0.0]])
        self.cfg = default_config(bandwidth=BandwidthRule(kind="fixed", h_fixed=0.5))

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_nan_in_y(self, entry):
        self.Y[7] = np.nan
        with pytest.raises(ArgumentError, match="Y must be finite"):
            _call_entry(entry, self.cfg, self.basis, self.X, self.Y, [0.0, 0.0])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_inf_in_zero_weight_column(self, entry):
        self.X[3, 1] = np.inf
        with pytest.raises(ArgumentError, match="not finite"):
            _call_entry(entry, self.cfg, self.basis, self.X, self.Y, [0.0, 0.0])

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_nan_in_query_point(self, entry):
        with pytest.raises(ArgumentError, match="query point 0"):
            _call_entry(entry, self.cfg, self.basis, self.X, self.Y, [np.nan, 0.0])


class TestLoocvReference:
    """The windowed leave-one-out core against the dense n x n reference."""

    @pytest.mark.parametrize("profile", BUILTIN_PROFILES)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_dense(self, profile, d):
        kern = make_kernel(builtin_profile(profile), d)
        grid = (0.25, 0.5, 0.75, 1.0)
        rng = np.random.default_rng(100 + 10 * d + BUILTIN_PROFILES.index(profile))
        # both sides of the sort threshold
        for n in (12, 2 * _SORT_MIN_QUERIES + 7):
            for trial in range(3):
                W = rng.uniform(-1.0, 1.0, size=(n, d))
                if trial >= 1:
                    # ties: coordinates on a 1/8 grid, so many radii sit
                    # exactly on the support edge of the dyadic bandwidths
                    W = np.round(8.0 * W) / 8.0
                if trial == 2:
                    # isolated points: empty leave-one-out window at every h
                    W[:3] = 10.0 + 5.0 * np.arange(3)[:, None]
                    # a pair whose only neighbour sits just inside the edge
                    # at h = 0.25: a weight far below K(0)'s last bit
                    W[3:5] = 100.0
                    W[4, 0] += 0.2499999
                Y = rng.standard_normal(n)
                expected, per_h = dense_loocv(kern, W, Y, grid)
                rule = BandwidthRule(kind="loocv", cv_grid=grid)
                assert bandwidth(rule, n=n, p=d, d=d, kernel=kern, W=W, Y=Y) == expected
                for h in grid:
                    mass, pred, _ = _nw_core(kern, W, Y, W, h, leave_one_out=True)
                    ref_mass, ref_pred = per_h[h]
                    np.testing.assert_allclose(mass, ref_mass, rtol=1e-12, atol=1e-15)
                    assert np.array_equal(mass > 0, ref_mass > 0)
                    ok = ref_mass > 0
                    np.testing.assert_allclose(pred[ok], ref_pred[ok], rtol=1e-10, atol=1e-12)
                    if trial == 2:
                        assert np.all(mass[:3] == 0.0)

    @pytest.mark.parametrize("profile", ["triweight_poly3", "uniform"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_dense_multi_block(self, profile, d):
        """At n = 600 every h spans many blocks, so each row's sums gather
        pairs from its own block and from earlier rows' blocks."""
        kern = make_kernel(builtin_profile(profile), d)
        grid = (0.05, 0.25, 1.0)
        rng = np.random.default_rng(300 + 10 * d + BUILTIN_PROFILES.index(profile))
        n = 600
        for on_grid in (False, True):
            W = rng.uniform(-1.0, 1.0, size=(n, d))
            if on_grid:
                # a 1/8 grid: radii exactly on the support edge at h = 0.25,
                # and ties, radius 0, at every h
                W = np.round(8.0 * W) / 8.0
            Y = rng.standard_normal(n)
            expected, per_h = dense_loocv(kern, W, Y, grid)
            rule = BandwidthRule(kind="loocv", cv_grid=grid)
            assert bandwidth(rule, n=n, p=d, d=d, kernel=kern, W=W, Y=Y) == expected
            for h in grid:
                mass, pred, _ = _nw_core(kern, W, Y, W, h, leave_one_out=True)
                ref_mass, ref_pred = per_h[h]
                np.testing.assert_allclose(mass, ref_mass, rtol=1e-12, atol=1e-15)
                assert np.array_equal(mass > 0, ref_mass > 0)
                ok = ref_mass > 0
                np.testing.assert_allclose(pred[ok], ref_pred[ok], rtol=1e-10, atol=1e-12)
                # mass and weighted-Y sums accumulate in one order
                _, ones, _ = _nw_core(kern, W, np.ones(n), W, h, leave_one_out=True)
                assert np.all(ones[ok] == 1.0)

    def test_memory_linear_in_n(self):
        """n = 20000 would need 3.2 GB for one dense n x n matrix."""
        rng = np.random.default_rng(5)
        n = 20_000
        W = rng.uniform(-1.0, 1.0, size=(n, 1))
        Y = np.sin(3.0 * W[:, 0]) + 0.1 * rng.standard_normal(n)
        rule = BandwidthRule(kind="loocv", cv_grid=(0.005, 0.01, 0.02))
        tracemalloc.start()
        try:
            h = bandwidth(rule, n=n, p=1, d=1, kernel=TRIWEIGHT_1D, W=W, Y=Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h in rule.cv_grid
        assert peak < 50e6


def prefix_loo(kernel, W, Y, h):
    """_loo_prefix on the sorted sample, returned in the original row order."""
    order = np.argsort(W[:, 0], kind="stable")
    mass, eta = np.empty(len(Y)), np.empty(len(Y))
    mass[order], eta[order] = _loo_prefix(kernel, W[order, 0], Y[order], h)
    return mass, eta


def assert_prefix_close(kernel, W, Y, h, mass, eta, ref_mass, ref_eta):
    """The prefix sums against a direct evaluation: the same empty windows,
    and mass and estimate within _loo_prefix's stated rounding bound, n eps
    5^k per window sample (the direct sums add 1e-13 relative)."""
    n, k = len(Y), kernel.profile.power
    assert np.array_equal(mass > 0, ref_mass > 0)
    assert np.all(mass[ref_mass == 0] == 0) and np.all(np.isnan(eta[ref_mass == 0]))
    t = np.abs(W[:, 0, None] - W[None, :, 0]) / h
    count = np.sum(t <= 1.0 if k == 0 else t < 1.0, axis=1) - 1
    bound = kernel.norm_const * n * np.finfo(float).eps * 5.0 ** k * count
    ok = ref_mass > 0
    assert np.all(np.abs(mass - ref_mass) <= bound + 1e-13 * ref_mass)
    spread = np.max(np.abs(Y - Y.mean()))
    tol = 2.0 * bound[ok] * spread / ref_mass[ok] + 1e-12 * np.max(np.abs(Y))
    assert np.all(np.abs(eta[ok] - ref_eta[ok]) <= tol)


class TestLoocvPrefix:
    """d = 1 leave-one-out sums by prefix sums, against the direct core and
    the dense n x n reference."""

    @pytest.mark.parametrize("profile", BUILTIN_PROFILES)
    @pytest.mark.parametrize("n", [12, 2 * _SORT_MIN_QUERIES + 7, 600])
    def test_matches_direct_and_dense(self, profile, n):
        kern = make_kernel(builtin_profile(profile), 1)
        # dyadic: 1/8-grid samples sit exactly at q +- h and on chunk edges
        grid = (0.125, 0.25, 0.5, 1.0)
        rng = np.random.default_rng(500 + n + BUILTIN_PROFILES.index(profile))
        for trial in range(3):
            W = rng.uniform(-1.0, 1.0, size=(n, 1))
            if trial >= 1:
                # ties: many samples exactly one bandwidth apart, and every
                # sample on a chunk boundary (chunks start at the minimum)
                W = np.round(8.0 * W) / 8.0
            if trial == 2:
                # isolated points, and a pair 0.2499999 apart: at h = 0.25
                # its weight is far below the prefix sums' rounding
                W[:3] = 10.0 + 5.0 * np.arange(3)[:, None]
                W[3:5] = 100.0
                W[4, 0] += 0.2499999
            Y = rng.standard_normal(n)
            expected, per_h = dense_loocv(kern, W, Y, grid)
            rule = BandwidthRule(kind="loocv", cv_grid=grid)
            assert bandwidth(rule, n=n, p=1, d=1, kernel=kern, W=W, Y=Y) == expected
            for h in grid:
                mass, eta = prefix_loo(kern, W, Y, h)
                ref_mass, ref_eta, _ = _nw_core(kern, W, Y, W, h, leave_one_out=True)
                assert_prefix_close(kern, W, Y, h, mass, eta, ref_mass, ref_eta)
                dense_mass, dense_eta = per_h[h]
                assert_prefix_close(kern, W, Y, h, mass, eta, dense_mass, dense_eta)
                if trial == 2:
                    assert np.all(mass[:3] == 0.0)
                    assert np.all((mass[3:5] > 0.0) == (h >= 0.25))

    @settings(max_examples=80, deadline=None)
    @given(profile=st.sampled_from(BUILTIN_PROFILES),
           w=hnp.arrays(float, st.integers(2, 60),
                        elements=st.one_of(st.floats(-1.0, 1.0),
                                           st.sampled_from(np.arange(-8, 9) / 8.0))),
           h=st.one_of(st.sampled_from([0.125, 0.25, 0.5]), st.floats(0.05, 2.0)),
           seed=st.integers(0, 2**32 - 1))
    def test_row_permutation_invariance(self, profile, w, h, seed):
        kern = make_kernel(builtin_profile(profile), 1)
        rng = np.random.default_rng(seed)
        W, Y = w[:, None], rng.uniform(-1.0, 1.0, w.size)
        perm = rng.permutation(w.size)
        mass, eta = prefix_loo(kern, W, Y, h)
        moved_mass, moved_eta = prefix_loo(kern, W[perm], Y[perm], h)
        back_mass, back_eta = np.empty_like(mass), np.empty_like(eta)
        back_mass[perm], back_eta[perm] = moved_mass, moved_eta
        assert_prefix_close(kern, W, Y, h, back_mass, back_eta, mass, eta)
        ref_mass, ref_eta, _ = _nw_core(kern, W, Y, W, h, leave_one_out=True)
        assert_prefix_close(kern, W, Y, h, mass, eta, ref_mass, ref_eta)

    def test_custom_profile_takes_slab_path(self, monkeypatch):
        """The path follows the profile's power, never its name."""
        builtin = builtin_profile("triweight_poly3")
        custom = make_kernel(KernelProfile(name="triweight_poly3", raw_profile=builtin.raw_profile,
                                           smoothness_order=2), 1)
        assert custom.profile.power is None
        calls = []
        core = npregress._nw_core

        def counting_core(*args, **kwargs):
            calls.append(kwargs.get("leave_one_out"))
            return core(*args, **kwargs)

        monkeypatch.setattr(npregress, "_nw_core", counting_core)
        rng = np.random.default_rng(9)
        W = rng.uniform(-1.0, 1.0, size=(200, 1))
        Y = np.sin(3.0 * W[:, 0]) + 0.1 * rng.standard_normal(200)
        rule = BandwidthRule(kind="loocv", cv_grid=(0.1, 0.2, 0.4))
        h_custom = bandwidth(rule, n=200, p=1, d=1, kernel=custom, W=W, Y=Y)
        assert calls == [True] * 3
        assert bandwidth(rule, n=200, p=1, d=1, kernel=TRIWEIGHT_1D, W=W, Y=Y) == h_custom
        assert calls == [True] * 3

    def test_replaced_profile_takes_slab_path(self, monkeypatch):
        """power is not an argument, and a profile replaced from a built-in
        drops it: triweight with biweight's raw profile must not run the
        prefix sums with triweight's coefficients."""
        biweight = builtin_profile("biweight")
        with pytest.raises(TypeError):
            KernelProfile(name="custom", raw_profile=biweight.raw_profile, power=3)
        swapped = dataclasses.replace(builtin_profile("triweight_poly3"),
                                      raw_profile=biweight.raw_profile)
        assert swapped.power is None
        calls = []
        core = npregress._nw_core

        def counting_core(*args, **kwargs):
            calls.append(kwargs.get("leave_one_out"))
            return core(*args, **kwargs)

        monkeypatch.setattr(npregress, "_nw_core", counting_core)
        rng = np.random.default_rng(11)
        W, Y = rng.standard_normal((400, 1)), rng.standard_normal(400)
        rule = BandwidthRule(kind="loocv", cv_grid=(0.1, 0.3, 0.9))
        h = bandwidth(rule, n=400, p=1, d=1, kernel=make_kernel(swapped, 1), W=W, Y=Y)
        assert calls == [True] * 3
        assert bandwidth(rule, n=400, p=1, d=1, kernel=make_kernel(biweight, 1), W=W, Y=Y) == h

    @pytest.mark.parametrize("h", [1e-9, 1e308])
    def test_chunks_outside_float_range_take_slab_path(self, h):
        """Chunk indices past 2^26, or centres that could overflow, leave
        the bandwidth to the direct core: the same sums bit for bit."""
        w = np.array([0.0, 0.5, 1.0, 1.0 + 1e-10, 3.0])
        Y = np.array([1.0, -2.0, 0.5, 4.0, 3.0])
        mass, eta = _loo_prefix(TRIWEIGHT_1D, w, Y, h)
        ref_mass, ref_eta, _ = _nw_core(TRIWEIGHT_1D, w[:, None], Y, w[:, None], h,
                                        leave_one_out=True)
        assert np.array_equal(mass, ref_mass)
        assert np.array_equal(eta, ref_eta, equal_nan=True)


class TestSupportEdge:
    """A sample exactly R*h away keeps its weight, one ulp further gets 0."""

    @pytest.mark.parametrize("rows", [1, _SORT_MIN_QUERIES])
    def test_uniform_edge(self, rows):
        uniform = make_kernel(builtin_profile("uniform"), 1)
        cfg = NWConfig(kernel=uniform, bandwidth=BandwidthRule(kind="fixed", h_fixed=0.25),
                       d=1, allow_nonsmooth_kernel=True)
        # w0 = 1, h = 0.25: the differences below are exact (Sterbenz), so
        # the radii are exactly 1 and 1 + a few ulps
        X = np.array([[0.75], [1.25], [np.nextafter(0.75, 0.0)],
                      [np.nextafter(1.25, 2.0)], [1.0]])
        Y = np.array([1.0, 2.0, 100.0, 200.0, 3.0])
        out = nw_batch(cfg, oracle_basis([[1.0]]), X, Y, np.ones((rows, 1)))
        for res in out:
            assert res.fit.effective_mass == 3.0 * uniform.norm_const
            assert res.fit.eta_hat == 2.0

    @pytest.mark.parametrize("rows", [1, _SORT_MIN_QUERIES])
    def test_uniform_edge_2d(self, rows):
        """The d > 1 radii decide support exactly at the edge too."""
        uniform = make_kernel(builtin_profile("uniform"), 2)
        cfg = NWConfig(kernel=uniform, bandwidth=BandwidthRule(kind="fixed", h_fixed=0.25),
                       d=2, allow_nonsmooth_kernel=True)
        # w0 = (1, 1): the first two samples lie exactly R*h away, the next
        # two one ulp further
        X = np.array([[1.25, 1.0], [1.0, 0.75], [np.nextafter(1.25, 2.0), 1.0],
                      [1.0, np.nextafter(0.75, 0.0)], [1.0, 1.0]])
        Y = np.array([1.0, 2.0, 100.0, 200.0, 3.0])
        out = nw_batch(cfg, oracle_basis(np.eye(2)), X, Y, np.ones((rows, 2)))
        for res in out:
            assert res.fit.effective_mass == 3.0 * uniform.norm_const
            # the sorted batch sums in another order: the last bits may move
            assert abs(res.fit.eta_hat - 2.0) <= 4 * np.spacing(2.0)


def _oracle(d, p):
    return ReductionBasis(matrix=np.eye(p)[:d], method="oracle", d=d, p=p)


@st.composite
def nw_instances(draw, min_queries=1, y_range=(-1.0, 1.0), min_d=1):
    """Small random NW problems: (config, basis, X, Y, X0)."""
    d = draw(st.integers(min_d, 3))
    p = d + draw(st.integers(0, 2))
    n = draw(st.integers(2, 60))
    m = draw(st.integers(min_queries, min_queries + 20))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    X = draw(hnp.arrays(float, (n, p), elements=unit))
    Y = draw(hnp.arrays(float, n, elements=st.floats(*y_range, allow_nan=False)))
    X0 = 1.2 * draw(hnp.arrays(float, (m, p), elements=unit))
    h = draw(st.floats(0.2, 2.0))
    kern = make_kernel(builtin_profile("triweight_poly3"), d)
    cfg = NWConfig(kernel=kern, bandwidth=BandwidthRule(kind="fixed", h_fixed=h), d=d)
    return cfg, _oracle(d, p), X, Y, X0


def _near_edge_instance():
    """A sorted batch whose first query holds a sample at t^2 = 0.9994: its
    weight (1 - t^2)^3 magnifies rounding in the Gram form's centre about
    5000-fold, so the batch and the single-row call must share that centre."""
    X = np.full((8, 3), -0.9999999999999999)
    X[0, 0], X[3, 0] = 0.7284456035576934, 0.5088105218632717
    X0 = np.zeros((_SORT_MIN_QUERIES, 3))
    X0[0, 1] = -0.121875
    cfg = NWConfig(kernel=make_kernel(builtin_profile("triweight_poly3"), 3), d=3,
                   bandwidth=BandwidthRule(kind="fixed", h_fixed=1.517578125))
    return cfg, _oracle(3, 3), X, np.array([1.0] + [2.0] * 7), X0


FIELDS = ("eta_hat", "f_hat", "sigma2_hat", "ci_lo", "ci_hi", "effective_mass")


def _fields(results):
    """Per field, the values of the fitted rows; the ok pattern as 'ok'."""
    out = {"ok": [r.ok for r in results]}
    for name in FIELDS:
        out[name] = np.array([getattr(r.fit, name) for r in results if r.ok])
    return out


def _rows_reference(cfg, basis, X, Y, X0):
    """The per-row PointResult list nw_batch built before it returned
    columns, from the same core sums."""
    W, W0 = reduce(basis, X), reduce(basis, X0)
    n = X.shape[0]
    h = bandwidth(cfg.bandwidth, n=n, p=X.shape[1], d=cfg.d, kernel=cfg.kernel, W=W, Y=Y)
    z = gaussian_quantile(1.0 - (1.0 - cfg.ci_level) / 2.0)
    mass, eta, sigma2 = _nw_core(cfg.kernel, W, Y, W0, h)
    with np.errstate(all="ignore"):
        f_hats = mass / (n * np.float64(h) ** cfg.d)
    out = []
    for i, (m, e, s2, f_hat) in enumerate(zip(mass.tolist(), eta.tolist(), sigma2.tolist(),
                                              f_hats.tolist())):
        fit = error = None
        if m < 1e-12:
            error = (f"no sample points inside the kernel window at "
                     f"w0={np.array2string(W0[i], precision=6)} "
                     f"with h={h:.6g} (effective mass {m:.3e})")
        elif not math.isfinite(f_hat) or f_hat <= 0.0:
            error = (f"degenerate density estimate {f_hat:.3e} at "
                     f"w0={np.array2string(W0[i], precision=6)} with h={h:.6g}")
        else:
            half = z * math.sqrt(s2 * cfg.kernel.l2_const / m)
            fit = NWFit(eta_hat=e, f_hat=f_hat, sigma2_hat=s2, h_used=h, n=n,
                        ci_lo=e - half, ci_hi=e + half, effective_mass=m)
        out.append(PointResult(index=i, fit=fit, error=error))
    return out


def _batch_case(name):
    """(config, basis, X, Y, X0) of a batch with failed rows."""
    rng = np.random.default_rng(31)
    if name == "empty-windows-sorted":
        # more rows than _SORT_MIN_QUERIES; every fifth query far outside
        X = rng.uniform(-1.0, 1.0, size=(200, 2))
        X0 = rng.uniform(-1.2, 1.2, size=(_SORT_MIN_QUERIES + 8, 2))
        X0[::5] += 50.0
        return (default_config(bandwidth=BandwidthRule(kind="fixed", h_fixed=0.3)),
                oracle_basis([[0.6, 0.8]]), X, rng.standard_normal(200), X0)
    if name == "empty-windows-3d":
        X = rng.uniform(-1.0, 1.0, size=(80, 4))
        X0 = np.vstack([X[:5], X[:3] + 9.0])
        cfg = default_config(kernel=make_kernel(builtin_profile("triweight_poly3"), 3), d=3,
                             bandwidth=BandwidthRule(kind="fixed", h_fixed=0.8))
        return cfg, oracle_basis(np.eye(4)[:3]), X, 10.0 + rng.standard_normal(80), X0
    # degenerate density rows: h**d leaves the float range
    h = 1e200 if name == "degenerate-wide" else 1e-200
    X = rng.standard_normal((30, 2))
    cfg = default_config(kernel=make_kernel(builtin_profile("triweight_poly3"), 2), d=2,
                         bandwidth=BandwidthRule(kind="fixed", h_fixed=h))
    return cfg, oracle_basis(np.eye(2)), X, rng.standard_normal(30), np.vstack([X[:3], X[:2] + 5.0])


def _one_rep_by_rows(cfg, methods, base_seed, test_points, configs, fixed, task):
    """The harness's replication as it was when it read nw_batch row by row."""
    n, rep = task
    gen = simulate.gen_model1 if isinstance(cfg, Model1Config) else simulate.gen_model2
    X, Y, _ = gen(cfg, n, rng_stream=rep)
    out = {}
    for spec in methods:
        est = np.full((test_points.shape[0], 3), np.nan)
        try:
            basis = fixed.get(spec.label) or simulate._fit_basis(spec, cfg, X, Y, rep, base_seed)
            for res in nw_batch(configs[spec.label], basis, X, Y, test_points):
                if res.ok:
                    est[res.index] = (res.fit.eta_hat, res.fit.ci_lo, res.fit.ci_hi)
        except RednwError:
            pass
        out[spec.label] = est
    return task, out


class TestNWBatch:
    CASES = ("empty-windows-sorted", "empty-windows-3d", "degenerate-wide", "degenerate-narrow")

    @pytest.mark.parametrize("case", CASES)
    def test_fields_match_row_reference(self, case):
        cfg, basis, X, Y, X0 = _batch_case(case)
        batch = nw_batch(cfg, basis, X, Y, X0)
        ref = _rows_reference(cfg, basis, X, Y, X0)
        assert isinstance(batch, NWBatch) and len(batch) == len(ref) == len(X0)
        assert 0 < sum(not r.ok for r in ref)
        assert list(batch) == ref
        assert batch.ok.tolist() == [r.ok for r in ref]
        assert batch.errors == {r.index: r.error for r in ref if not r.ok}
        assert batch.n == X.shape[0] and all(r.fit.h_used == batch.h for r in ref if r.ok)
        mass, _, _ = _nw_core(cfg.kernel, reduce(basis, X), Y, reduce(basis, X0), batch.h)
        assert batch.mass.tolist() == mass.tolist()
        for name, col in (("eta_hat", batch.eta_hat), ("sigma2_hat", batch.sigma2_hat),
                          ("f_hat", batch.f_hat), ("ci_lo", batch.ci_lo), ("ci_hi", batch.ci_hi)):
            want = [getattr(r.fit, name) if r.ok else math.nan for r in ref]
            np.testing.assert_array_equal(col, want, err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(inst=nw_instances(), far=st.integers(0, 3))
    def test_random_batches_match_row_reference(self, inst, far):
        cfg, basis, X, Y, X0 = inst
        X0 = X0.copy()
        X0[:far] += 10.0  # empty windows
        assert list(nw_batch(cfg, basis, X, Y, X0)) == _rows_reference(cfg, basis, X, Y, X0)

    def test_sequence_protocol(self):
        cfg, basis, X, Y, X0 = _batch_case("empty-windows-sorted")
        batch = nw_batch(cfg, basis, X, Y, X0)
        m = len(X0)
        assert isinstance(batch, Sequence) and len(batch) == m
        assert batch[-1] == batch[m - 1] and batch[-1].index == m - 1
        assert batch[-m] == batch[0] and batch[0].index == 0
        for i in (m, -m - 1):
            with pytest.raises(IndexError):
                batch[i]
        rows = list(batch)
        assert [r.index for r in rows] == list(range(m))
        assert rows == [batch[i] for i in range(m)]
        assert [r.ok for r in reversed(batch)] == batch.ok.tolist()[::-1]
        assert batch[1:4] == rows[1:4] and batch[::-7] == rows[::-7]

    @pytest.mark.parametrize("model", [1, 2])
    def test_harness_cells_unchanged(self, model, monkeypatch):
        """The harness reads the columns; its table equals the row-by-row one."""
        if model == 1:
            cfg, reduction, ns = Model1Config(seed=4), "pls", [40, 70]
        else:
            cfg, reduction, ns = Model2Config(seed=4), "pfc", [150]
        methods = [MethodSpec(method=m, reduction=reduction if m == "nprt" else None)
                   for m in ("np", "npr", "nprt")]
        # h = 1 leaves NP's 6-d and 20-d windows empty in some replications
        kw = dict(ns=ns, test_points=draw_test_points(cfg, 4), n_rep=5, base_seed=9,
                  bandwidth_rule=BandwidthRule(kind="fixed", h_fixed=1.0))
        table = run_replications(cfg, methods, **kw)
        monkeypatch.setattr(simulate, "_one_rep", _one_rep_by_rows)
        ref = run_replications(cfg, methods, **kw)
        assert repr(table.cells) == repr(ref.cells)
        assert any(c.n_missing for c in ref.cells)
        for key, v in ref.estimates.items():
            np.testing.assert_array_equal(table.estimates[key], v)
            np.testing.assert_array_equal(table.intervals[key], ref.intervals[key])


class TestProperties:
    """Invariances the estimator must keep on arbitrary small inputs."""

    @settings(max_examples=60, deadline=None)
    @given(inst=nw_instances(), seed=st.integers(0, 2**32 - 1))
    def test_row_permutation_invariance(self, inst, seed):
        cfg, basis, X, Y, X0 = inst
        perm = np.random.default_rng(seed).permutation(len(Y))
        base = _fields(nw_batch(cfg, basis, X, Y, X0))
        moved = _fields(nw_batch(cfg, basis, X[perm], Y[perm], X0))
        assert moved["ok"] == base["ok"]
        for name in FIELDS:
            np.testing.assert_allclose(moved[name], base[name], rtol=1e-10, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(inst=nw_instances(), shift=st.floats(-1e4, 1e4))
    def test_y_shift_equivariance(self, inst, shift):
        cfg, basis, X, Y, X0 = inst
        base = nw_batch(cfg, basis, X, Y, X0)
        moved = nw_batch(cfg, basis, X, Y + shift, X0)
        assert [r.ok for r in moved] == [r.ok for r in base]
        for a, b in zip(base, moved):
            if not a.ok:
                continue
            np.testing.assert_allclose(b.fit.eta_hat, a.fit.eta_hat + shift, rtol=1e-12, atol=1e-9)
            np.testing.assert_allclose(b.fit.sigma2_hat, a.fit.sigma2_hat, rtol=1e-6, atol=1e-9)
            np.testing.assert_allclose(b.fit.ci_hi - b.fit.ci_lo, a.fit.ci_hi - a.fit.ci_lo,
                                       rtol=1e-6, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(inst=nw_instances(min_d=2),
           offset=hnp.arrays(float, 5, elements=st.floats(-1e4, 1e4)))
    def test_x_shift_invariance(self, inst, offset):
        """Shifting X and X0 together moves no estimate, however far from
        the origin the data sit."""
        cfg, basis, X, Y, X0 = inst
        shift = offset[:X.shape[1]]
        base = nw_batch(cfg, basis, X, Y, X0)
        moved = nw_batch(cfg, basis, X + shift, Y, X0 + shift)
        for a, b in zip(base, moved):
            if not (a.ok and a.fit.effective_mass > 1e-6):
                continue
            assert b.ok
            np.testing.assert_allclose(b.fit.effective_mass, a.fit.effective_mass, rtol=1e-8)
            np.testing.assert_allclose(b.fit.eta_hat, a.fit.eta_hat, rtol=0, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(inst=nw_instances(), scale=st.floats(0.01, 100.0))
    def test_co_scaling_of_x_and_h(self, inst, scale):
        cfg, basis, X, Y, X0 = inst
        scaled_cfg = NWConfig(kernel=cfg.kernel, d=cfg.d, bandwidth=BandwidthRule(
            kind="fixed", h_fixed=cfg.bandwidth.h_fixed * scale))
        base = _fields(nw_batch(cfg, basis, X, Y, X0))
        moved = _fields(nw_batch(scaled_cfg, basis, scale * X, Y, scale * X0))
        assert moved["ok"] == base["ok"]
        for name in ("eta_hat", "sigma2_hat", "ci_lo", "ci_hi", "effective_mass"):
            np.testing.assert_allclose(moved[name], base[name], rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(moved["f_hat"] * scale ** cfg.d, base["f_hat"], rtol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(inst=nw_instances(min_queries=_SORT_MIN_QUERIES, y_range=(1.0, 2.0)))
    @example(inst=_near_edge_instance())
    def test_sorted_batch_matches_rows_one_at_a_time(self, inst):
        cfg, basis, X, Y, X0 = inst
        batch = nw_batch(cfg, basis, X, Y, X0)
        single = [nw_batch(cfg, basis, X, Y, X0[i:i + 1])[0] for i in range(len(X0))]
        a, b = _fields(batch), _fields(single)
        assert a["ok"] == b["ok"]
        for name in FIELDS:
            # sigma2 of a window whose responses agree to the last bits is
            # rounding noise near 1e-32 on both sides
            np.testing.assert_allclose(a[name], b[name], rtol=1e-12,
                                       atol=1e-24 if name == "sigma2_hat" else 0.0)
