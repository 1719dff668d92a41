"""Tests for the plug-in kernel regression estimator and its intervals."""

import dataclasses
import math
import tracemalloc
from collections.abc import Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rednw import npregress, simulate
from rednw.errors import ArgumentError, EmptyWindowError, RednwError
from rednw.kernels import BUILTIN_PROFILES, KernelProfile, builtin_profile, make_kernel
from rednw.npregress import (
    _BLOCK_ELEMS,
    _GRAM_MAX_OFFSET,
    _SORT_MIN_QUERIES,
    BandwidthRule,
    NWBatch,
    NWConfig,
    NWFit,
    PointResult,
    _nw_core,
    _nw_prefix,
    bandwidth,
    gaussian_quantile,
    nw_batch,
    nw_estimate,
)
from rednw.reduction import ReductionBasis, oracle_basis, reduce
from rednw.simulate import (
    MethodSpec,
    Model1Config,
    Model2Config,
    default_bandwidth_rule,
    draw_test_points,
    gen_model1,
    gen_model2,
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
    """The sup-norm error over a grid, max |eta_hat - truth| of a batch whose
    rows are all ok: a failed row would make it understate the error."""

    def test_zero_against_own_fits(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-1.0, 1.0, size=(60, 1))
        Y = np.sin(3.0 * X[:, 0]) + 0.1 * rng.standard_normal(60)
        basis = oracle_basis([[1.0]])
        cfg = default_config(bandwidth=BandwidthRule(kind="fixed", h_fixed=0.5))
        grid = np.linspace(-0.5, 0.5, 11).reshape(-1, 1)
        fits = [r.fit.eta_hat for r in nw_batch(cfg, basis, X, Y, grid)]
        batch = nw_batch(cfg, basis, X, Y, grid)
        assert batch.ok.all()
        assert np.max(np.abs(batch.eta_hat - np.array(fits))) == 0.0

    def test_empty_window_propagates(self):
        X = np.array([[0.0], [0.1], [0.2]])
        Y = np.array([1.0, 2.0, 3.0])
        batch = nw_batch(default_config(), oracle_basis([[1.0]]), X, Y, np.array([[40.0]]))
        assert batch.ok.tolist() == [False] and np.isnan(batch.eta_hat).all()
        assert batch.errors[0].startswith("no sample points inside the kernel window")

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
            batch = nw_batch(cfg, basis, X, Y, grid)
            assert batch.ok.all()
            errs[n] = np.max(np.abs(batch.eta_hat - truth))
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
    return nw_batch(cfg, basis, X, Y, np.atleast_2d(x0))


ENTRIES = ("nw_estimate", "nw_batch")


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

    @pytest.mark.parametrize("n", [20, 2 * _SORT_MIN_QUERIES + 7, 600])
    def test_matches_dense_multi_chunk(self, n, monkeypatch):
        """With blocks of 64 radii a d = 2 row's slab spans several chunks,
        and its own sample often lies in a later chunk than the first: the
        block zeroes it there, by index."""
        monkeypatch.setattr(npregress, "_BLOCK_ELEMS", 64)
        kern = make_kernel(builtin_profile("triweight_poly3"), 2)
        grid = (0.25, 0.5, 1.0)
        rng = np.random.default_rng(700 + n)
        W = np.round(8.0 * rng.uniform(-1.0, 1.0, size=(n, 2))) / 8.0
        # isolated rows, and an isolated tie at radius 0 split over chunks
        W[:2] = 10.0 + 5.0 * np.arange(2)[:, None]
        W[2:4] = 100.0
        Y = rng.standard_normal(n)
        expected, per_h = dense_loocv(kern, W, Y, grid)
        rule = BandwidthRule(kind="loocv", cv_grid=grid)
        assert bandwidth(rule, n=n, p=2, d=2, kernel=kern, W=W, Y=Y) == expected
        k0 = kern.weights(np.zeros(1))[0]
        for h in grid:
            mass, pred, sigma2 = _nw_core(kern, W, Y, W, h, leave_one_out=True)
            ref_mass, ref_pred = per_h[h]
            np.testing.assert_allclose(mass, ref_mass, rtol=1e-12, atol=1e-15)
            assert np.array_equal(mass > 0, ref_mass > 0)
            ok = ref_mass > 0
            np.testing.assert_allclose(pred[ok], ref_pred[ok], rtol=1e-10, atol=1e-12)
            assert np.all(mass[:2] == 0.0) and np.all(np.isnan(pred[:2]))
            assert np.all(np.isnan(sigma2[:2]))
            # each tied row keeps the other's weight, and only that; its
            # estimate may round once, where the slab mean is added back
            assert np.all(mass[2:4] == k0)
            np.testing.assert_allclose(pred[2:4], Y[[3, 2]], rtol=1e-14, atol=1e-15)
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

    @pytest.mark.parametrize("d", [1, 2])
    def test_responses_near_the_float_range(self, d):
        """Y = +-1e300 squares past the float range unscaled; the criterion
        is formed on Y scaled by a power of two, so an h is chosen, without
        a warning, and it is the h chosen for Y = +-1."""
        rng = np.random.default_rng(11)
        W = rng.uniform(-1.0, 1.0, size=(200, d))
        sign = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        rule = BandwidthRule(kind="loocv", cv_grid=(0.1, 0.5))
        kern = make_kernel(builtin_profile("triweight_poly3"), d)
        h = bandwidth(rule, n=200, p=d, d=d, kernel=kern, W=W, Y=1e300 * sign)
        assert h == bandwidth(rule, n=200, p=d, d=d, kernel=kern, W=W, Y=sign)

    def test_every_window_empty_keeps_its_error(self):
        """A grid whose every bandwidth leaves every leave-one-out window
        empty still fails, with its class and message, at any response scale."""
        W = np.arange(10.0)[:, None]
        rule = BandwidthRule(kind="loocv", cv_grid=(0.1, 0.5))
        for scale in (1.0, 1e300):
            with pytest.raises(ArgumentError, match="^every cv_grid bandwidth produced "
                               "empty leave-one-out windows$"):
                bandwidth(rule, n=10, p=1, d=1, kernel=TRIWEIGHT_1D, W=W,
                          Y=scale * np.cos(np.arange(10.0)))


def prefix_loo(kernel, W, Y, h):
    """_nw_prefix's leave-one-out sums on the sorted sample, returned in the
    original row order."""
    order = np.argsort(W[:, 0], kind="stable")
    mass, eta = np.empty(len(Y)), np.empty(len(Y))
    mass[order], eta[order], _ = _nw_prefix(kernel, W[order, 0], Y[order], h)
    return mass, eta


def assert_prefix_close(kernel, W, Y, h, mass, eta, ref_mass, ref_eta):
    """The prefix sums against a direct evaluation: the same empty windows,
    and mass and estimate within _nw_prefix's stated rounding bound, n eps
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
    def test_chunks_outside_float_range_take_slab_path(self, h, monkeypatch):
        """Chunk indices past 2^26, or centres that could overflow, leave
        the bandwidth to the direct core: the same sums bit for bit."""
        w = np.array([0.0, 0.5, 1.0, 1.0 + 1e-10, 3.0])
        Y = np.array([1.0, -2.0, 0.5, 4.0, 3.0])
        assert _nw_prefix(TRIWEIGHT_1D, w, Y, h) is None
        sums = []
        core = npregress._nw_core

        def recording_core(*args, **kwargs):
            sums.append(core(*args, **kwargs))
            return sums[-1]

        monkeypatch.setattr(npregress, "_nw_core", recording_core)
        rule = BandwidthRule(kind="loocv", cv_grid=(h,))
        assert bandwidth(rule, n=5, p=1, d=1, kernel=TRIWEIGHT_1D, W=w[:, None], Y=Y) == h
        ref_mass, ref_eta, _ = core(TRIWEIGHT_1D, w[:, None], Y, w[:, None], h, leave_one_out=True)
        assert len(sums) == 1
        assert np.array_equal(sums[0][0], ref_mass)
        assert np.array_equal(sums[0][1], ref_eta, equal_nan=True)


def slab_batch(cfg, basis, X, Y, X0):
    """nw_batch with the d = 1 prefix path switched off: the slab sums."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npregress, "_PREFIX_WORK", math.inf)
        return nw_batch(cfg, basis, X, Y, X0)


def prefix_batch(cfg, basis, X, Y, X0):
    """nw_batch, checking that its sums came from the prefix path."""
    queries = []

    def spy(kernel, w, Y, h, q=None):
        queries.append(q)
        return _nw_prefix(kernel, w, Y, h, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(npregress, "_nw_prefix", spy)
        batch = nw_batch(cfg, basis, X, Y, X0)
    assert len(queries) == 1 and queries[0] is not None
    return batch


def prefix_bounds(kernel, w, Y, q, h, eta):
    """_nw_prefix's stated rounding bounds, per window sample eps 5^k T_r
    on a row's sums of (Y - ybar)^r, T_r = sum_i |Y_i - ybar|^r: those of
    the raw mass S_0, the estimate and the variance's numerator."""
    n, k = len(Y), kernel.profile.power
    with np.errstate(over="ignore"):
        t = np.abs(q[:, None] - w[None, :]) / h
    b = np.finfo(float).eps * 5.0 ** k * np.sum(t <= 1.0 if k == 0 else t < 1.0, axis=1)
    dy = Y - Y.mean()
    t1, t2, mu = np.sum(np.abs(dy)), np.sum(dy * dy), np.abs(eta - Y.mean())
    return n * b, b * (t1 + mu * n), b * (t2 + 2.0 * mu * t1 + mu * mu * n)


def assert_batch_close(kernel, w, Y, q, batch, ref):
    """A prefix-path batch against the slab path's: the same ok pattern and
    errors, and every column within _nw_prefix's stated rounding bounds; the
    slab's own sums add about 1e-13 relative."""
    assert batch.ok.tolist() == ref.ok.tolist()
    assert batch.errors == ref.errors
    assert np.all(batch.mass[ref.mass == 0] == 0) and not np.signbit(batch.mass).any()
    b0, b1, b2 = prefix_bounds(kernel, w, Y, q, batch.h, ref.eta_hat)
    assert np.all(np.abs(batch.mass - ref.mass) <= kernel.norm_const * b0 + 1e-13 * ref.mass)
    ok, big = ref.ok, np.max(np.abs(Y))
    mass, b0, b1, b2 = ref.mass[ok] / kernel.norm_const, b0[ok], b1[ok], b2[ok]
    s2 = ref.sigma2_hat[ok]
    tol = {"eta_hat": b1 / mass + 1e-12 * big,
           "sigma2_hat": (b2 + s2 * b0) / mass + 1e-12 * s2 + (4 * np.spacing(big)) ** 2,
           "f_hat": (b0 / mass + 1e-13) * ref.f_hat[ok]}
    half = ref.ci_hi[ok] - ref.eta_hat[ok]
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = 0.51 * half * (tol["sigma2_hat"] / s2 + b0 / mass)
    tol["ci_lo"] = tol["ci_hi"] = tol["eta_hat"] + np.where(s2 > 0, spread, 0.0) + 1e-12 * big
    for name, tolerance in tol.items():
        got, want = getattr(batch, name)[ok], getattr(ref, name)[ok]
        assert np.all(np.abs(got - want) <= tolerance), name


@st.composite
def prefix_instances(draw):
    """d = 1 batches whose windows are wide enough for the prefix path:
    samples with ties on a 1/8 grid, dyadic bandwidths, so samples sit
    exactly at q +- h, and queries left and right of every sample, at the
    sample's edges and far outside (past 2^26 chunks and past the float
    range of (q - w_0) / h)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(300, 500)), draw(st.integers(200, 400))
    w = rng.uniform(-1.0, 1.0, n)
    tied = rng.random(n) < draw(st.floats(0.0, 1.0))
    w[tied] = np.round(8.0 * w[tied]) / 8.0
    h = draw(st.one_of(st.sampled_from([0.75, 1.0, 1.25, 2.0]), st.floats(0.75, 2.0)))
    q = rng.uniform(-1.2, 1.2, m)
    on_grid = rng.random(m) < 0.3
    q[on_grid] = np.round(8.0 * q[on_grid]) / 8.0
    lo, hi, big = w.min(), w.max(), np.finfo(float).max
    edges = [lo - h, hi + h, lo - np.spacing(lo), hi + 1e-3, lo - 2.0, hi + 5.0,
             -1e300, 1e300, -big, big]
    q[:len(edges)] = edges
    Y = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([1.0, 1e-3, 1e6]))
    return w, Y, rng.permutation(q), h


class TestBatchPrefix:
    """d = 1 batches on prefix sums against the slab path."""

    @pytest.mark.parametrize("profile", BUILTIN_PROFILES)
    @settings(max_examples=25, deadline=None)
    @given(inst=prefix_instances())
    def test_matches_slab_path(self, profile, inst):
        w, Y, q, h = inst
        kern = make_kernel(builtin_profile(profile), 1)
        cfg = NWConfig(kernel=kern, bandwidth=BandwidthRule(kind="fixed", h_fixed=h), d=1,
                       allow_nonsmooth_kernel=True)
        args = (cfg, oracle_basis([[1.0]]), w[:, None], Y, q[:, None])
        batch, ref = prefix_batch(*args), slab_batch(*args)
        assert not ref.ok.all()
        assert_batch_close(kern, w, Y, q, batch, ref)

    def test_variance_cancellation_falls_back(self):
        """Y = 1e8 + 1e-4 noise on one half of the sample and 1e-4 noise on
        the other, with Y constant over a stretch: inside either half the
        prefix variance S_2 - S_1^2 / S_0 cancels to rounding, so those rows
        are summed directly. sigma2 stays >= 0, matches the direct centred
        variance, and is exactly 0 where the window's responses agree; with
        the fallback switched off the same rows are far off."""
        rng = np.random.default_rng(12)
        n, h = 600, 0.4
        w = np.sort(rng.uniform(-1.0, 1.0, n))
        Y = np.where(w > 0, 1e8, 0.0) + 1e-4 * rng.standard_normal(n)
        Y[w > 0.5] = 1e8 + 2.0 ** -20
        q = np.linspace(-0.95, 0.95, 400)
        cfg = NWConfig(kernel=TRIWEIGHT_1D, bandwidth=BandwidthRule(kind="fixed", h_fixed=h), d=1)
        args = (cfg, oracle_basis([[1.0]]), w[:, None], Y, q[:, None])
        batch = prefix_batch(*args)
        assert batch.ok.all() and np.all(batch.sigma2_hat >= 0.0)
        # the direct centred variance, on responses shifted by one of the
        # window's own (exact for the 1e8 half, by Sterbenz)
        wts = TRIWEIGHT_1D.weights(np.abs(q[:, None] - w[None, :]) / h)
        shift = Y[np.argmin(np.abs(q[:, None] - w[None, :]), axis=1)]
        Yc = Y[None, :] - shift[:, None]
        mean = np.sum(wts * Yc, axis=1) / wts.sum(axis=1)
        direct = np.sum(wts * (Yc - mean[:, None]) ** 2, axis=1) / wts.sum(axis=1)
        # rows whose window holds one half only are summed directly; the
        # rest are within the stated bound
        one_sided = (q + h < 0) | (q - h > 0)
        assert one_sided.sum() > 100
        np.testing.assert_allclose(batch.sigma2_hat[one_sided], direct[one_sided], rtol=1e-9, atol=0.0)
        b0, _, b2 = prefix_bounds(TRIWEIGHT_1D, w, Y, q, h, batch.eta_hat)
        tol = (b2 + direct * b0) / wts.sum(axis=1) + 1e-9 * direct
        assert np.all(np.abs(batch.sigma2_hat - direct) <= tol)
        constant = q - h > 0.5
        assert constant.sum() > 10 and np.all(batch.sigma2_hat[constant] == 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(npregress, "_PREFIX_SAFETY", 0.0)
            unsafe = prefix_batch(*args)
        off = np.abs(unsafe.sigma2_hat - direct)[one_sided] / direct[one_sided].clip(1e-8)
        assert np.median(off) > 1.0


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

    def test_uniform_edge_prefix(self):
        """test_uniform_edge at a size that takes the d = 1 prefix path: the
        samples exactly h away count, those one ulp further do not. Counts
        are exact, so the mass is; the estimate is within the prefix sums'
        rounding bound of 2."""
        uniform = make_kernel(builtin_profile("uniform"), 1)
        cfg = NWConfig(kernel=uniform, bandwidth=BandwidthRule(kind="fixed", h_fixed=0.25),
                       d=1, allow_nonsmooth_kernel=True)
        X = np.array([[0.75], [1.25], [np.nextafter(0.75, 0.0)],
                      [np.nextafter(1.25, 2.0)], [1.0]] + [[1.0]] * 40)
        Y = np.array([1.0, 2.0, 100.0, 200.0, 3.0] + [2.0] * 40)
        out = prefix_batch(cfg, oracle_basis([[1.0]]), X, Y, np.ones((64, 1)))
        assert out.ok.all()
        assert np.all(out.mass == 43.0 * uniform.norm_const)
        # |delta eta| <= eps (T_1 + |mu| n) count / S_0, with S_0 = count
        dy = Y - Y.mean()
        tol = np.finfo(float).eps * (np.sum(np.abs(dy)) + abs(2.0 - Y.mean()) * len(Y))
        assert np.all(np.abs(out.eta_hat - 2.0) <= tol)

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


def direct_sums(kernel, W, Y, w0, h):
    """One row's kernel mass, estimate and centred variance from the direct
    radii ||w0 - W_i|| / h, each sum taken exactly rounded (math.fsum)."""
    wts = kernel.weights(np.linalg.norm((W - w0) / h, axis=1))
    mass = math.fsum(wts)
    eta = math.fsum(wts * Y) / mass
    return mass, eta, math.fsum(wts * (Y - eta) ** 2) / mass


def gram_slack(kernel, W, w0, h):
    """How far the Gram form's rounding can move the kernel mass of the row
    at w0 from ``direct_sums``' for a (1 - t^2)^k profile at d <= 6. Each
    squared radius s = t^2 in the window moves by at most (2d + 8) eps
    (|w0 - mu|^2 + |w - mu|^2) / h^2, mu the sample mean, and its weight
    c (1 - s)^k by c k (1 - s)^(k - 1) times that, doubled for the change
    of slope; radii within 64 eps of those norms of the edge are direct."""
    mu = W.mean(axis=0)
    s = np.sum(((W - w0) / h) ** 2, axis=1)
    ds = ((2 * W.shape[1] + 8) * np.finfo(float).eps
          * (np.sum((w0 - mu) ** 2) + np.sum((W - mu) ** 2, axis=1)) / h ** 2)
    k, inside = kernel.profile.power, s < 1.0
    return 2.0 * kernel.norm_const * k * float(np.sum((1.0 - s[inside]) ** (k - 1) * ds[inside]))


def chunks_with_mass(kernel, W, w0, h, m):
    """Indices of the sample chunks an m-row unsorted batch at d > 1 takes
    that hold kernel mass for the row at w0."""
    step = _BLOCK_ELEMS // m
    live = kernel.weights(np.linalg.norm((W - w0) / h, axis=1)) > 0
    return sorted({int(i) // step for i in np.flatnonzero(live)})


class TestChunkMerge:
    """A small unsorted batch at d > 1 over more than _BLOCK_ELEMS samples
    sums each row over several sample chunks and merges them."""

    @pytest.mark.parametrize("shift", [0.0, 1e8])
    @pytest.mark.parametrize("d", [2, 5])
    def test_rows_across_chunks_match_direct_sums(self, d, shift):
        rng = np.random.default_rng(40 + d)
        n, m, h = _BLOCK_ELEMS + 3000, _SORT_MIN_QUERIES - 1, 0.6 if d == 2 else 1.4
        W = rng.uniform(-1.0, 1.0, size=(n, d))
        # Y shifted far from zero: the chunk means must not cancel
        Y = shift + np.sin(2.0 * W[:, 0]) + 0.1 * rng.standard_normal(n)
        W0 = rng.uniform(-0.8, 0.8, size=(m, d))
        kern = make_kernel(builtin_profile("triweight_poly3"), d)
        mass, eta, sigma2 = _nw_core(kern, W, Y, W0, h)
        for i in range(m):
            assert len(chunks_with_mass(kern, W, W0[i], h, m)) > 2
            ref = direct_sums(kern, W, Y, W0[i], h)
            np.testing.assert_allclose([mass[i], eta[i], sigma2[i]], ref, rtol=1e-12, atol=0)

    def test_uniform_edge_across_chunks(self):
        """Samples exactly R*h from the query, in the first and last chunks,
        keep their weight; those one ulp further, in middle chunks, get 0."""
        rng = np.random.default_rng(47)
        n = _BLOCK_ELEMS + 1000
        W = rng.uniform(0.5, 1.5, size=(n, 2))
        W[0], W[-1] = (1.25, 1.0), (1.0, 0.75)
        W[6000], W[12000] = (np.nextafter(1.25, 2.0), 1.0), (1.0, np.nextafter(0.75, 0.0))
        Y = rng.standard_normal(n)
        W0 = np.ones((3, 2))
        uniform = make_kernel(builtin_profile("uniform"), 2)
        mass, eta, sigma2 = _nw_core(uniform, W, Y, W0, 0.25)
        t = np.linalg.norm((W - W0[0]) / 0.25, axis=1)
        assert t[0] == t[-1] == 1.0 and t[6000] > 1.0 and t[12000] > 1.0
        ref = direct_sums(uniform, W, Y, W0[0], 0.25)
        np.testing.assert_allclose(mass / uniform.norm_const, np.sum(t <= 1.0), rtol=1e-12)
        for i in range(3):
            np.testing.assert_allclose([mass[i], eta[i], sigma2[i]], ref, rtol=1e-12, atol=0)

    def test_windows_missing_chunks_and_empty_rows(self):
        """A row whose window misses the first chunk matches the direct
        sums; a row with no mass keeps NaN estimate and variance and the
        empty-window error."""
        rng = np.random.default_rng(53)
        n = _BLOCK_ELEMS + 3000
        X = rng.uniform(-1.0, 1.0, size=(n, 2))
        X = X[np.argsort(X[:, 0])]
        Y = np.cos(3.0 * X[:, 1]) + 0.1 * rng.standard_normal(n)
        X0 = np.array([[0.9, 0.0], [0.0, 1.5]])
        kern = make_kernel(builtin_profile("triweight_poly3"), 2)
        live = chunks_with_mass(kern, X, X0[0], 0.3, 2)
        assert live[0] > 0 and len(live) > 1
        assert chunks_with_mass(kern, X, X0[1], 0.3, 2) == []
        mass, eta, sigma2 = _nw_core(kern, X, Y, X0, 0.3)
        np.testing.assert_allclose([mass[0], eta[0], sigma2[0]],
                                   direct_sums(kern, X, Y, X0[0], 0.3), rtol=1e-12, atol=0)
        assert mass[1] == 0.0 and np.isnan(eta[1]) and np.isnan(sigma2[1])
        cfg = default_config(kernel=kern, d=2, bandwidth=BandwidthRule(kind="fixed", h_fixed=0.3))
        batch = nw_batch(cfg, oracle_basis(np.eye(2)), X, Y, X0)
        assert batch.ok.tolist() == [True, False]
        assert batch.errors == {1: "no sample points inside the kernel window at w0=[0.  1.5] "
                                   "with h=0.3 (effective mass 0.000e+00)"}


class TestReplicationMemory:
    """One NP call on model-2 data (n = 20,000, p = 20) holds the reduced
    sample W beside X, and no centred copy of it."""

    @staticmethod
    def _np_call():
        cfg = Model2Config(seed=3)
        X, Y, _ = gen_model2(cfg, 20_000)
        conf = NWConfig(kernel=make_kernel(builtin_profile("triweight_poly3"), 20), d=20,
                        bandwidth=default_bandwidth_rule(cfg))
        return X, lambda: nw_batch(conf, oracle_basis(np.eye(20)), X, Y, draw_test_points(cfg, 10))

    def test_np_batch_peak(self):
        X, call = self._np_call()
        tracemalloc.start()
        try:
            batch = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.ok.all()
        assert peak < 1.5 * X.nbytes

    def test_gram_blocks_bounded(self, monkeypatch):
        sizes = []
        gram_radii = npregress._gram_radii

        def spy(W, W0, h, R, *centred):
            sizes.append(W0.shape[0] * W.shape[0])
            return gram_radii(W, W0, h, R, *centred)

        monkeypatch.setattr(npregress, "_gram_radii", spy)
        _, call = self._np_call()
        call()
        assert len(sizes) > 1 and max(sizes) <= _BLOCK_ELEMS

    def test_identity_basis_reads_x_itself(self):
        """NP's identity basis reduces X to X itself: no n x p copy, X and
        X0 unchanged, and the sums of the explicit products X @ I, X0 @ I,
        which equal X and X0 bit for bit on this data."""
        cfg = Model2Config(seed=3)
        X, Y, _ = gen_model2(cfg, 20_000)
        X0 = draw_test_points(cfg, 10)
        conf = NWConfig(kernel=make_kernel(builtin_profile("triweight_poly3"), 20), d=20,
                        bandwidth=default_bandwidth_rule(cfg))
        basis = oracle_basis(np.eye(20))
        X_in, X0_in = X.copy(), X0.copy()
        tracemalloc.start()
        try:
            batch = nw_batch(conf, basis, X, Y, X0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.ok.all()
        assert peak < 0.5 * X.nbytes
        assert np.array_equal(X, X_in) and np.array_equal(X0, X0_in)
        W, W0 = reduce(basis, X), reduce(basis, X0)
        assert np.array_equal(W, X) and np.array_equal(W0, X0)
        mass, eta, sigma2 = _nw_core(conf.kernel, W, Y, W0, batch.h)
        assert np.array_equal(batch.mass, mass)
        assert np.array_equal(batch.eta_hat, eta) and np.array_equal(batch.sigma2_hat, sigma2)


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


def _far_rows_instance():
    """A sorted batch whose query 0 lies 5.7 h from the centre and queries
    1-31 8.2 h from it, past _GRAM_MAX_OFFSET h: row 0 keeps the Gram form
    beside them, as in its one-row call. Its one sample in the window, at
    t = 0.9921875, weighs (1 - t^2)^3, which magnifies a difference in t
    about 400-fold."""
    X = np.zeros((17, 2))
    X[0] = (0.0, 0.9921875)
    X0 = np.full((_SORT_MIN_QUERIES, 2), 1.190625)
    X0[0, 0] = 0.0
    cfg = NWConfig(kernel=make_kernel(builtin_profile("triweight_poly3"), 2), d=2,
                   bandwidth=BandwidthRule(kind="fixed", h_fixed=0.2))
    return cfg, _oracle(2, 2), X, np.ones(17), X0


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
    @example(inst=_far_rows_instance())
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

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(2, 6), n=st.integers(2, 200), spread=st.sampled_from([1.0, 10.0]),
           h=st.floats(0.1, 2.0), seed=st.integers(0, 2**32 - 1))
    def test_row_sums_do_not_depend_on_the_batch(self, d, n, spread, h, seed):
        """One query row inside batches of different make-up: alone, among
        near rows, among rows past _GRAM_MAX_OFFSET h from the centre
        (unsorted, and sorted beside near ones), and with the sample read in
        chunks of a few columns. A row past that offset takes direct radii,
        so its sums match the direct ones up to their order in every batch;
        a nearer row's match them within the Gram form's rounding
        (``gram_slack``), which the shape of the block's BLAS product moves."""
        rng = np.random.default_rng(seed)
        W = spread * rng.uniform(-1.0, 1.0, size=(n, d))
        Y = rng.uniform(1.0, 2.0, size=n)
        # within h of a sample, so the window is never empty; with spread 10
        # and a small h the row itself is often far from the centre
        q = W[rng.integers(n)] + 0.99 * h * rng.uniform(-1.0, 1.0, size=d) / math.sqrt(d)
        mu = W.mean(axis=0)
        near = spread * rng.uniform(-1.0, 1.0, size=(_SORT_MIN_QUERIES + 8, d))
        far = mu + (_GRAM_MAX_OFFSET + 1.0) * h * rng.choice([-1.0, 1.0], size=(40, d))
        kern = make_kernel(builtin_profile("triweight_poly3"), d)
        make_ups = [(near[:0], _BLOCK_ELEMS), (near[:3], _BLOCK_ELEMS), (far[:5], _BLOCK_ELEMS),
                    (np.vstack([near[:20], far[:20]]), _BLOCK_ELEMS),
                    (np.vstack([far[:20], near[:20]]), 4 * (_SORT_MIN_QUERIES + 1))]
        ref = direct_sums(kern, W, Y, q, h)
        is_far = np.sum((q - mu) ** 2) > (_GRAM_MAX_OFFSET * h) ** 2
        slack = 0.0 if is_far else gram_slack(kern, W, q, h)
        # the sums' own rounding, in any order; Y - eta and its square are
        # at most 1 in magnitude
        eps = 4 * n * np.finfo(float).eps
        tol = (slack + eps * ref[0], slack / ref[0] + eps * 2.0, slack / ref[0] + eps)
        for others, block in make_ups:
            at = int(rng.integers(len(others) + 1))
            with mock.patch.object(npregress, "_BLOCK_ELEMS", block):
                got = _nw_core(kern, W, Y, np.insert(others, at, q, axis=0), h)
            for name, col, want, err in zip(("mass", "eta", "sigma2"), got, ref, tol):
                assert abs(col[at] - want) <= err, (name, len(others), block, col[at], want, err)
