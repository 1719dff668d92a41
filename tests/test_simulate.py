"""Tests for the simulation designs, replication harness, and experiments."""

import ctypes
import math
import os
import resource
import tracemalloc

import numpy as np
import pytest

from rednw import _blas, simulate
from rednw.errors import ArgumentError, NumericError
from rednw.npregress import BandwidthRule
from rednw.reduction import fit
from rednw.simulate import (
    MethodSpec,
    Model1Config,
    Model2Config,
    coverage_view,
    default_bandwidth_rule,
    draw_test_points,
    emse,
    equivalence_view,
    estimate_density_data,
    gen_model1,
    gen_model2,
    oracle_specs,
    recompute_cell,
    run_replications,
    undersmoothed_rule,
)


class TestModel1Generator:
    def test_sample_covariance_matches_design(self):
        cfg = Model1Config(seed=0)
        X, _, _ = gen_model1(cfg, 100_000, rng_stream=0)
        assert np.abs(np.cov(X, rowvar=False) - cfg.covariance()).max() <= 0.1

    def test_mean_response_near_signal_variance(self):
        # E(Y) = Var(index) + 0 = sigma_signal
        cfg = Model1Config(seed=0)
        _, Y, _ = gen_model1(cfg, 100_000, rng_stream=1)
        assert abs(float(Y.mean()) - 5.0) <= 0.2

    def test_noiseless_response_is_deterministic(self):
        cfg = Model1Config(seed=4, eps_sd=0.0)
        X, Y, truth = gen_model1(cfg, 200, rng_stream=0)
        np.testing.assert_allclose(Y, [truth(x) for x in X], rtol=1e-12)

    def test_truth_is_squared_index(self):
        cfg = Model1Config(seed=0)
        _, _, truth = gen_model1(cfg, 2, rng_stream=0)
        x = np.arange(6.0)
        b = np.ones(6) / np.sqrt(6.0)
        np.testing.assert_allclose(truth(x), float(b @ x) ** 2, rtol=1e-12)

    def test_stream_determinism(self):
        cfg = Model1Config(seed=9)
        X1, Y1, _ = gen_model1(cfg, 50, rng_stream=3)
        X2, Y2, _ = gen_model1(cfg, 50, rng_stream=3)
        assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)
        X3, _, _ = gen_model1(cfg, 50, rng_stream=4)
        assert not np.array_equal(X1, X3)


class TestModel2Generator:
    def test_draw_matches_outer_plus_product(self):
        """X is the matrix product with the outer product added in place:
        bit for bit the sum outer + product, from the same stream."""
        cfg = Model2Config(seed=5)
        n = 500
        rng = simulate._rng(cfg.seed, simulate._TAG_MODEL2, n, 0)
        y = rng.normal(0.0, cfg.y_sd, n)
        f_sum = y + np.abs(y) - cfg.e_abs_y
        expected = np.outer(f_sum, cfg.A) + rng.standard_normal((n, cfg.p)) @ cfg._x_factor
        X, Y, _ = gen_model2(cfg, n)
        assert np.array_equal(X, expected)
        assert np.array_equal(Y, y)

    def test_draw_peak_memory(self):
        """One draw holds at most two n x p arrays at once."""
        cfg = Model2Config(seed=0)
        tracemalloc.start()
        try:
            X, _, _ = gen_model2(cfg, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (20_000, 20)
        assert peak < 2.2 * X.nbytes

    def test_packaged_s_matrix_regenerates(self):
        """The stored scatter matrix is exactly the draw from its recorded seed."""
        cfg = Model2Config(seed=0)
        regen = np.random.default_rng(cfg.s_seed).standard_normal((20, 20))
        assert np.array_equal(cfg.S if cfg.S is not None else regen, regen)
        # delta built from it is well-conditioned but far from spherical
        cond = float(np.linalg.cond(cfg.delta))
        assert 1e2 < cond < 1e12

    def test_feature_components_centered(self):
        cfg = Model2Config(seed=0)
        _, Y, _ = gen_model2(cfg, 100_000, rng_stream=0)
        assert abs(float(Y.mean())) <= 0.05
        assert abs(float(np.abs(Y).mean()) - cfg.e_abs_y) <= 0.05

    def test_conditional_covariance(self):
        cfg = Model2Config(seed=0)
        X, Y, _ = gen_model2(cfg, 100_000, rng_stream=0)
        f_sum = Y + np.abs(Y) - cfg.e_abs_y
        a = np.zeros(20)
        a[:2], a[2:4] = 0.5, -0.5
        resid = X - np.outer(f_sum, a)
        c = np.cov(resid, rowvar=False)
        rel = np.linalg.norm(c - cfg.delta) / np.linalg.norm(cfg.delta)
        assert rel <= 0.05

    def test_mean_zero_pattern(self):
        """Only the first four coordinates respond to the feature sum."""
        cfg = Model2Config(seed=0)
        X, Y, _ = gen_model2(cfg, 100_000, rng_stream=2)
        f_sum = Y + np.abs(Y) - cfg.e_abs_y
        slopes = np.array(
            [np.cov(X[:, j], f_sum)[0, 1] / np.var(f_sum) for j in range(20)]
        )
        np.testing.assert_allclose(slopes[:4], [0.5, 0.5, -0.5, -0.5], atol=0.02)
        assert np.abs(slopes[4:]).max() <= 0.02

    def test_population_direction_solves_delta(self):
        cfg = Model2Config(seed=0)
        a = np.zeros(20)
        a[:2], a[2:4] = 0.5, -0.5
        direct = np.linalg.solve(cfg.delta, a)
        direct /= np.linalg.norm(direct)
        np.testing.assert_allclose(np.abs(cfg.beta_pop @ direct), 1.0, rtol=1e-12)

    def test_ill_conditioned_scatter_rejected(self):
        s = np.eye(20)
        s[0, 0] = 1e-9
        with pytest.raises(ArgumentError):
            Model2Config(seed=0, S=s)

    def test_response_scale(self):
        cfg = Model2Config(seed=0)
        _, Y, _ = gen_model2(cfg, 50_000, rng_stream=5)
        assert abs(float(Y.std()) - 5.0) <= 0.1


class TestEmse:
    def test_constant_vector(self):
        assert emse([4.2, 4.2, 4.2]) == 0.0

    def test_plus_minus_one(self):
        assert emse([1.0, -1.0]) == 1.0

    def test_small_arithmetic(self):
        assert emse([0.0, 1.0, 2.0, 3.0]) == 1.25

    def test_single_estimate(self):
        assert emse([7.7]) == 0.0

    def test_variance_identity(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal(400)
        direct = float(np.mean(v * v) - np.mean(v) ** 2)
        np.testing.assert_allclose(emse(v), direct, atol=1e-12)


class TestReplicationHarness:
    def test_single_rep_emse_zero(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=3)
        table = run_replications(
            cfg,
            [MethodSpec(method="np"), MethodSpec(method="npr")],
            ns=[80],
            test_points=pts,
            n_rep=1,
            base_seed=2,
        )
        for cell in table.cells:
            assert cell.emse == 0.0

    def test_thread_count_invariance(self):
        """Aggregates are bit-identical no matter how the work is scheduled."""
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=4)
        methods = [
            MethodSpec(method="np"),
            MethodSpec(method="npr"),
            MethodSpec(method="nprt", reduction="pls"),
        ]
        kw = dict(ns=[80, 120], test_points=pts, n_rep=12, base_seed=11)
        t1 = run_replications(cfg, methods, n_threads=1, **kw)
        t4 = run_replications(cfg, methods, n_threads=4, **kw)
        assert len(t1.cells) == len(t4.cells) == 4 * 2 * 3
        for a, b in zip(t1.cells, t4.cells):
            assert (a.point_id, a.n, a.method) == (b.point_id, b.n, b.method)
            assert a.emse == b.emse
            assert a.variance == b.variance
            assert a.mean_estimate == b.mean_estimate
            assert a.n_missing == b.n_missing

    def test_rerun_determinism(self):
        cfg = Model2Config(seed=3)
        pts = draw_test_points(cfg, m=2)
        kw = dict(
            methods=[MethodSpec(method="nprt", reduction="pfc")],
            ns=[150],
            test_points=pts,
            n_rep=8,
            base_seed=21,
        )
        t1 = run_replications(cfg, **kw)
        t2 = run_replications(cfg, **kw)
        for a, b in zip(t1.cells, t2.cells):
            assert a.emse == b.emse

    def test_recompute_cell_bit_exact(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=3)
        spec = MethodSpec(method="nprt", reduction="root_n_oracle")
        table = run_replications(
            cfg, [spec, MethodSpec(method="np")], ns=[90, 140],
            test_points=pts, n_rep=10, base_seed=17,
        )
        cell = table.cell(point_id=1, n=140, method=spec.label)
        redo = recompute_cell(
            cfg, spec, pts, point_id=1, n=140, n_rep=10, base_seed=17
        )
        assert redo.emse == cell.emse
        assert redo.mean_estimate == cell.mean_estimate

    def test_kept_estimates_reproduce_emse(self):
        """A default table keeps every replication's estimate."""
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        table = run_replications(
            cfg, [MethodSpec(method="npr")], ns=[100], test_points=pts,
            n_rep=15, base_seed=5,
        )
        for cell in table.cells:
            vec = table.estimates[(cell.point_id, cell.n, cell.method)]
            clean = np.asarray(vec)[~np.isnan(vec)]
            np.testing.assert_allclose(emse(clean), cell.emse, rtol=1e-12)

    def test_true_mse_only_for_known_truth(self):
        cfg1 = Model1Config(seed=1)
        pts1 = draw_test_points(cfg1, m=2)
        t1 = run_replications(
            cfg1, [MethodSpec(method="npr")], ns=[90],
            test_points=pts1, n_rep=5, base_seed=1,
        )
        assert all(c.true_mse is not None for c in t1.cells)
        cfg2 = Model2Config(seed=1)
        pts2 = draw_test_points(cfg2, m=2)
        t2 = run_replications(
            cfg2, [MethodSpec(method="np")], ns=[90],
            test_points=pts2, n_rep=5, base_seed=1,
        )
        assert all(c.true_mse is None for c in t2.cells)

    def test_missing_cells_counted_not_fatal(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2) + 50.0  # far outside the data cloud
        table = run_replications(
            cfg, [MethodSpec(method="npr")], ns=[80], test_points=pts,
            n_rep=6, base_seed=9,
            bandwidth_rule=BandwidthRule(kind="fixed", h_fixed=0.05),
        )
        assert table.missing_rate == 1.0
        for cell in table.cells:
            assert cell.n_missing == 6

    @pytest.mark.parametrize("cfg, spec, failing_ns", [
        # the default min(10, n // 20) slices is 1 at n = 30, which sir_fit refuses
        (Model1Config(seed=1), MethodSpec(method="nprt", reduction="sir"), {30}),
        # model 2's pfc feature map (y, |y|) has r = 2 < d = 3
        (Model2Config(seed=3), MethodSpec(method="nprt", reduction="pfc", d=3), {30, 60}),
    ], ids=["sir-one-slice", "pfc-d-above-r"])
    def test_fit_failure_leaves_only_its_cells_missing(self, cfg, spec, failing_ns):
        pts = draw_test_points(cfg, m=2)
        npr = MethodSpec(method="npr")
        kw = dict(ns=[30, 60], test_points=pts, n_rep=4, base_seed=5)
        table = run_replications(cfg, [npr, spec], **kw)
        for cell in table.cells:
            if cell.method == spec.label and cell.n in failing_ns:
                assert cell.n_rep == 0 and cell.n_missing == 4
                assert math.isnan(cell.emse)
            else:
                assert cell.n_rep > 0
        alone = run_replications(cfg, [npr], **kw)
        assert [c for c in table.cells if c.method == npr.label] == list(alone.cells)

    def test_x0_only_column_is_a_one_row_run(self, monkeypatch):
        """An x0-only column equals, bit for bit, a run on test point 0 alone,
        and shares its replication's fit with the full column on the same
        basis; row 0 of the full column's batch differs from both here, since
        X0 is projected by one BLAS product over all its rows."""
        cfg = Model1Config(seed=3)
        pts = draw_test_points(cfg, m=10)
        full = MethodSpec(method="nprt", reduction="pls")
        x0 = MethodSpec(method="nprt", reduction="pls", x0_only=True)
        fits = []
        monkeypatch.setattr(simulate, "fit", lambda *a, **k: fits.append(1) or fit(*a, **k))
        kw = dict(ns=[400], n_rep=20, base_seed=3)
        table = run_replications(cfg, [full, x0], test_points=pts, **kw)
        assert len(fits) == 20
        alone = run_replications(cfg, [full], test_points=pts[:1], **kw)
        key, ref = (0, 400, x0.label), (0, 400, full.label)
        np.testing.assert_array_equal(table.estimates[key], alone.estimates[ref])
        np.testing.assert_array_equal(table.intervals[key], alone.intervals[ref])
        assert np.any(table.estimates[ref] != alone.estimates[ref])
        # the x0-only column has point 0 alone and no cells
        assert table.methods == (full.label,) and x0.label == "NPRT@X0"
        assert {c.method for c in table.cells} == {full.label}
        assert {k for k in table.estimates if k[2] == x0.label} == {key}

    def test_method_bandwidth_rule_overrides_the_run_rule(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        rule = undersmoothed_rule()
        kw = dict(ns=[90], test_points=pts, n_rep=4, base_seed=2)
        own = run_replications(cfg, [MethodSpec(method="npr", bandwidth_rule=rule)], **kw)
        run = run_replications(cfg, [MethodSpec(method="npr")], bandwidth_rule=rule, **kw)
        assert own.cells == run.cells

    def test_input_validation(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        with pytest.raises(ArgumentError):
            run_replications(
                cfg, [MethodSpec(method="np"), MethodSpec(method="np")],
                ns=[80], test_points=pts, n_rep=3, base_seed=1,
            )
        with pytest.raises(ArgumentError):
            run_replications(
                cfg, [MethodSpec(method="np")], ns=[1],
                test_points=pts, n_rep=3, base_seed=1,
            )
        with pytest.raises(ArgumentError):
            MethodSpec(method="nprt")  # needs a reduction choice
        with pytest.raises(ArgumentError):
            MethodSpec(method="np", reduction="pls")  # reduction is nprt-only

    def test_one_direction_methods_reject_d_above_1(self):
        # npr and the oracle-style reductions give one direction, so d=2
        # would leave every estimate missing instead of failing
        for spec in (dict(method="npr"),
                     dict(method="nprt", reduction="root_n_oracle"),
                     dict(method="nprt", reduction="wrong_direction")):
            with pytest.raises(ArgumentError, match="needs d=1"):
                MethodSpec(d=2, **spec)
        assert MethodSpec(method="nprt", reduction="pls", d=2).d == 2
        assert MethodSpec(method="np", d=2).d == 2

    def test_kept_intervals_bracket_estimates(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        pts[1] += 50.0  # far outside the data cloud: every replication missing
        table = run_replications(
            cfg, [MethodSpec(method="npr"), MethodSpec(method="nprt", reduction="wrong_direction")],
            ns=[100], test_points=pts, n_rep=8, base_seed=5,
            bandwidth_rule=undersmoothed_rule(),
        )
        assert table.intervals.keys() == table.estimates.keys()
        for key, eta in table.estimates.items():
            ci = table.intervals[key]
            assert ci.shape == (8, 2)
            assert np.array_equal(np.isnan(ci[:, 0]), np.isnan(eta))
            ok = ~np.isnan(eta)
            assert np.all(ci[ok, 0] < eta[ok]) and np.all(eta[ok] < ci[ok, 1])
        assert np.isnan(table.estimates[(1, 100, "NPR")]).all()
        assert not np.isnan(table.estimates[(0, 100, "NPRT")]).any()


def equivalence_rows(cfg, ns, n_rep, x0, reduction="pls", rule=None, **kw):
    """The equivalence view of a replication run at x0 alone."""
    table = run_replications(cfg, oracle_specs(reduction, rule), ns, x0[None, :], n_rep, **kw)
    return equivalence_view(table, rule)


def coverage(cfg, n, n_rep, x0, level=0.95, **kw):
    """The coverage view of a replication run of the NPR column at x0 alone."""
    table = run_replications(cfg, oracle_specs()[:1], [n], x0[None, :], n_rep,
                             ci_level=level, **kw)
    return coverage_view(table, cfg, n, level)


class TestEquivalence:
    def test_consistent_estimate_decays(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        rows = equivalence_rows(cfg, [200, 1500], 40, 1.5 * b, "root_n_oracle", base_seed=5)
        assert rows[1].median_stat < rows[0].median_stat

    def test_wrong_direction_does_not_decay(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        rows = equivalence_rows(cfg, [200, 1500], 40, 1.5 * b, "wrong_direction", base_seed=5)
        assert rows[1].median_stat >= rows[0].median_stat

    def test_rows_carry_bandwidth(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        rows = equivalence_rows(cfg, [100, 400], 3, b, rule=undersmoothed_rule(), base_seed=1)
        np.testing.assert_allclose(rows[0].h, 2.0 * 100.0**-0.3, rtol=1e-13)
        np.testing.assert_allclose(rows[1].h, 2.0 * 400.0**-0.3, rtol=1e-13)

    def test_threads_do_not_change_rows(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        runs = [equivalence_rows(cfg, [100, 300], 6, 1.5 * b, base_seed=2, n_threads=k)
                for k in (1, 2)]
        assert runs[0] == runs[1]

    def test_no_usable_replication_raises(self):
        cfg = Model1Config(seed=0)
        with pytest.raises(NumericError, match="n=100"):
            equivalence_rows(cfg, [100], 3, 50.0 * np.ones(6), base_seed=1)

    def test_loocv_rule_rejected(self):
        """sqrt(n h) needs h from n alone: the view of a finished table
        rejects a data-chosen bandwidth and names its kind."""
        cfg = Model1Config(seed=0)
        table = run_replications(cfg, oracle_specs(), [100], np.ones((1, 6)), 3, base_seed=1)
        rule = BandwidthRule(kind="loocv", cv_grid=(0.2, 0.4))
        with pytest.raises(ArgumentError, match="^equivalence statistic needs a bandwidth "
                           "set by n alone; bandwidth kind 'loocv' is chosen from the data$"):
            equivalence_view(table, rule)


class TestCoverage:
    def test_half_level_calibration(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        perp = np.zeros(6)
        perp[0] = 1.0
        perp -= (perp @ b) * b
        perp /= np.linalg.norm(perp)
        res = coverage(cfg, 1500, 200, 1.5 * b + 0.2 * perp, level=0.5, base_seed=7)
        assert abs(res.coverage - 0.5) <= 0.1

    def test_degenerate_design_full_coverage(self):
        """Identically zero data gives zero-width intervals that still cover."""
        cfg = Model1Config(seed=0, sigma_signal=0.0, sigma_noise_cov=0.0, eps_sd=0.0)
        res = coverage(cfg, 100, 30, np.zeros(6), level=0.95, base_seed=3)
        assert res.coverage == 1.0
        assert res.truth == 0.0
        assert res.median_ci_width == 0.0

    def test_threads_do_not_change_result(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        runs = [coverage(cfg, 300, 6, 1.5 * b, base_seed=2, n_threads=k) for k in (1, 2)]
        assert runs[0] == runs[1]

    def test_no_usable_replication_raises(self):
        cfg = Model1Config(seed=0)
        with pytest.raises(NumericError, match="n=100"):
            coverage(cfg, 100, 3, 50.0 * np.ones(6), base_seed=1)

    def test_bandwidth_regime_enforced(self):
        # exponent must undersmooth: inside (1/(2q+d), 1/d) = (0.2, 1.0) for q=2, d=1
        for exponent in (0.15, 0.2):
            with pytest.raises(ArgumentError, match="strictly inside"):
                undersmoothed_rule(exponent=exponent)
        assert undersmoothed_rule(exponent=0.25).exponent == 0.25


class TestDensityData:
    def test_point_mass_spike(self):
        grid = np.linspace(0.0, 4.0, 801)
        pairs = estimate_density_data(np.full(50, 2.0), grid)
        dens = np.array([v for _, v in pairs])
        assert abs(np.trapezoid(dens, grid) - 1.0) <= 0.01
        assert grid[int(np.argmax(dens))] == 2.0

    def test_standard_normal_recovery(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(10_000)
        grid = np.linspace(-4.0, 4.0, 161)
        dens = np.array([v for _, v in estimate_density_data(x, grid)])
        ref = np.exp(-(grid**2) / 2.0) / np.sqrt(2.0 * np.pi)
        assert np.abs(dens - ref).max() <= 0.05

    def test_bimodal_two_peaks(self):
        rng = np.random.default_rng(1)
        x = np.concatenate(
            [0.3 * rng.standard_normal(5000) - 3.0, 0.3 * rng.standard_normal(5000) + 3.0]
        )
        grid = np.linspace(-5.0, 5.0, 201)
        dens = np.array([v for _, v in estimate_density_data(x, grid)])
        peaks = [
            i for i in range(1, 200) if dens[i] > dens[i - 1] and dens[i] > dens[i + 1]
        ]
        assert len(peaks) == 2
        assert grid[peaks[0]] < 0.0 < grid[peaks[1]]

    def test_minimum_sample_size(self):
        with pytest.raises(ArgumentError):
            estimate_density_data(np.ones(5), np.linspace(0, 2, 11))


class TestDefaults:
    def test_test_points_deterministic_and_shaped(self):
        cfg = Model1Config(seed=6)
        a = draw_test_points(cfg, m=10)
        b = draw_test_points(cfg, m=10)
        assert a.shape == (10, 6)
        assert np.array_equal(a, b)

    def test_default_rules_per_model(self):
        r1 = default_bandwidth_rule(Model1Config(seed=0))
        assert r1.kind == "power_rule" and r1.constant == 5.0
        assert r1.exponent_dim == "ambient_p"
        r2 = default_bandwidth_rule(Model2Config(seed=0))
        assert r2.constant == 10.0

    def test_undersmoothed_rule_shape(self):
        r = undersmoothed_rule()
        assert r.kind == "power_rule"
        assert r.exponent_dim == "reduced_d"
        assert r.exponent == 0.3


class TestBlasThreads:
    """The replication pool runs OpenBLAS at cores // n_threads threads, at
    most the count it found."""

    @staticmethod
    def _fake_openblas(monkeypatch, cores=4, start=8):
        # one fake library whose thread count history is `seen`
        seen = [start]
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ((lambda: seen[-1], seen.append),))
        monkeypatch.setattr(_blas.os, "sched_getaffinity", lambda pid: set(range(cores)))
        return seen

    @pytest.mark.parametrize("workers, cap", [(1, 4), (2, 2), (3, 1), (8, 1)])
    def test_cap_then_restore(self, monkeypatch, workers, cap):
        seen = self._fake_openblas(monkeypatch)
        with _blas.blas_threads_per_worker(workers):
            assert seen[-1] == cap
        assert seen == [8, cap, 8]

    def test_never_raised_above_the_count_found(self, monkeypatch):
        """A library found at 1 thread (say OPENBLAS_NUM_THREADS=1) stays at 1."""
        seen = self._fake_openblas(monkeypatch, cores=8, start=1)
        with _blas.blas_threads_per_worker(2):
            assert seen[-1] == 1
        assert seen == [1, 1, 1]

    def test_restored_after_an_error(self, monkeypatch):
        seen = self._fake_openblas(monkeypatch)
        with pytest.raises(RuntimeError), _blas.blas_threads_per_worker(2):
            raise RuntimeError("inside the pool")
        assert seen == [8, 2, 8]

    def test_only_the_pool_caps(self, monkeypatch):
        seen = self._fake_openblas(monkeypatch)
        cfg = Model1Config(seed=1)
        kw = dict(ns=[60], test_points=draw_test_points(cfg, m=2), n_rep=4)
        run_replications(cfg, [MethodSpec("npr")], n_threads=1, **kw)
        assert seen == [8]
        run_replications(cfg, [MethodSpec("npr")], n_threads=2, **kw)
        assert seen == [8, 2, 8]

    def test_openblas_of_this_process(self):
        controls = _blas._openblas_controls()
        before = [get() for get, _ in controls]
        with _blas.blas_threads_per_worker(2 * len(os.sched_getaffinity(0))):
            assert all(get() == 1 for get, _ in controls)
        assert [get() for get, _ in controls] == before


class TestKeepFreedMemory:
    """Replications reuse freed heap pages instead of faulting in new ones."""

    def test_called_by_the_harness(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simulate, "keep_freed_memory", lambda: calls.append(1))
        cfg = Model1Config(seed=1)
        run_replications(cfg, [MethodSpec("npr")], [60], draw_test_points(cfg, m=2), 3)
        assert calls == [1]

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="no glibc mallopt")
    def test_freed_blocks_are_reused(self):
        assert _blas.keep_freed_memory()
        np.ones(500_000)  # a 4 MB block, which glibc would otherwise mmap afresh each time
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            np.ones(500_000)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50

    def test_without_mallopt_does_nothing(self, monkeypatch):
        monkeypatch.setattr(_blas.ctypes, "CDLL", lambda name: object())
        assert _blas.keep_freed_memory() is False
