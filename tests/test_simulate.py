"""Tests for the simulation designs, replication harness, and experiments."""

import ctypes
import math
import re
import resource
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rednw import _blas, simulate
from rednw.errors import ArgumentError, NumericError
from rednw.npregress import BandwidthRule, bandwidth
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

    @pytest.mark.parametrize("p", range(1, 30))
    def test_beta0_normalised_once(self, p):
        """A config rebuilt by ``replace`` keeps beta0 bit for bit, for the
        default direction and for random ones of any scale; beta0 is unit."""
        rng = np.random.default_rng(p)
        for beta0 in [None] + [rng.standard_normal(p) * 10.0 ** rng.uniform(-3, 3)
                               for _ in range(50)]:
            cfg = Model1Config(p=p, beta0=beta0)
            assert abs(np.linalg.norm(cfg.beta0) - 1.0) <= 4 * p * np.finfo(float).eps
            for again in (replace(cfg), replace(cfg, seed=7), replace(replace(cfg, seed=7))):
                assert np.array_equal(again.beta0, cfg.beta0)

    def test_default_beta0_keeps_its_bits_at_p6(self):
        assert np.array_equal(Model1Config().beta0, np.ones(6) / math.sqrt(6))

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

    @staticmethod
    def _blocked_draw(cfg, rng, n):
        """X from one n x p stream draw, multiplied by row blocks of 2^16
        entries, with model 2's outer product added per block."""
        y = None if isinstance(cfg, Model1Config) else rng.normal(0.0, cfg.y_sd, n)
        Z = rng.standard_normal((n, cfg.p))
        rows = (1 << 16) // cfg.p
        parts = []
        for i in range(0, n, rows):
            part = Z[i:i + rows] @ cfg._x_factor
            if y is not None:
                part = np.outer(y[i:i + rows] + np.abs(y[i:i + rows]) - cfg.e_abs_y, cfg.A) + part
            parts.append(part)
        return np.vstack(parts), y

    @pytest.mark.parametrize("model", [1, 2])
    def test_blocked_draw_matches_one_stream_draw(self, model):
        """Over several row blocks and a ragged last one, X is the one-draw
        stream multiplied block by block, bit for bit, and the stream goes on
        where one draw would leave it; the same under the replication pool's
        BLAS cap and uncapped."""
        if model == 1:
            cfg, tag, gen = Model1Config(seed=6), simulate._TAG_MODEL1, gen_model1
        else:
            cfg, tag, gen = Model2Config(seed=6), simulate._TAG_MODEL2, gen_model2
        rows = (1 << 16) // cfg.p
        n = 3 * rows + 101
        rng = simulate._rng(cfg.seed, tag, n, 2)
        expected, y = self._blocked_draw(cfg, rng, n)
        if model == 1:
            y = (expected @ cfg.beta0) ** 2 + rng.normal(0.0, cfg.eps_sd, n)
        X, Y, _ = gen(cfg, n, rng_stream=2)
        with _blas.one_blas_thread():
            X_capped, Y_capped, _ = gen(cfg, n, rng_stream=2)
        for got, resp in ((X, Y), (X_capped, Y_capped)):
            assert np.array_equal(got, expected)
            assert np.array_equal(resp, y)

    def test_draw_peak_memory(self):
        """One draw holds X and temporaries of at most 2^16 entries: the
        normals of one block and its outer product."""
        cfg = Model2Config(seed=0)
        gen_model2(cfg, 10)  # numpy.random's lazy import is not the draw's
        tracemalloc.start()
        try:
            X, _, _ = gen_model2(cfg, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.shape == (20_000, 20)
        assert peak < 1.4 * X.nbytes

    def test_packaged_s_matrix_regenerates(self):
        """The stored scatter matrix is exactly the draw from its recorded seed."""
        cfg = Model2Config(seed=0)
        regen = np.random.default_rng(simulate.MODEL2_S_SEED).standard_normal((20, 20))
        assert np.array_equal(cfg.S, regen)
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


class TestConfigInput:
    @pytest.mark.parametrize("cls, kwargs, message", [
        (Model1Config, dict(p=3, beta0=[math.nan, 1.0, 0.0]), "beta0 must be finite and nonzero"),
        (Model1Config, dict(p=3, beta0=[math.inf, 1.0, 0.0]), "beta0 must be finite and nonzero"),
        (Model1Config, dict(p=3, beta0=[0.0, 0.0, 0.0]), "beta0 must be finite and nonzero"),
        (Model1Config, dict(sigma_signal=math.nan), "sigma_signal must be finite and >= 0"),
        (Model1Config, dict(sigma_noise_cov=-1.0), "sigma_noise_cov must be finite and >= 0"),
        (Model1Config, dict(eps_sd=math.inf), "eps_sd must be finite and >= 0"),
        (Model2Config, dict(p=3), "the default A needs p >= 4, got p=3"),
        (Model2Config, dict(A=np.zeros(20)), "A must be finite and nonzero"),
        (Model2Config, dict(A=np.r_[math.nan, np.ones(19)]), "A must be finite and nonzero"),
        (Model2Config, dict(S=np.full((20, 20), math.nan)), "S must be finite"),
        (Model2Config, dict(y_sd=-1.0), "y_sd must be finite and >= 0"),
        (Model2Config, dict(y_sd=math.nan), "y_sd must be finite and >= 0"),
        (Model2Config, dict(delta_scale=math.inf), "delta_scale must be finite and > 0"),
    ], ids=["beta0-nan", "beta0-inf", "beta0-zero", "sigma-signal-nan", "sigma-noise-negative",
            "eps-sd-inf", "A-default-p3", "A-zero", "A-nan", "S-nan", "y-sd-negative",
            "y-sd-nan", "delta-scale-inf"])
    def test_bad_input_raises_argument_error(self, cls, kwargs, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArgumentError, match=f"^{re.escape(message)}"):
                cls(**kwargs)

    @pytest.mark.parametrize("scale", [1e-300, 1e-100, 1e100, 1e200, 1e300])
    def test_direction_of_any_finite_scale(self, scale):
        """beta0 and A far from unit scale give the unit direction of unit
        scale, with no overflow or underflow warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta0 = Model1Config(p=3, beta0=[scale, scale, 0.0]).beta0
            beta_pop = Model2Config(A=scale * Model2Config().A).beta_pop
        np.testing.assert_allclose(beta0, [0.5 ** 0.5, 0.5 ** 0.5, 0.0], rtol=1e-15)
        np.testing.assert_allclose(beta_pop, Model2Config().beta_pop, rtol=1e-14, atol=1e-15)


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
            replace(cfg, seed=2),
            [MethodSpec(method="np"), MethodSpec(method="npr")],
            ns=[80],
            test_points=pts,
            n_rep=1,
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
        kw = dict(ns=[80, 120], test_points=pts, n_rep=12)
        t1 = run_replications(replace(cfg, seed=11), methods, n_threads=1, **kw)
        t4 = run_replications(replace(cfg, seed=11), methods, n_threads=4, **kw)
        assert len(t1.cells) == len(t4.cells) == 4 * 2 * 3
        for a, b in zip(t1.cells, t4.cells):
            assert (a.point_id, a.n, a.method) == (b.point_id, b.n, b.method)
            assert a.emse == b.emse
            assert a.variance == b.variance
            assert a.mean_estimate == b.mean_estimate
            assert a.n_missing == b.n_missing

    @pytest.mark.parametrize("model", [1, 2])
    def test_recorded_h_is_the_rules(self, model):
        """Every batch's h is recorded: for a power_rule or fixed column it
        equals bandwidth(rule, n, p, d) bit for bit at every replication,
        empty windows included, and a column whose fit failed records NaN."""
        cfg = Model1Config(seed=4) if model == 1 else Model2Config(seed=4)
        reduced = BandwidthRule(kind="power_rule", constant=2.0, exponent_dim="reduced_d")
        fixed = BandwidthRule(kind="fixed", h_fixed=0.35)
        specs = [MethodSpec("np"), MethodSpec("npr", bandwidth_rule=undersmoothed_rule()),
                 MethodSpec("nprt", reduction="pls", d=2, bandwidth_rule=reduced),
                 MethodSpec("nprt", reduction="pls", d=2, bandwidth_rule=fixed, x0_only=True),
                 MethodSpec("npr", bandwidth_rule=fixed, x0_only=True)]
        pts = np.vstack([draw_test_points(cfg, 2), np.full(cfg.p, 1e3)])  # point 2 is empty
        ns = [60, 150]
        table = run_replications(cfg, specs, ns, pts, 3)
        assert table.h.shape == (2, 3, len(specs)) and not table.h.flags.writeable
        for k, spec in enumerate(table.specs):
            dim = cfg.p if spec.method == "np" else spec.d
            for i, n in enumerate(ns):
                want = bandwidth(spec.bandwidth_rule, n=n, p=cfg.p, d=dim)
                assert table.h[i, :, k].tolist() == [want] * 3
        assert np.isnan(table.values[:, :, :3, 2, 0]).all()  # the batches ran; the row failed
        failed = run_replications(cfg, [MethodSpec("npr"), MethodSpec("nprt", reduction="pfc", d=3)],
                                  ns, pts, 3)
        assert not np.isnan(failed.h[:, :, 0]).any() and np.isnan(failed.h[:, :, 1]).all()

    @pytest.mark.parametrize("n_threads", [0, -3, 2.5, "2", None])
    def test_bad_thread_count_rejected(self, n_threads):
        cfg = Model1Config(seed=0)
        with pytest.raises(ArgumentError, match="^n_threads must be an int >= 1"):
            run_replications(cfg, [MethodSpec("npr")], [50], draw_test_points(cfg, 1), 1,
                             n_threads=n_threads)

    def test_data_free_bases_built_before_the_replications(self, monkeypatch):
        """np's, npr's and wrong_direction's bases are built once per run,
        keyed as each replication keys its fits, so no replication builds
        one again."""
        cfg = Model1Config(seed=0)
        calls = []
        real = simulate._fit_basis
        monkeypatch.setattr(simulate, "_fit_basis", lambda spec, *a: calls.append(spec.label)
                            or real(spec, *a))
        specs = [MethodSpec("np"), MethodSpec("npr"), *oracle_specs("wrong_direction")]
        run_replications(cfg, specs, [50, 80], draw_test_points(cfg, 2), 3)
        assert calls == ["NP", "NPR", "NPR@X0", "NPRT@X0"]

    def test_two_workers_peak_memory(self):
        """Model 2 at n = 20,000 on two threads: each worker holds its X and
        temporaries of at most 2^16 entries, so the two workers' draws,
        fits and NW blocks overlapping peak below 3.5 X."""
        cfg = Model2Config(seed=0)
        methods = [MethodSpec("np"), MethodSpec("npr"), MethodSpec("nprt", reduction="pfc")]
        pts = draw_test_points(cfg, 3)
        run_replications(cfg, methods, [200], pts, 2, n_threads=2)  # lazy imports
        tracemalloc.start()
        try:
            table = run_replications(cfg, methods, [20_000], pts, 2, n_threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not any(c.n_missing for c in table.cells)
        assert peak < 3.5 * (20_000 * cfg.p * 8)

    def test_rerun_determinism(self):
        cfg = Model2Config(seed=3)
        pts = draw_test_points(cfg, m=2)
        kw = dict(
            methods=[MethodSpec(method="nprt", reduction="pfc")],
            ns=[150],
            test_points=pts,
            n_rep=8,
        )
        t1 = run_replications(replace(cfg, seed=21), **kw)
        t2 = run_replications(replace(cfg, seed=21), **kw)
        for a, b in zip(t1.cells, t2.cells):
            assert a.emse == b.emse

    def test_recompute_cell_bit_exact(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=3)
        spec = MethodSpec(method="nprt", reduction="root_n_oracle")
        run = replace(cfg, seed=17)
        table = run_replications(
            run, [spec, MethodSpec(method="np")], ns=[90, 140], test_points=pts, n_rep=10,
        )
        cell = table.cell(point_id=1, n=140, method=spec.label)
        # the cell's column alone, at its n alone
        redo = run_replications(run, [spec], [140], pts, 10).cell(1, 140, spec.label)
        assert redo.emse == cell.emse
        assert redo.mean_estimate == cell.mean_estimate

    def test_kept_estimates_reproduce_emse(self):
        """A default table keeps every replication's estimate."""
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        table = run_replications(
            replace(cfg, seed=5), [MethodSpec(method="npr")], ns=[100], test_points=pts,
            n_rep=15,
        )
        for cell in table.cells:
            vec = table.replicates(cell.point_id, cell.n, cell.method)[:, 0]
            clean = vec[~np.isnan(vec)]
            np.testing.assert_allclose(emse(clean), cell.emse, rtol=1e-12)

    def test_true_mse_only_for_known_truth(self):
        cfg1 = Model1Config(seed=1)
        pts1 = draw_test_points(cfg1, m=2)
        t1 = run_replications(
            cfg1, [MethodSpec(method="npr")], ns=[90],
            test_points=pts1, n_rep=5,
        )
        assert all(c.true_mse is not None for c in t1.cells)
        cfg2 = Model2Config(seed=1)
        pts2 = draw_test_points(cfg2, m=2)
        t2 = run_replications(
            cfg2, [MethodSpec(method="np")], ns=[90],
            test_points=pts2, n_rep=5,
        )
        assert all(c.true_mse is None for c in t2.cells)

    def test_missing_cells_counted_not_fatal(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2) + 50.0  # far outside the data cloud
        spec = MethodSpec(method="npr", bandwidth_rule=BandwidthRule(kind="fixed", h_fixed=0.05))
        table = run_replications(replace(cfg, seed=9), [spec], ns=[80], test_points=pts, n_rep=6)
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
        kw = dict(ns=[30, 60], test_points=pts, n_rep=4)
        table = run_replications(replace(cfg, seed=5), [npr, spec], **kw)
        for cell in table.cells:
            if cell.method == spec.label and cell.n in failing_ns:
                assert cell.n_rep == 0 and cell.n_missing == 4
                assert math.isnan(cell.emse)
            else:
                assert cell.n_rep > 0
        alone = run_replications(replace(cfg, seed=5), [npr], **kw)
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
        kw = dict(ns=[400], n_rep=20)
        table = run_replications(cfg, [full, x0], test_points=pts, **kw)
        assert len(fits) == 20
        alone = run_replications(cfg, [full], test_points=pts[:1], **kw)
        key, ref = (0, 400, x0.label), (0, 400, full.label)
        np.testing.assert_array_equal(table.replicates(*key), alone.replicates(*ref))
        assert np.any(table.replicates(*ref)[:, 0] != alone.replicates(*ref)[:, 0])
        # the x0-only column has point 0 alone and no cells
        assert table.methods == (full.label,) and x0.label == "NPRT@X0"
        assert table.labels == (full.label, x0.label)
        assert {c.method for c in table.cells} == {full.label}

    def test_column_runs_its_own_rule_or_the_model_rule(self):
        """A spec without a rule runs the model's; the table records each
        column's resolved rule, x0-only columns included, and the level."""
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        rule, model_rule = undersmoothed_rule(), default_bandwidth_rule(cfg)
        run, kw = replace(cfg, seed=2), dict(ns=[90], n_rep=4)
        table = run_replications(run, [MethodSpec(method="npr"),
                                       MethodSpec(method="npr", bandwidth_rule=rule, x0_only=True)],
                                 test_points=pts, ci_level=0.9, **kw)
        assert [s.bandwidth_rule for s in table.specs] == [model_rule, rule]
        assert table.labels == ("NPR", "NPR@X0")
        assert table.ci_level == 0.9
        named = run_replications(run, [MethodSpec(method="npr", bandwidth_rule=model_rule)],
                                 test_points=pts, ci_level=0.9, **kw)
        assert table.cells == named.cells
        own = run_replications(run, [MethodSpec(method="npr", bandwidth_rule=rule)],
                               test_points=pts[:1], ci_level=0.9, **kw)
        np.testing.assert_array_equal(table.replicates(0, 90, "NPR@X0")[:, 0],
                                      own.replicates(0, 90, "NPR")[:, 0])
        assert np.all(table.replicates(0, 90, "NPR@X0")[:, 0]
                      != table.replicates(0, 90, "NPR")[:, 0])

    def test_replicates_view_and_its_errors(self):
        """replicates is a read-only (n_rep, 3) view of the run's values; an
        unknown n or label, or a point past the column's, raises, and an
        x0-only column holds NaN past point 0."""
        cfg = Model1Config(seed=1)
        table = run_replications(cfg, [MethodSpec("npr"), MethodSpec("npr", x0_only=True)],
                                 ns=[60, 90], test_points=draw_test_points(cfg, m=3), n_rep=4)
        assert table.values.shape == (2, 4, 2, 3, 3) and not table.values.flags.writeable
        rows = table.replicates(2, 90, "NPR")
        assert rows.shape == (4, 3) and np.shares_memory(rows, table.values)
        np.testing.assert_array_equal(rows, table.values[1, :, 0, 2])
        assert not np.isnan(table.replicates(0, 90, "NPR@X0")).any()
        assert np.isnan(table.values[:, :, 1, 1:]).all()
        for args in [(0, 70, "NPR"), (0, 60, "NP"), (3, 60, "NPR"), (-1, 60, "NPR"),
                     (1, 60, "NPR@X0")]:
            with pytest.raises(ArgumentError, match="^no replicates for "):
                table.replicates(*args)

    def test_input_validation(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        with pytest.raises(ArgumentError):
            run_replications(
                cfg, [MethodSpec(method="np"), MethodSpec(method="np")],
                ns=[80], test_points=pts, n_rep=3,
            )
        with pytest.raises(ArgumentError):
            run_replications(
                cfg, [MethodSpec(method="np")], ns=[1],
                test_points=pts, n_rep=3,
            )
        with pytest.raises(ArgumentError, match=r"^duplicate sample sizes \[60, 90, 60\]$"):
            run_replications(cfg, [MethodSpec(method="np")], ns=[60, 90, 60],
                             test_points=pts, n_rep=3)
        with pytest.raises(ArgumentError):
            MethodSpec(method="nprt")  # needs a reduction choice
        with pytest.raises(ArgumentError):
            MethodSpec(method="np", reduction="pls")  # reduction is nprt-only

    def test_no_test_points_raise_before_any_draw(self, monkeypatch):
        """A plan with zero test points fails as an empty ``ns`` does, not
        as a table of no cells after every replication was drawn and fit."""
        monkeypatch.setattr(simulate, "_one_rep", lambda *a: pytest.fail("drew a replication"))
        with pytest.raises(ArgumentError, match="^need at least one test point$"):
            run_replications(Model1Config(), [MethodSpec("np")], [60], np.empty((0, 6)), 3)

    @pytest.mark.parametrize("size", [10 ** 30, 2 ** 62], ids=["1e30", "2^62"])
    def test_sizes_past_numpy_address_range_raise_before_any_draw(self, monkeypatch, size):
        """A sample size, replication count or point count whose array numpy
        could not address fails naming the value, not in numpy."""
        monkeypatch.setattr(simulate, "_one_rep", lambda *a: pytest.fail("drew a replication"))
        cfg, pts = Model1Config(), np.zeros((1, 6))
        with pytest.raises(ArgumentError, match=f"^sample size {size} is too large: {size} x 6 "):
            run_replications(cfg, [MethodSpec("np")], [60, size], pts, 2)
        with pytest.raises(ArgumentError, match=f"^n_rep {size} is too large: 1 x {size} x 1 x 1 x 3 "):
            run_replications(cfg, [MethodSpec("np")], [60], pts, size)
        with pytest.raises(ArgumentError, match=f"^m {size} is too large: {size} x 6 "):
            draw_test_points(cfg, size)

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

    def test_np_column_records_the_d_it_ran_at(self):
        """np runs in the model's p dimensions whatever d it is given, and
        its column records p; the d given changes no bit."""
        cfg = Model1Config(seed=3)
        kw = dict(ns=[60], test_points=draw_test_points(cfg, 3), n_rep=4)
        tables = [run_replications(cfg, [MethodSpec("np", d=d)], **kw) for d in (1, 3)]
        assert [t.specs[0].d for t in tables] == [cfg.p, cfg.p]
        assert repr(tables[0].cells) == repr(tables[1].cells)
        np.testing.assert_array_equal(tables[0].values, tables[1].values)
        np.testing.assert_array_equal(tables[0].h, tables[1].h)

    def test_kept_intervals_bracket_estimates(self):
        cfg = Model1Config(seed=1)
        pts = draw_test_points(cfg, m=2)
        pts[1] += 50.0  # far outside the data cloud: every replication missing
        rule = undersmoothed_rule()
        table = run_replications(
            replace(cfg, seed=5), [MethodSpec(method="npr", bandwidth_rule=rule),
                                   MethodSpec(method="nprt", reduction="wrong_direction",
                                              bandwidth_rule=rule)],
            ns=[100], test_points=pts, n_rep=8,
        )
        for j, label in ((0, "NPR"), (1, "NPR"), (0, "NPRT"), (1, "NPRT")):
            rows = table.replicates(j, 100, label)
            eta, ci = rows[:, 0], rows[:, 1:]
            assert ci.shape == (8, 2)
            assert np.array_equal(np.isnan(ci[:, 0]), np.isnan(eta))
            ok = ~np.isnan(eta)
            assert np.all(ci[ok, 0] < eta[ok]) and np.all(eta[ok] < ci[ok, 1])
        assert np.isnan(table.replicates(1, 100, "NPR")[:, 0]).all()
        assert not np.isnan(table.replicates(0, 100, "NPRT")[:, 0]).any()


def equivalence_rows(cfg, ns, n_rep, x0, reduction="pls", rule=None, **kw):
    """The equivalence view of a replication run at x0 alone."""
    table = run_replications(cfg, oracle_specs(reduction, rule), ns, x0[None, :], n_rep, **kw)
    return equivalence_view(table)


def coverage(cfg, n, n_rep, x0, level=0.95, **kw):
    """The coverage view of a replication run of the NPR column at x0 alone."""
    table = run_replications(cfg, oracle_specs()[:1], [n], x0[None, :], n_rep,
                             ci_level=level, **kw)
    return coverage_view(table, n)


class TestEquivalence:
    def test_consistent_estimate_decays(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        rows = equivalence_rows(replace(cfg, seed=5), [200, 1500], 40, 1.5 * b, "root_n_oracle")
        assert rows[1].median_stat < rows[0].median_stat

    def test_wrong_direction_does_not_decay(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        rows = equivalence_rows(replace(cfg, seed=5), [200, 1500], 40, 1.5 * b, "wrong_direction")
        assert rows[1].median_stat >= rows[0].median_stat

    def test_rows_carry_bandwidth(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        rows = equivalence_rows(replace(cfg, seed=1), [100, 400], 3, b, rule=undersmoothed_rule())
        np.testing.assert_allclose(rows[0].h, 2.0 * 100.0**-0.3, rtol=1e-13)
        np.testing.assert_allclose(rows[1].h, 2.0 * 400.0**-0.3, rtol=1e-13)

    def test_rows_carry_the_rule_the_table_ran(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        rule = undersmoothed_rule(constant=1.0)
        rows = equivalence_rows(replace(cfg, seed=1), [100, 400], 3, b, "root_n_oracle", rule)
        assert [r.h for r in rows] == [bandwidth(rule, n=n, p=6, d=1) for n in (100, 400)]

    def test_threads_do_not_change_rows(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        runs = [equivalence_rows(replace(cfg, seed=2), [100, 300], 6, 1.5 * b, n_threads=k)
                for k in (1, 2)]
        assert runs[0] == runs[1]

    def test_no_usable_replication_raises(self):
        cfg = Model1Config(seed=0)
        with pytest.raises(NumericError, match="n=100"):
            equivalence_rows(replace(cfg, seed=1), [100], 3, 50.0 * np.ones(6))

    def test_columns_at_two_rules_rejected(self):
        """The two columns' estimates at two bandwidths give no statistic:
        the view names the h each ran at."""
        cfg = Model1Config(seed=0)
        npr_rule, nprt_rule = undersmoothed_rule(), undersmoothed_rule(constant=0.5)
        specs = [MethodSpec("npr", bandwidth_rule=npr_rule, x0_only=True),
                 MethodSpec("nprt", reduction="root_n_oracle", bandwidth_rule=nprt_rule,
                            x0_only=True)]
        table = run_replications(cfg, specs, [200, 800], 1.5 * cfg.beta0[None, :], 20)
        hs = sorted(bandwidth(rule, n=200, p=6, d=1) for rule in (npr_rule, nprt_rule))
        with pytest.raises(ArgumentError) as err:
            equivalence_view(table)
        assert str(err.value) == (f"equivalence statistic needs both columns at one h and d; "
                                  f"at n=200 they ran at h={hs}, d=[1]")

    def test_columns_at_two_d_rejected(self):
        """A reduced_d rule gives an NPRT column at d = 2 another h than the
        d = 1 NPR column at one rule; the view reads the h each ran at and
        rejects the pair."""
        cfg = Model1Config(seed=0)
        rule = BandwidthRule(kind="power_rule", constant=2.0, exponent_dim="reduced_d")
        specs = [MethodSpec("npr", bandwidth_rule=rule, x0_only=True),
                 MethodSpec("nprt", reduction="pls", d=2, bandwidth_rule=rule, x0_only=True)]
        table = run_replications(cfg, specs, [200], 1.5 * cfg.beta0[None, :], 4)
        hs = [bandwidth(rule, n=200, p=6, d=d) for d in (1, 2)]
        assert hs[0] != hs[1] and sorted(np.unique(table.h)) == sorted(hs)
        with pytest.raises(ArgumentError, match=r"one h and d; at n=200 .* d=\[1, 2\]$"):
            equivalence_view(table)

    def test_fixed_h_at_two_d_rejected(self):
        """At a fixed h both columns run at one h; the scale sqrt(n h^d)
        still needs one d."""
        cfg = Model1Config(seed=0)
        rule = BandwidthRule(kind="fixed", h_fixed=0.8)
        specs = [MethodSpec("npr", bandwidth_rule=rule, x0_only=True),
                 MethodSpec("nprt", reduction="pls", d=2, bandwidth_rule=rule, x0_only=True)]
        table = run_replications(cfg, specs, [200], 1.5 * cfg.beta0[None, :], 4)
        with pytest.raises(ArgumentError, match=r"they ran at h=\[0.8\], d=\[1, 2\]$"):
            equivalence_view(table)

    @pytest.mark.parametrize("specs", [[MethodSpec("npr")], oracle_specs()[:1],
                                       [MethodSpec("npr"), MethodSpec("nprt", reduction="pls")]],
                             ids=["npr", "npr_x0", "full_columns"])
    def test_table_without_both_columns_rejected(self, specs):
        cfg = Model1Config(seed=0)
        table = run_replications(cfg, specs, [100], 1.5 * cfg.beta0[None, :], 2)
        with pytest.raises(ArgumentError, match="^equivalence statistic needs the table's "
                           "NPR@X0 and NPRT@X0 columns$"):
            equivalence_view(table)

    def test_loocv_rule_rejected(self):
        """sqrt(n h) needs h from n alone: the view of a finished table
        rejects a data-chosen bandwidth and names its kind."""
        cfg = Model1Config(seed=0)
        with pytest.raises(ArgumentError, match="^equivalence statistic needs a bandwidth "
                           "set by n alone; bandwidth kind 'loocv' is chosen from the data$"):
            equivalence_rows(replace(cfg, seed=1), [100], 3, np.ones(6), rule=BandwidthRule(
                kind="loocv", cv_grid=(0.2, 0.4)))


class TestCoverage:
    def test_half_level_calibration(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        perp = np.zeros(6)
        perp[0] = 1.0
        perp -= (perp @ b) * b
        perp /= np.linalg.norm(perp)
        res = coverage(replace(cfg, seed=7), 1500, 200, 1.5 * b + 0.2 * perp, level=0.5)
        assert abs(res.coverage - 0.5) <= 0.1 and res.level == 0.5

    def test_degenerate_design_full_coverage(self):
        """Identically zero data gives zero-width intervals that still cover."""
        cfg = Model1Config(seed=0, sigma_signal=0.0, sigma_noise_cov=0.0, eps_sd=0.0)
        res = coverage(replace(cfg, seed=3), 100, 30, np.zeros(6), level=0.95)
        assert res.coverage == 1.0
        assert res.truth == 0.0
        assert res.median_ci_width == 0.0

    def test_truth_is_the_tables(self):
        """The truth is the table's eta at test point 0: the one the cells'
        true MSE reads."""
        cfg = Model1Config(seed=0)
        pts = draw_test_points(cfg, 3)
        table = run_replications(cfg, oracle_specs()[:1], [100], pts, 4)
        assert coverage_view(table, 100).truth == float(table.truths[0])
        np.testing.assert_array_equal(table.truths, cfg.truth(pts))

    def test_table_without_truth_rejected(self):
        """Model 2 has no closed-form eta: a coverage view of its table is
        an argument error, not a wrong or missing truth."""
        cfg = Model2Config(seed=0)
        table = run_replications(cfg, oracle_specs()[:1], [100], draw_test_points(cfg, 1), 2)
        assert table.truths is None
        with pytest.raises(ArgumentError, match="^coverage needs the true eta"):
            coverage_view(table, 100)

    def test_threads_do_not_change_result(self):
        cfg = Model1Config(seed=0)
        b = np.ones(6) / np.sqrt(6.0)
        runs = [coverage(replace(cfg, seed=2), 300, 6, 1.5 * b, n_threads=k) for k in (1, 2)]
        assert runs[0] == runs[1]

    def test_no_usable_replication_raises(self):
        cfg = Model1Config(seed=0)
        with pytest.raises(NumericError, match="n=100"):
            coverage(replace(cfg, seed=1), 100, 3, 50.0 * np.ones(6))

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

    @pytest.mark.parametrize("estimate, point, name", [
        (math.inf, 1.0, "estimates"), (math.nan, 1.0, "estimates"), (1.0, math.nan, "grid points"),
    ], ids=["inf-estimate", "nan-estimate", "nan-grid-point"])
    def test_non_finite_input(self, estimate, point, name):
        """An inf estimate would warn and give NaN densities, and a NaN
        estimate or grid point NaN densities, without a word."""
        v, grid = np.linspace(0.0, 1.0, 20), np.linspace(-1.0, 2.0, 11)
        v[3], grid[4] = estimate, point
        with pytest.raises(ArgumentError, match=f"^density {name} must be finite$"):
            estimate_density_data(v, grid)


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
    """Replications run OpenBLAS at one thread, at most the count it found,
    at every n_threads, and the counts found come back after the run."""

    @staticmethod
    def _fake_openblas(monkeypatch, start=8):
        # one fake library whose thread count history is `seen`
        seen = [start]
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ((lambda: seen[-1], seen.append),))
        return seen

    @pytest.mark.parametrize("n_threads, found", [(1, 4), (2, 2), (3, 1), (8, 1)])
    def test_cap_then_restore(self, monkeypatch, n_threads, found):
        seen = self._fake_openblas(monkeypatch, found)
        counts = []
        one_rep = simulate._one_rep
        monkeypatch.setattr(simulate, "_one_rep", lambda *a: (counts.append(seen[-1]), one_rep(*a)))
        cfg = Model1Config(seed=1)
        run_replications(cfg, [MethodSpec("npr")], [60], draw_test_points(cfg, m=2), 4,
                         n_threads=n_threads)
        assert counts == [1] * 4
        assert seen == [found, 1, found]

    def test_never_raised_above_the_count_found(self, monkeypatch):
        """A library found at 1 thread (say OPENBLAS_NUM_THREADS=1) stays at 1."""
        seen = self._fake_openblas(monkeypatch, start=1)
        with _blas.one_blas_thread():
            assert seen[-1] == 1
        assert seen == [1, 1, 1]

    def test_restored_after_an_error(self, monkeypatch):
        seen = self._fake_openblas(monkeypatch)
        with pytest.raises(RuntimeError), _blas.one_blas_thread():
            raise RuntimeError("inside the pool")
        assert seen == [8, 1, 8]

    def test_only_the_pool_caps(self, monkeypatch):
        """The cap lasts exactly as long as a run, serial or pooled."""
        seen = self._fake_openblas(monkeypatch)
        cfg = Model1Config(seed=1)
        kw = dict(ns=[60], test_points=draw_test_points(cfg, m=2), n_rep=4)
        assert seen == [8]
        run_replications(cfg, [MethodSpec("npr")], n_threads=1, **kw)
        assert seen == [8, 1, 8]
        run_replications(cfg, [MethodSpec("npr")], n_threads=2, **kw)
        assert seen == [8, 1, 8, 1, 8]

    def test_openblas_of_this_process(self):
        controls = _blas._openblas_controls()
        before = [get() for get, _ in controls]
        with _blas.one_blas_thread():
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
