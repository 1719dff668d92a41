"""Tests for linear reduction estimators and projection extraction."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from rednw.errors import (
    AmbiguousRankError,
    ArgumentError,
    DegenerateFitError,
    NumericError,
)
from rednw.reduction import (
    FIT_METHODS,
    ProjectionMatrix,
    ReductionBasis,
    fit,
    oracle_basis,
    pfc_fit,
    pls_fit,
    projection_to_basis,
    reduce,
    sir_fit,
)
from rednw.simulate import Model1Config, Model2Config, gen_model1, gen_model2


def principal_angle(basis, target_rows):
    """Largest canonical angle between two spans, via the SVD of the cross product."""
    t = np.atleast_2d(np.asarray(target_rows, dtype=float))
    t = t / np.linalg.norm(t, axis=1, keepdims=True)
    s = np.linalg.svd(basis.matrix @ t.T, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


class TestBasisTypes:
    def test_semi_orthogonality_enforced(self):
        with pytest.raises(ArgumentError):
            ReductionBasis(matrix=np.array([[1.0, 1.0]]))

    def test_projection_invariants(self):
        with pytest.raises(ArgumentError):
            ProjectionMatrix(matrix=np.array([[0.5, 0.4], [0.1, 0.5]]))
        with pytest.raises(ArgumentError):
            # symmetric but not idempotent
            ProjectionMatrix(matrix=np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_dimensions_are_the_matrix_shape(self):
        b = ReductionBasis(matrix=np.eye(5)[1:3])
        assert (b.d, b.p) == (2, 5)
        for bad in (np.zeros((0, 3)), np.ones(3), np.zeros((1, 0))):
            with pytest.raises(ArgumentError, match="^basis matrix must be a non-empty 2-d array"):
                ReductionBasis(matrix=bad)
        with pytest.raises(ArgumentError, match=r"not orthonormal \(max deviation nan"):
            ReductionBasis(matrix=[[np.nan, 0.0]])

    def test_projection_rank_is_its_trace(self):
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 3)))
        assert ProjectionMatrix(matrix=q @ q.T).rank == 3
        assert ProjectionMatrix.from_basis(oracle_basis(q.T[:2])).rank == 2
        # NaN passes the symmetry and idempotence checks; the trace check catches it
        with pytest.raises(ArgumentError, match="^trace nan is not an integer$"):
            ProjectionMatrix(matrix=np.full((2, 2), np.nan))

    @pytest.mark.parametrize("rows, message", [
        ([], "directions must form a non-empty 2-d array, got shape (1, 0)"),
        (np.zeros((0, 4)), "directions must form a non-empty 2-d array, got shape (0, 4)"),
        (np.zeros((1, 2, 2)), "directions must form a non-empty 2-d array, got shape (1, 2, 2)"),
        ([[np.nan, 1.0, 0.0, 0.0]], "directions must be finite"),
        ([[1.0, 0.0], [0.0, -np.inf]], "directions must be finite"),
    ], ids=["empty-list", "no-rows", "3-d", "nan", "inf"])
    def test_oracle_rows_empty_or_not_finite(self, rows, message):
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            oracle_basis(rows)

    def test_projection_from_basis_round_trip(self):
        b = oracle_basis([[3.0, 1.0, 0.0, -2.0]])
        proj = ProjectionMatrix.from_basis(b)
        back = projection_to_basis(proj)
        # compare spans through their projections; arccos near 1 amplifies
        # rounding past any angle tolerance this tight
        diff = back.matrix.T @ back.matrix - b.matrix.T @ b.matrix
        assert float(np.abs(diff).max()) <= 1e-8

    def test_oracle_basis_normalizes(self):
        b = oracle_basis([[2.0, 0.0, 0.0]])
        np.testing.assert_allclose(b.matrix, [[1.0, 0.0, 0.0]], atol=1e-15)


class TestPLS:
    def test_signal_plus_noise_recovers_e1(self):
        """d=1 direction is proportional to cov(X, Y), here concentrated on column 0."""
        rng = np.random.default_rng(5)
        n = 10_000
        z = rng.standard_normal(n)
        X = np.column_stack([z, rng.standard_normal((n, 4))])
        b = pls_fit(X, z, 1)
        assert abs(b.matrix[0, 0]) >= 0.99

    def test_constant_response_degenerate(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((50, 3))
        with pytest.raises(DegenerateFitError):
            pls_fit(X, np.ones(50), 1)

    def test_two_components_semi_orthogonal(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((400, 6))
        Y = X[:, 0] + 0.5 * X[:, 1] ** 2
        b = pls_fit(X, Y, 2)
        np.testing.assert_allclose(b.matrix @ b.matrix.T, np.eye(2), atol=1e-10)

    def test_model1_alignment_band(self):
        # For this design cov(X, g(Y)) = 0 for every g: the response is an even
        # function of a Gaussian index, so all first-moment statistics vanish in
        # population. The fitted direction is a ratio of sampling fluctuations
        # that happens to concentrate near the index without converging to it.
        # The median alignment sits near 0.987 at every n; assert the stable band.
        cfg = Model1Config(seed=0)
        target = np.ones(6) / np.sqrt(6.0)
        dots = []
        for rep in range(100):
            X, Y, _ = gen_model1(cfg, 1000, rng_stream=rep)
            dots.append(abs(float(pls_fit(X, Y, 1).matrix[0] @ target)))
        med = float(np.median(dots))
        assert 0.95 <= med <= 0.999


class TestPFC:
    def test_model2_recovers_population_direction(self):
        cfg = Model2Config(seed=0)
        target = cfg.beta_pop

        def fy(y):
            return np.array([y, np.abs(y)])

        dots = []
        for rep in range(100):
            X, Y, _ = gen_model2(cfg, 2000, rng_stream=rep)
            b = pfc_fit(X, Y, fy, 1)
            dots.append(abs(float(b.matrix[0] @ target)))
        assert float(np.median(dots)) >= 0.95

    def test_exact_fit_single_column(self):
        y = np.linspace(-2.0, 2.0, 40)
        X = (y + y**2).reshape(-1, 1)
        b = pfc_fit(X, y, lambda v: np.array([v, v * v]), 1)
        np.testing.assert_allclose(abs(b.matrix[0, 0]), 1.0, atol=1e-12)

    @staticmethod
    def fy2(y):
        return np.column_stack([y, np.abs(y)])

    @pytest.mark.parametrize("n", [100, 2000])
    def test_matches_scipy_generalized_eigh(self, n):
        """The Cholesky-reduced pencil gives the generalized eigenvectors of
        scipy.linalg.eigh(s_fit, m): the same basis at d = 1, the same span
        at d = 2 (the second eigenvalue is small, so only to 1e-10)."""
        from scipy.linalg import eigh

        X, Y, _ = gen_model2(Model2Config(seed=0), n)
        p = X.shape[1]
        Xc, Fc = X - X.mean(axis=0), self.fy2(Y) - self.fy2(Y).mean(axis=0)
        fitted = Fc @ np.linalg.solve(Fc.T @ Fc, Fc.T @ Xc)
        s_fit = fitted.T @ fitted / n
        s_res = (Xc - fitted).T @ (Xc - fitted) / n
        m = s_res + 1e-8 * np.trace(s_res) / p * np.eye(p)
        evals, evecs = eigh(s_fit, m)
        top = evecs[:, np.argsort(evals)[::-1]].T
        ref1 = oracle_basis(top[:1]).matrix
        np.testing.assert_allclose(pfc_fit(X, Y, self.fy2, 1).matrix, ref1, rtol=0, atol=1e-13)
        ref2 = oracle_basis(top[:2]).matrix
        got2 = pfc_fit(X, Y, self.fy2, 2).matrix
        np.testing.assert_allclose(got2.T @ got2, ref2.T @ ref2, rtol=0, atol=1e-10)

    def test_d_above_feature_count_rejected(self):
        # s_fit has rank <= r = 2, so a third direction would be arbitrary
        X, Y, _ = gen_model2(Model2Config(seed=0), 200)
        assert pfc_fit(X, Y, self.fy2, 2).d == 2
        with pytest.raises(ArgumentError, match=r"min\(r, p\)"):
            pfc_fit(X, Y, self.fy2, 3)

    def test_singular_residual_covariance_needs_ridge(self):
        X, Y, _ = gen_model2(Model2Config(seed=0), 200)
        X[:, 0] = 1.0  # a constant column: zero residual variance
        with pytest.raises(NumericError, match="pass a positive ridge"):
            pfc_fit(X, Y, self.fy2, 1, ridge=0.0)
        assert pfc_fit(X, Y, self.fy2, 1).d == 1  # the default ridge is positive

    @pytest.mark.parametrize("ridge", [math.nan, math.inf, -math.inf, -1.0])
    def test_ridge_not_finite_and_nonnegative_rejected_first(self, ridge):
        """Checked before X is read: a Y of the wrong length is not reached."""
        X, Y, _ = gen_model2(Model2Config(seed=0), 200)
        with pytest.raises(ArgumentError, match=f"^ridge must be finite and >= 0, got {ridge}$"):
            pfc_fit(X, Y[:10], self.fy2, 1, ridge=ridge)

    def test_too_many_features_rejected(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((10, 3))
        Y = rng.standard_normal(10)
        with pytest.raises(ArgumentError):
            pfc_fit(X, Y, lambda y: np.ones(12) * y, 1)

    def test_sample_size_precondition(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 3))
        with pytest.raises(ArgumentError):
            pfc_fit(X, rng.standard_normal(4), lambda y: np.array([y]), 1)

    def test_no_n_by_p_temporary(self):
        """X - mean and the fitted values are taken by row blocks in two
        reused buffers, so no n x p array is formed beside X (two replication
        threads fitting at once would each hold one), and the fit over
        several blocks is the dense generalized eigenproblem's."""
        from scipy.linalg import eigh

        X, Y, _ = gen_model2(Model2Config(seed=0), 20_000)
        X_before = X.copy()
        tracemalloc.start()
        try:
            got = pfc_fit(X, Y, self.fy2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(X, X_before)
        assert peak < 0.5 * X.nbytes
        Xc, Fc = X - X.mean(axis=0), self.fy2(Y) - self.fy2(Y).mean(axis=0)
        fitted = Fc @ np.linalg.solve(Fc.T @ Fc, Fc.T @ Xc)
        s_res = (Xc - fitted).T @ (Xc - fitted) / X.shape[0]
        evals, evecs = eigh(fitted.T @ fitted / X.shape[0],
                            s_res + 1e-8 * np.trace(s_res) / X.shape[1] * np.eye(X.shape[1]))
        ref = oracle_basis(evecs[:, [np.argmax(evals)]].T).matrix
        np.testing.assert_allclose(got.matrix, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [3000, 3277, 9928, 20_000])
    @pytest.mark.parametrize("r", [2, 3])
    def test_buffers_match_the_unbuffered_fit(self, n, r):
        """The reused block buffers change no operation: the basis is bit for
        bit that of the two passes over fresh per-block arrays, from one
        block (n p < 2^16) to several with a ragged last one. The fitted
        values' covariance is coef' (Fc' Fc) coef / n."""
        X, Y, _ = gen_model2(Model2Config(seed=1), n)
        fy = (lambda y: np.column_stack([y, np.abs(y)])) if r == 2 else \
            (lambda y: np.column_stack([y, y ** 2, y ** 3]))
        p = X.shape[1]
        mean, F = X.mean(axis=0), fy(Y)
        Fc = F - F.mean(axis=0)
        rows = (1 << 16) // p
        blocks = [slice(i, i + rows) for i in range(0, n, rows)]
        ftf = Fc.T @ Fc
        coef = np.linalg.solve(ftf, sum(Fc[b].T @ (X[b] - mean) for b in blocks))
        s_fit, s_res = coef.T @ (ftf @ coef) / n, np.zeros((p, p))
        for b in blocks:
            resid = X[b] - mean - Fc[b] @ coef
            s_res += resid.T @ resid
        s_res /= n
        m = s_res + 1e-8 * float(np.trace(s_res)) / p * np.eye(p)
        L_inv = np.linalg.inv(np.linalg.cholesky(m))
        evals, evecs = np.linalg.eigh(L_inv @ s_fit @ L_inv.T)
        for d in range(1, r + 1):
            ref = oracle_basis(evecs[:, np.argsort(evals)[::-1][:d]].T @ L_inv)
            assert np.array_equal(pfc_fit(X, Y, fy, d).matrix, ref.matrix)


class TestSIR:
    def test_linear_model_recovery(self):
        rng = np.random.default_rng(42)
        n, p = 5000, 8
        beta = np.array([3.0, 1.0, 0.0, 0.0, -2.0, 0.0, 0.0, 1.0])
        beta /= np.linalg.norm(beta)
        X = rng.standard_normal((n, p))
        Y = X @ beta + 0.5 * rng.standard_normal(n)
        b = sir_fit(X, Y, slices=10, d=1)
        assert abs(float(b.matrix[0] @ beta)) >= 0.95

    def test_symmetric_response_pathology(self):
        # E(X|Y) = 0 when the response is even in a symmetric index, so the
        # between-slice covariance carries no signal. The estimate is noise;
        # this records the known failure mode rather than asserting recovery.
        rng = np.random.default_rng(42)
        _ = rng.standard_normal((5000, 8))  # advance past the linear case draws
        _ = rng.standard_normal(5000)
        X = rng.standard_normal((5000, 6))
        beta = np.ones(6) / np.sqrt(6.0)
        Y = (X @ beta) ** 2
        b = sir_fit(X, Y, slices=10, d=1)
        assert abs(float(b.matrix[0] @ beta)) < 0.9

    def test_slice_count_validation(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((20, 2))
        Y = rng.standard_normal(20)
        with pytest.raises(ArgumentError):
            sir_fit(X, Y, slices=25, d=1)
        with pytest.raises(ArgumentError):
            sir_fit(X, Y, slices=1, d=1)

    def test_singular_covariance_reported(self):
        rng = np.random.default_rng(4)
        col = rng.standard_normal(60)
        X = np.column_stack([col, col, rng.standard_normal(60)])
        with pytest.raises(NumericError):
            sir_fit(X, rng.standard_normal(60), slices=5, d=1)


class TestProjectionExtraction:
    def test_random_projections_extraction(self):
        """Top-d eigenvectors of a rank-d projection recover an orthonormal basis of its range."""
        rng = np.random.default_rng(17)
        for _ in range(25):
            p = int(rng.integers(3, 31))
            d = int(rng.integers(1, min(4, p)))
            q, _ = np.linalg.qr(rng.standard_normal((p, d)))
            proj = q @ q.T
            b = projection_to_basis(ProjectionMatrix(matrix=proj))
            np.testing.assert_allclose(b.matrix @ b.matrix.T, np.eye(d), atol=1e-10)
            np.testing.assert_allclose(proj @ b.matrix.T, b.matrix.T, atol=1e-8)

    def test_identity_full_rank(self):
        p = 5
        b = projection_to_basis(ProjectionMatrix(matrix=np.eye(p)))
        np.testing.assert_allclose(b.matrix @ b.matrix.T, np.eye(p), atol=1e-12)

    def test_perturbation_rate(self):
        """Principal angle of the perturbed-and-reprojected estimate decays like n^(-1/2)."""
        p = 6
        b0 = np.ones((1, p)) / np.sqrt(p)
        proj0 = b0.T @ b0
        rng = np.random.default_rng(3)
        s0 = rng.standard_normal((p, p))
        s0 = (s0 + s0.T) / 2.0
        ns = [10**2, 10**3, 10**4, 10**5, 10**6]
        angles = []
        for n in ns:
            noisy = proj0 + s0 / np.sqrt(n)
            w, v = np.linalg.eigh((noisy + noisy.T) / 2.0)
            nearest = np.outer(v[:, -1], v[:, -1])
            b = projection_to_basis(ProjectionMatrix(matrix=nearest))
            s = np.linalg.svd(b.matrix @ b0.T, compute_uv=False)
            angles.append(float(np.arccos(np.clip(s[0], -1.0, 1.0))))
        slope = float(np.polyfit(np.log(ns), np.log(angles), 1)[0])
        assert -0.7 <= slope <= -0.3

    def test_ambiguous_rank_guard(self):
        # the entrywise idempotence tolerance pins eigenvalues near {0, 1}, so
        # this state cannot be built through the public constructors; exercise
        # the guard directly on a synthetic near-projection
        pm = object.__new__(ProjectionMatrix)
        object.__setattr__(pm, "matrix", np.diag([1.0, 0.5 + 1e-7, 0.5, 0.0]))
        with pytest.raises(AmbiguousRankError):
            projection_to_basis(pm)

    def test_raw_array_accepted(self):
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 2)))
        proj = q @ q.T
        b = projection_to_basis(proj)  # rank inferred from the trace
        assert b.d == 2


class TestReduce:
    def test_coordinate_selection(self):
        basis = ReductionBasis(matrix=np.array([[0.0, 1.0, 0.0]]))
        X = np.arange(12.0).reshape(4, 3)
        np.testing.assert_allclose(reduce(basis, X)[:, 0], X[:, 1])

    def test_ones_direction_algebra(self):
        b = oracle_basis([np.ones(6)])
        w = reduce(b, np.ones((1, 6)))
        np.testing.assert_allclose(w, [[np.sqrt(6.0)]], rtol=1e-14)

    def test_orthogonal_recombination(self):
        """reduce(A b, X) = reduce(b, X) A^T for any orthogonal d x d A."""
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        b = ReductionBasis(matrix=q.T)
        a, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        b_rot = ReductionBasis(matrix=a @ q.T)
        X = rng.standard_normal((30, 5))
        np.testing.assert_allclose(
            reduce(b_rot, X), reduce(b, X) @ a.T, atol=1e-12
        )

    def test_single_vector_input(self):
        b = oracle_basis([[1.0, 0.0]])
        out = reduce(b, np.array([3.0, 9.0]))
        np.testing.assert_allclose(out, [3.0])

    def test_dimension_mismatch(self):
        b = oracle_basis([[1.0, 0.0]])
        with pytest.raises(ArgumentError):
            reduce(b, np.ones((4, 3)))

    def test_sign_convention_deterministic(self):
        # first entry of magnitude above threshold is made positive
        b = oracle_basis([[-2.0, 1.0, 0.0]])
        assert b.matrix[0, 0] > 0.0


class TestDispatcher:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.X = rng.standard_normal((200, 4))
        self.Y = self.X[:, 0] + 0.5 * self.X[:, 1] ** 2 + 0.2 * rng.standard_normal(200)

    def cubic(self, y):
        return np.column_stack([y, y ** 2, y ** 3])

    def test_np_first_then_reductions(self):
        # the CLI offers FIT_METHODS[1:] to `reduce`, which has no "np"
        assert FIT_METHODS == ("np", "pls", "pfc", "sir")

    @pytest.mark.parametrize("d", [1, 2])
    def test_same_matrix_as_direct_call(self, d):
        X, Y = self.X, self.Y
        direct = {
            "np": oracle_basis(np.eye(4)),
            "pls": pls_fit(X, Y, d),
            "pfc": pfc_fit(X, Y, self.cubic, d, ridge=1e-6),
            "sir": sir_fit(X, Y, 5, d),
        }
        for method in FIT_METHODS:
            got = fit(method, X, Y, d, fy=self.cubic, ridge=1e-6, slices=5)
            assert np.array_equal(got.matrix, direct[method].matrix), method

    def test_defaults_match_direct_call(self):
        X, Y = self.X, self.Y
        assert np.array_equal(fit("pfc", X, Y, 1, fy=self.cubic).matrix,
                              pfc_fit(X, Y, self.cubic, 1).matrix)
        assert np.array_equal(fit("sir", X, Y, 1).matrix, sir_fit(X, Y, None, 1).matrix)

    @pytest.mark.parametrize("method, d, message", [
        ("pls", 0, "need n > d >= 1, got n=200, d=0"),
        ("pls", 5, "need 1 <= d <= p, got d=5, p=4"),
        ("sir", 0, "need 1 <= d <= p, got d=0"),
        ("sir", 5, "need 1 <= d <= p, got d=5"),
    ])
    def test_d_outside_one_to_p_rejected(self, method, d, message):
        """pls and sir take 1 <= d <= p, d = p included, here p = 4."""
        with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
            fit(method, self.X, self.Y, d)
        assert fit(method, self.X, self.Y, 4).d == 4

    def test_unknown_method_rejected(self):
        with pytest.raises(ArgumentError, match="unknown reduction method 'oracle'"):
            fit("oracle", self.X, self.Y, 1)

    def test_pfc_needs_feature_map(self):
        with pytest.raises(ArgumentError, match="feature map"):
            fit("pfc", self.X, self.Y, 1)


class TestScaleEquivariance:
    """Rescaling X or Y by a power of 2 rescales every intermediate exactly,
    so a fit's degeneracy tests are relative and its basis stays bit for bit."""

    SCALES = (-60, -43, -24, 0, 24, 43, 60)

    FITS = {
        "pls": lambda X, Y: pls_fit(X, Y, 2),
        "sir": lambda X, Y: sir_fit(X, Y, 10, 2),
        # a feature map homogeneous in y, so Y * 2^k scales every feature alike
        "pfc": lambda X, Y: pfc_fit(X, Y, lambda y: np.column_stack([y, np.abs(y)]), 2),
    }

    @pytest.mark.parametrize("method", FITS)
    def test_basis_unchanged_by_power_of_two_scaling(self, method):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((500, 5))
        Y = X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.2 * rng.standard_normal(500)
        fit_basis = self.FITS[method]
        reference = fit_basis(X, Y).matrix
        for kx in self.SCALES:
            for ky in self.SCALES:
                got = fit_basis(np.ldexp(X, kx), np.ldexp(Y, ky)).matrix
                assert np.array_equal(got, reference), (kx, ky)

    @pytest.mark.parametrize("k", SCALES)
    def test_pls_degenerate_at_every_scale(self, k):
        """A zero X, a constant Y and a Y exactly uncorrelated with X (the
        rows come in +/- pairs, Y even in them) still raise."""
        X = np.random.default_rng(0).standard_normal((250, 3))
        pairs, even = np.vstack([X, -X]), np.concatenate([X[:, 0] ** 2] * 2)
        for X_, Y_ in ((np.zeros((500, 3)), pairs[:, 0]), (pairs, np.full(500, 3.7)),
                       (pairs, even)):
            with pytest.raises(DegenerateFitError, match="^response is uncorrelated"):
                pls_fit(np.ldexp(X_, k), np.ldexp(Y_, k), 2)

    def test_oracle_rank_test_is_relative(self):
        rows = np.array([[3.0, 1.0, 0.0], [0.0, 1.0, 2.0]])
        reference = oracle_basis(rows).matrix
        for k in (-60, 60):
            assert np.array_equal(oracle_basis(np.ldexp(rows, k)).matrix, reference)
        np.testing.assert_allclose(oracle_basis(1e-13 * rows).matrix, reference, atol=1e-15)
        for bad in (np.zeros((2, 3)), [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]]):
            with pytest.raises(DegenerateFitError, match="^fitted directions are rank deficient"):
                oracle_basis(bad)
