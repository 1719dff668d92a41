"""Tests for linear reduction estimators and projection extraction."""

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
            ReductionBasis(matrix=np.array([[1.0, 1.0]]), method="oracle", d=1, p=2)

    def test_method_enum_enforced(self):
        with pytest.raises(ArgumentError):
            ReductionBasis(matrix=np.array([[1.0, 0.0]]), method="ols", d=1, p=2)

    def test_projection_invariants(self):
        with pytest.raises(ArgumentError):
            ProjectionMatrix(matrix=np.array([[0.5, 0.4], [0.1, 0.5]]), rank=1)
        with pytest.raises(ArgumentError):
            # symmetric but not idempotent
            ProjectionMatrix(matrix=np.array([[0.5, 0.0], [0.0, 0.5]]), rank=1)

    def test_projection_from_basis_round_trip(self):
        b = oracle_basis([[3.0, 1.0, 0.0, -2.0]])
        proj = ProjectionMatrix.from_basis(b)
        back = projection_to_basis(proj, d=1)
        # compare spans through their projections; arccos near 1 amplifies
        # rounding past any angle tolerance this tight
        diff = back.matrix.T @ back.matrix - b.matrix.T @ b.matrix
        assert float(np.abs(diff).max()) <= 1e-8

    def test_oracle_basis_normalizes(self):
        b = oracle_basis([[2.0, 0.0, 0.0]])
        np.testing.assert_allclose(b.matrix, [[1.0, 0.0, 0.0]], atol=1e-15)
        assert b.method == "oracle"


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
            b = projection_to_basis(ProjectionMatrix(matrix=proj, rank=d), d=d)
            np.testing.assert_allclose(b.matrix @ b.matrix.T, np.eye(d), atol=1e-10)
            np.testing.assert_allclose(proj @ b.matrix.T, b.matrix.T, atol=1e-8)

    def test_identity_full_rank(self):
        p = 5
        b = projection_to_basis(ProjectionMatrix(matrix=np.eye(p), rank=p), d=p)
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
            b = projection_to_basis(ProjectionMatrix(matrix=nearest, rank=1), d=1)
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
        object.__setattr__(pm, "rank", 2)
        with pytest.raises(AmbiguousRankError):
            projection_to_basis(pm, d=2)

    def test_rank_mismatch_rejected(self):
        proj = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(ArgumentError):
            projection_to_basis(ProjectionMatrix(matrix=proj, rank=2), d=1)

    def test_raw_array_accepted(self):
        q, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 2)))
        proj = q @ q.T
        b = projection_to_basis(proj)  # rank inferred from the trace
        assert b.d == 2


class TestReduce:
    def test_coordinate_selection(self):
        basis = ReductionBasis(
            matrix=np.array([[0.0, 1.0, 0.0]]), method="oracle", d=1, p=3
        )
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
        b = ReductionBasis(matrix=q.T, method="oracle", d=2, p=5)
        a, _ = np.linalg.qr(rng.standard_normal((2, 2)))
        b_rot = ReductionBasis(matrix=a @ q.T, method="oracle", d=2, p=5)
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
            assert got.method == direct[method].method
            assert np.array_equal(got.matrix, direct[method].matrix), method

    def test_defaults_match_direct_call(self):
        X, Y = self.X, self.Y
        assert np.array_equal(fit("pfc", X, Y, 1, fy=self.cubic).matrix,
                              pfc_fit(X, Y, self.cubic, 1).matrix)
        assert np.array_equal(fit("sir", X, Y, 1).matrix, sir_fit(X, Y, None, 1).matrix)

    def test_unknown_method_rejected(self):
        with pytest.raises(ArgumentError, match="unknown reduction method 'oracle'"):
            fit("oracle", self.X, self.Y, 1)

    def test_pfc_needs_feature_map(self):
        with pytest.raises(ArgumentError, match="feature map"):
            fit("pfc", self.X, self.Y, 1)
