"""Linear sufficient-reduction estimators.

Fits a d x p reduction matrix from data (PLS, principal fitted components,
or sliced inverse regression) and extracts orthonormal bases from rank-d
projection matrices. Only the row span of a basis matters downstream; every
fit returns rows orthonormalized with a deterministic sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .errors import (
    AmbiguousRankError,
    ArgumentError,
    DegenerateFitError,
    NumericError,
)

METHODS = ("pls", "pfc", "sir", "oracle", "from_projection")
# names reduction.fit accepts; "np" is the identity basis (no reduction)
FIT_METHODS = ("np", "pls", "pfc", "sir")

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class ReductionBasis:
    """Orthonormal d x p reduction matrix with its provenance.

    Args:
        matrix: d x p array with orthonormal rows.
        method: one of ``METHODS``.
        d: number of rows (reduced dimension).
        p: number of columns (ambient dimension).
    """

    matrix: NDArray[np.floating]
    method: str
    d: int
    p: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if self.method not in METHODS:
            raise ArgumentError(f"unknown reduction method {self.method!r}; expected one of {METHODS}")
        if m.ndim != 2 or m.shape != (self.d, self.p):
            raise ArgumentError(f"basis matrix shape {m.shape} does not match (d, p)=({self.d}, {self.p})")
        gram = m @ m.T
        dev = float(np.max(np.abs(gram - np.eye(self.d))))
        if dev > _ORTHO_TOL:
            raise ArgumentError(f"basis rows are not orthonormal (max deviation {dev:.3e} > {_ORTHO_TOL:g})")


@dataclass(frozen=True)
class ProjectionMatrix:
    """Rank-d orthogonal projection on R^p; invariants checked on build."""

    matrix: NDArray[np.floating]
    rank: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ArgumentError(f"projection matrix must be square, got shape {m.shape}")
        sym = float(np.max(np.abs(m - m.T)))
        if sym > 1e-10:
            raise ArgumentError(f"projection matrix is not symmetric (max asymmetry {sym:.3e})")
        idem = float(np.max(np.abs(m @ m - m)))
        if idem > 1e-8:
            raise ArgumentError(f"projection matrix is not idempotent (max deviation {idem:.3e})")
        tr = float(np.trace(m))
        if abs(tr - self.rank) > 1e-6:
            raise ArgumentError(f"trace {tr:.8f} does not match rank {self.rank}")

    @classmethod
    def from_basis(cls, basis: ReductionBasis) -> "ProjectionMatrix":
        return cls(matrix=basis.matrix.T @ basis.matrix, rank=basis.d)


def _fix_signs(rows: NDArray[np.floating]) -> NDArray[np.floating]:
    # deterministic representative of the span: first nonzero entry positive
    out = rows.copy()
    for i in range(out.shape[0]):
        row = out[i]
        scale = np.max(np.abs(row))
        idx = np.nonzero(np.abs(row) > 1e-12 * max(scale, 1.0))[0]
        if idx.size and row[idx[0]] < 0:
            out[i] = -row
    return out


def _make_basis(rows: NDArray[np.floating], method: str) -> ReductionBasis:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    d, p = rows.shape
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    if s[-1] < 1e-12 * max(s[0], 1.0):
        raise DegenerateFitError(f"fitted directions are rank deficient (singular values {s})")
    return ReductionBasis(matrix=_fix_signs(vt[:d]), method=method, d=d, p=p)


def oracle_basis(rows: NDArray[np.floating] | Sequence[Sequence[float]]) -> ReductionBasis:
    """Basis from externally known directions (orthonormalized row span)."""
    return _make_basis(np.atleast_2d(np.asarray(rows, dtype=float)), "oracle")


def _check_xy(X, Y):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    if X.ndim != 2:
        raise ArgumentError(f"X must be a 2-d array, got ndim={X.ndim}")
    if X.shape[0] != Y.shape[0]:
        raise ArgumentError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(Y)):
        raise ArgumentError("X and Y must be finite")
    return X, Y


def pls_fit(X: NDArray[np.floating], Y: NDArray[np.floating], d: int) -> ReductionBasis:
    """First-d partial-least-squares weight directions, orthonormalized.

    NIPALS with deflation of X only; for d=1 the direction is proportional
    to the sample covariance cov(X, Y).

    Raises:
        DegenerateFitError: covariance vector norm below 1e-12 at any step.
    """
    X, Y = _check_xy(X, Y)
    n, p = X.shape
    if not (n > d >= 1):
        raise ArgumentError(f"need n > d >= 1, got n={n}, d={d}")
    Xd = X - X.mean(axis=0)
    yc = Y - Y.mean()
    weights = []
    for _ in range(d):
        c = Xd.T @ yc / n
        cn = float(np.linalg.norm(c))
        if cn < 1e-12:
            raise DegenerateFitError(
                f"response is uncorrelated with every predictor column (covariance norm {cn:.3e})"
            )
        w = c / cn
        t = Xd @ w
        tt = float(t @ t)
        if tt < 1e-30:
            raise DegenerateFitError("PLS score collapsed to zero; predictors already deflated away")
        Xd = Xd - np.outer(t, Xd.T @ t / tt)
        weights.append(w)
    return _make_basis(np.array(weights), "pls")


def _feature_matrix(fy_basis: Callable, Y: NDArray[np.floating]) -> NDArray[np.floating]:
    try:
        F = np.asarray(fy_basis(Y), dtype=float)
        if F.ndim == 1 and F.shape[0] == Y.shape[0]:
            F = F[:, None]
        if F.ndim != 2 or F.shape[0] != Y.shape[0]:
            raise ValueError
    except Exception:
        F = np.array([np.atleast_1d(np.asarray(fy_basis(float(y)), dtype=float)) for y in Y])
    if not np.all(np.isfinite(F)):
        raise ArgumentError("fy_basis produced non-finite feature values")
    return F


def pfc_fit(X: NDArray[np.floating], Y: NDArray[np.floating],
            fy_basis: Callable, d: int, ridge: float | None = None) -> ReductionBasis:
    """Principal fitted components with feature map f_y.

    Regresses centered X on centered f_y; the basis rows are the top-d
    generalized eigenvectors of (fitted-value covariance, residual
    covariance + ridge*I).

    Args:
        fy_basis: map y -> R^r, applied to the whole Y vector when possible.
        ridge: added to the residual covariance diagonal; default
            1e-8 * trace(residual covariance) / p.

    Raises:
        ArgumentError: n <= p + r (includes r >= n).
        NumericError: singular residual covariance with ridge=0.
    """
    X, Y = _check_xy(X, Y)
    n, p = X.shape
    F = _feature_matrix(fy_basis, Y)
    r = F.shape[1]
    if r >= n:
        raise ArgumentError(f"feature dimension r={r} must be smaller than n={n}")
    if n <= p + r:
        raise ArgumentError(f"need n > p + r, got n={n}, p={p}, r={r}")
    if d < 1 or d > p:
        raise ArgumentError(f"need 1 <= d <= p, got d={d}")
    Xc = X - X.mean(axis=0)
    Fc = F - F.mean(axis=0)
    try:
        coef = np.linalg.solve(Fc.T @ Fc, Fc.T @ Xc)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"f_y features are collinear; choose an independent basis ({exc})") from exc
    fitted = Fc @ coef
    s_fit = fitted.T @ fitted / n
    resid = Xc - fitted
    s_res = resid.T @ resid / n
    if ridge is None:
        ridge = 1e-8 * float(np.trace(s_res)) / p
    if ridge < 0:
        raise ArgumentError(f"ridge must be >= 0, got {ridge}")
    m = s_res + ridge * np.eye(p)
    try:
        np.linalg.cholesky(m)
        evals, evecs = scipy.linalg.eigh(s_fit, m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"residual covariance is singular with ridge={ridge:g}; pass a positive ridge"
        ) from exc
    rows = evecs[:, np.argsort(evals)[::-1][:d]].T
    return _make_basis(rows, "pfc")


def sir_fit(X: NDArray[np.floating], Y: NDArray[np.floating],
            slices: int | None = None, d: int = 1) -> ReductionBasis:
    """Sliced inverse regression on quantile bins of Y.

    Args:
        slices: number of Y-bins; default min(10, n // 20).

    Raises:
        ArgumentError: slices > n or fewer than 2 slices.
        NumericError: singular sample covariance of X.
    """
    X, Y = _check_xy(X, Y)
    n, p = X.shape
    if slices is None:
        slices = min(10, n // 20)
    if slices > n:
        raise ArgumentError(f"cannot form {slices} non-empty slices from n={n} observations")
    if slices < 2:
        raise ArgumentError(f"need at least 2 slices, got {slices}; pass slices explicitly for small n")
    if d < 1 or d > p:
        raise ArgumentError(f"need 1 <= d <= p, got d={d}")
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / n
    vals, vecs = np.linalg.eigh(cov)
    if vals[0] <= 1e-12 * max(vals[-1], 1e-300):
        raise NumericError(
            "sample covariance of X is singular; add a small ridge to the predictors "
            "or drop collinear columns"
        )
    whiten = vecs @ np.diag(vals ** -0.5) @ vecs.T
    Z = Xc @ whiten
    order = np.argsort(Y, kind="stable")
    between = np.zeros((p, p))
    for idx in np.array_split(order, slices):
        mz = Z[idx].mean(axis=0)
        between += (idx.size / n) * np.outer(mz, mz)
    evals, evecs = np.linalg.eigh(between)
    top = evecs[:, np.argsort(evals)[::-1][:d]]
    return _make_basis((whiten @ top).T, "sir")


def fit(method: str, X: NDArray[np.floating], Y: NDArray[np.floating], d: int, *,
        fy: Callable | None = None, ridge: float | None = None,
        slices: int | None = None) -> ReductionBasis:
    """Fit the reduction named ``method``, one of ``FIT_METHODS``.

    "np" is the p x p identity basis and ignores d. ``fy`` and ``ridge`` go
    to pfc_fit, which needs ``fy``; ``slices`` goes to sir_fit.
    """
    if method == "np":
        return oracle_basis(np.eye(np.shape(X)[1]))
    if method == "pls":
        return pls_fit(X, Y, d)
    if method == "pfc":
        if fy is None:
            raise ArgumentError("pfc needs a feature map fy")
        return pfc_fit(X, Y, fy, d, ridge=ridge)
    if method == "sir":
        return sir_fit(X, Y, slices, d)
    raise ArgumentError(f"unknown reduction method {method!r}; expected one of {FIT_METHODS}")


def projection_to_basis(P: ProjectionMatrix | NDArray[np.floating],
                        d: int | None = None) -> ReductionBasis:
    """Orthonormal basis of the range of a rank-d projection.

    Takes the top-d eigenvectors of the symmetrized matrix. Raw arrays are
    validated through ProjectionMatrix first.

    Raises:
        AmbiguousRankError: eigengap between the d-th and (d+1)-th
            eigenvalue below 1e-6.
    """
    if not isinstance(P, ProjectionMatrix):
        m = np.asarray(P, dtype=float)
        if d is None:
            d = int(round(float(np.trace(m))))
        P = ProjectionMatrix(matrix=m, rank=d)
    if d is None:
        d = P.rank
    if d != P.rank:
        raise ArgumentError(f"requested d={d} but projection has rank {P.rank}")
    p = P.matrix.shape[0]
    if not (1 <= d <= p):
        raise ArgumentError(f"need 1 <= d <= p, got d={d}, p={p}")
    sym = 0.5 * (P.matrix + P.matrix.T)
    evals, evecs = np.linalg.eigh(sym)
    desc = np.argsort(evals)[::-1]
    if d < p:
        gap = float(evals[desc[d - 1]] - evals[desc[d]])
        if gap < 1e-6:
            raise AmbiguousRankError(
                f"eigengap {gap:.3e} below 1e-6 between eigenvalues {d} and {d + 1}; "
                f"rank {d} is not identifiable from this matrix"
            )
    rows = evecs[:, desc[:d]].T
    return ReductionBasis(matrix=_fix_signs(rows), method="from_projection", d=d, p=p)


def reduce(basis: ReductionBasis, X: NDArray[np.floating]) -> NDArray[np.floating]:
    """Map X (n x p, or a single p-vector) to reduced coordinates X @ matrix.T."""
    X = np.asarray(X, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != basis.p:
        raise ArgumentError(f"X has shape {X.shape}; basis expects {basis.p} columns")
    W = X @ basis.matrix.T
    return W[0] if single else W
