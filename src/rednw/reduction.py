"""Linear sufficient-reduction estimators.

Fits a d x p reduction matrix from data (PLS, principal fitted components,
or sliced inverse regression) and extracts orthonormal bases from rank-d
projection matrices. Only the row span of a basis matters downstream; every
fit returns rows orthonormalized with a deterministic sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import (
    AmbiguousRankError,
    ArgumentError,
    DegenerateFitError,
    NumericError,
)

# names reduction.fit accepts; "np" is the identity basis (no reduction)
FIT_METHODS = ("np", "pls", "pfc", "sir")

_ORTHO_TOL = 1e-10
# entries per temporary of a row-blocked pass: the blocks of row_blocks, and
# the radii and centred sample chunks of an NW block in npregress
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ReductionBasis:
    """Orthonormal d x p reduction matrix.

    Args:
        matrix: d x p array with orthonormal rows; ``d`` (the reduced
            dimension) and ``p`` (the ambient one) are read from its shape.
    """

    matrix: NDArray[np.floating]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.size == 0:
            raise ArgumentError(f"basis matrix must be a non-empty 2-d array, got shape {m.shape}")
        gram = m @ m.T
        dev = float(np.max(np.abs(gram - np.eye(self.d))))
        if not dev <= _ORTHO_TOL:  # NaN entries fail too
            raise ArgumentError(f"basis rows are not orthonormal (max deviation {dev:.3e} > {_ORTHO_TOL:g})")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ProjectionMatrix:
    """Orthogonal projection on R^p, its rank the trace; invariants checked on build."""

    matrix: NDArray[np.floating]

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
        if not abs(tr - np.rint(tr)) <= 1e-6:
            raise ArgumentError(f"trace {tr:.8f} is not an integer")

    @property
    def rank(self) -> int:
        return int(np.rint(np.trace(self.matrix)))

    @classmethod
    def from_basis(cls, basis: ReductionBasis) -> "ProjectionMatrix":
        return cls(matrix=basis.matrix.T @ basis.matrix)


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


def oracle_basis(rows: NDArray[np.floating] | Sequence[Sequence[float]]) -> ReductionBasis:
    """Basis from externally known directions (orthonormalized row span);
    rows that are empty, not 2-d or not finite raise ArgumentError."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.ndim != 2 or rows.size == 0:
        raise ArgumentError(f"directions must form a non-empty 2-d array, got shape {rows.shape}")
    if not all_finite(rows):
        raise ArgumentError("directions must be finite")
    u, s, vt = np.linalg.svd(rows, full_matrices=False)
    # relative, so rows of any scale pass; an all-zero block fails
    if not s[-1] > 1e-12 * s[0]:
        raise DegenerateFitError(f"fitted directions are rank deficient (singular values {s})")
    return ReductionBasis(matrix=_fix_signs(vt[:rows.shape[0]]))


def all_finite(a: NDArray[np.floating]) -> bool:
    """Every entry finite; only a sum that is not finite gets the exact test."""
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(a.sum()) or np.isfinite(a).all())


def row_blocks(n: int, p: int) -> list[slice]:
    """Row slices of an n x p array, each of at most max(_BLOCK_ENTRIES, p) entries."""
    rows = max(1, _BLOCK_ENTRIES // p)
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


def _check_xy(X, Y):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    if X.ndim != 2:
        raise ArgumentError(f"X must be a 2-d array, got ndim={X.ndim}")
    if X.shape[0] != Y.shape[0]:
        raise ArgumentError(f"X has {X.shape[0]} rows but Y has {Y.shape[0]} entries")
    if not (all_finite(X) and all_finite(Y)):
        raise ArgumentError("X and Y must be finite")
    return X, Y


def pls_fit(X: NDArray[np.floating], Y: NDArray[np.floating], d: int) -> ReductionBasis:
    """First-d partial-least-squares weight directions, orthonormalized.

    NIPALS with deflation of X only; for d=1 the direction is proportional
    to the sample covariance cov(X, Y). The basis is the same under any
    rescaling of X or Y by a power of 2 that keeps them in the float range.

    Raises:
        DegenerateFitError: at any step, a covariance vector norm at most
            1e-12 ||Xc|| ||Yc|| / n or a squared score norm at most
            1e-30 ||Xc||^2, for the centered X and Y before any deflation
            (Frobenius norms).
    """
    X, Y = _check_xy(X, Y)
    n, p = X.shape
    if not (n > d >= 1):
        raise ArgumentError(f"need n > d >= 1, got n={n}, d={d}")
    if d > p:
        raise ArgumentError(f"need 1 <= d <= p, got d={d}, p={p}")
    Xd = X - X.mean(axis=0)
    yc = Y - Y.mean()
    # both floors scale with the data, so a power-of-2 rescaling moves none
    # of the tests; ||Xc|| ||Yc|| / n bounds ||c|| by Cauchy-Schwarz. Sums of
    # squares, not np.linalg.norm, whose BLAS dot on n x p entries wakes
    # OpenBLAS's threads, which then spin on the CPU after the call
    x_norm = math.sqrt(float(np.sum(Xd * Xd)))
    c_floor = 1e-12 * x_norm * math.sqrt(float(np.sum(yc * yc))) / n
    weights = []
    for _ in range(d):
        c = Xd.T @ yc / n
        cn = float(np.linalg.norm(c))
        if not cn > c_floor:
            raise DegenerateFitError(
                f"response is uncorrelated with every predictor column (covariance norm {cn:.3e})"
            )
        w = c / cn
        t = Xd @ w
        tt = float(t @ t)
        if not tt > 1e-30 * x_norm ** 2:
            raise DegenerateFitError("PLS score collapsed to zero; predictors already deflated away")
        Xd = Xd - np.outer(t, Xd.T @ t / tt)
        weights.append(w)
    return oracle_basis(np.array(weights))


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
        ArgumentError: a ridge that is not finite and >= 0, n <= p + r
            (includes r >= n), or d outside [1, min(r, p)].
        NumericError: singular residual covariance with ridge=0.
    """
    if ridge is not None and not 0 <= ridge < math.inf:
        raise ArgumentError(f"ridge must be finite and >= 0, got {ridge}")
    X, Y = _check_xy(X, Y)
    n, p = X.shape
    F = _feature_matrix(fy_basis, Y)
    r = F.shape[1]
    if r >= n:
        raise ArgumentError(f"feature dimension r={r} must be smaller than n={n}")
    if n <= p + r:
        raise ArgumentError(f"need n > p + r, got n={n}, p={p}, r={r}")
    # s_fit has rank at most r, so directions past the r-th are arbitrary
    if d < 1 or d > min(r, p):
        raise ArgumentError(f"need 1 <= d <= min(r, p), got d={d}, r={r}, p={p}")
    mean, Fc = X.mean(axis=0), F - F.mean(axis=0)
    del F
    # X - mean and the fitted values by row blocks, in two buffers every block
    # reuses: no n x p array beside X, which each replication thread would hold
    blocks = row_blocks(n, p)
    xc, fitted = np.empty((2, blocks[0].stop, p))
    ftf = Fc.T @ Fc
    try:
        ftx = sum(Fc[b].T @ np.subtract(X[b], mean, out=xc[:b.stop - b.start]) for b in blocks)
        coef = np.linalg.solve(ftf, ftx)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"f_y features are collinear; choose an independent basis ({exc})") from exc
    # the fitted values' covariance is coef' (Fc' Fc) coef / n, no n x p product
    s_fit, s_res = coef.T @ (ftf @ coef) / n, np.zeros((p, p))
    for b in blocks:
        k = b.stop - b.start
        resid = np.subtract(X[b], mean, out=xc[:k])
        resid -= np.matmul(Fc[b], coef, out=fitted[:k])
        s_res += resid.T @ resid
    s_res /= n
    if ridge is None:
        ridge = 1e-8 * float(np.trace(s_res)) / p
    m = s_res + ridge * np.eye(p)
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(m))
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"residual covariance is singular with ridge={ridge:g}; pass a positive ridge"
        ) from exc
    # with m = L L^T the pencil (s_fit, m) has the eigenvalues of the
    # symmetric L^-1 s_fit L^-T, and its eigenvectors u map back as L^-T u
    evals, evecs = np.linalg.eigh(L_inv @ s_fit @ L_inv.T)
    rows = evecs[:, np.argsort(evals)[::-1][:d]].T @ L_inv
    return oracle_basis(rows)


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
    return oracle_basis((whiten @ top).T)


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


def projection_to_basis(P: ProjectionMatrix | NDArray[np.floating]) -> ReductionBasis:
    """Orthonormal basis of the range of a projection of rank d, its trace.

    Takes the top-d eigenvectors of the symmetrized matrix. Raw arrays are
    validated through ProjectionMatrix first.

    Raises:
        AmbiguousRankError: eigengap between the d-th and (d+1)-th
            eigenvalue below 1e-6.
    """
    if not isinstance(P, ProjectionMatrix):
        P = ProjectionMatrix(matrix=P)
    d, p = P.rank, P.matrix.shape[0]
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
    return ReductionBasis(matrix=_fix_signs(rows))


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
