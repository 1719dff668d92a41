"""Nadaraya-Watson regression on reduced predictors.

Point estimates eta_hat(x0) = sum_i w_i Y_i / sum_i w_i with radial kernel
weights w_i = K((basis x0 - basis X_i)/h), plug-in density and conditional
variance estimates, and asymptotic confidence intervals with half-width
z * sqrt(sigma2 * R(K) / (n h^d f_hat)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ArgumentError, EmptyWindowError
from .kernels import RadialKernel
from .reduction import ReductionBasis, reduce as _reduce

BANDWIDTH_KINDS = ("power_rule", "fixed", "loocv")
EXPONENT_DIMS = ("ambient_p", "reduced_d")
# total kernel weight below which a window counts as empty
_MIN_EFFECTIVE_MASS = 1e-12

# rational approximation of the standard normal quantile (Acklam's
# coefficients), refined below by one Halley step against erfc
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00)


def gaussian_quantile(q: float) -> float:
    """Standard normal quantile, accurate to ~1e-12 near common levels."""
    if not (0.0 < q < 1.0):
        raise ArgumentError(f"quantile level must lie in (0, 1), got {q}")
    p_low = 0.02425
    if q < p_low:
        u = math.sqrt(-2.0 * math.log(q))
        x = ((((((_QC[0] * u + _QC[1]) * u + _QC[2]) * u + _QC[3]) * u + _QC[4]) * u + _QC[5])
             / ((((_QD[0] * u + _QD[1]) * u + _QD[2]) * u + _QD[3]) * u + 1.0))
    elif q <= 1.0 - p_low:
        u = q - 0.5
        r = u * u
        x = ((((((_QA[0] * r + _QA[1]) * r + _QA[2]) * r + _QA[3]) * r + _QA[4]) * r + _QA[5]) * u
             / (((((_QB[0] * r + _QB[1]) * r + _QB[2]) * r + _QB[3]) * r + _QB[4]) * r + 1.0))
    else:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        x = -((((((_QC[0] * u + _QC[1]) * u + _QC[2]) * u + _QC[3]) * u + _QC[4]) * u + _QC[5])
              / ((((_QD[0] * u + _QD[1]) * u + _QD[2]) * u + _QD[3]) * u + 1.0))
    # one Halley refinement pins the residual well below 1e-9
    e = 0.5 * math.erfc(-x / math.sqrt(2.0)) - q
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


@dataclass(frozen=True)
class BandwidthRule:
    """How h is chosen.

    kind "power_rule": h = constant * n^(-exponent), exponent defaulting to
    1/(4+m) with m the ambient p or the reduced d per ``exponent_dim``; an
    explicit ``exponent`` overrides that default (asymptotic regimes such as
    undersmoothing need exponents the stock rule cannot express).
    kind "fixed": h = h_fixed. kind "loocv": h minimizes the leave-one-out
    squared prediction error over cv_grid.
    """

    kind: str
    constant: float = 1.0
    exponent_dim: str = "ambient_p"
    h_fixed: float | None = None
    cv_grid: tuple[float, ...] | None = None
    exponent: float | None = None

    def __post_init__(self):
        if self.kind not in BANDWIDTH_KINDS:
            raise ArgumentError(f"unknown bandwidth kind {self.kind!r}; expected one of {BANDWIDTH_KINDS}")
        if self.exponent_dim not in EXPONENT_DIMS:
            raise ArgumentError(f"exponent_dim must be one of {EXPONENT_DIMS}, got {self.exponent_dim!r}")
        if self.kind == "power_rule":
            if not (self.constant > 0):
                raise ArgumentError(f"power_rule constant must be > 0, got {self.constant}")
            if self.exponent is not None and not (0.0 < self.exponent < 1.0):
                raise ArgumentError(f"power_rule exponent must lie in (0, 1), got {self.exponent}")
        if self.kind == "fixed" and (self.h_fixed is None or not self.h_fixed > 0):
            raise ArgumentError(f"fixed bandwidth requires h_fixed > 0, got {self.h_fixed}")
        if self.cv_grid is not None:
            object.__setattr__(self, "cv_grid", tuple(float(h) for h in self.cv_grid))


@dataclass(frozen=True)
class NWConfig:
    """Estimator configuration; kernel.dim must equal the reduced dimension d."""

    kernel: RadialKernel
    bandwidth: BandwidthRule
    d: int
    ci_level: float = 0.95
    allow_nonsmooth_kernel: bool = False

    def __post_init__(self):
        if self.kernel.dim != self.d:
            raise ArgumentError(f"kernel dimension {self.kernel.dim} does not match d={self.d}")
        if not (0.0 < self.ci_level < 1.0):
            raise ArgumentError(f"ci_level must lie in (0, 1), got {self.ci_level}")


@dataclass(frozen=True)
class NWFit:
    eta_hat: float
    f_hat: float
    sigma2_hat: float
    h_used: float
    n: int
    ci_lo: float
    ci_hi: float
    effective_mass: float


@dataclass(frozen=True)
class PointResult:
    """One row of a batch: either a fit or the error that prevented it."""

    index: int
    fit: NWFit | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.fit is not None


def _loocv_bandwidth(rule: BandwidthRule, kernel: RadialKernel,
                     W: NDArray[np.floating], Y: NDArray[np.floating]) -> float:
    if not rule.cv_grid:
        raise ArgumentError("loocv bandwidth requires a non-empty cv_grid")
    if any(h <= 0 for h in rule.cv_grid):
        raise ArgumentError(f"cv_grid values must be positive, got {rule.cv_grid}")
    n = W.shape[0]
    dists = np.linalg.norm(W[:, None, :] - W[None, :, :], axis=2)
    best_h, best_err = None, math.inf
    for h in rule.cv_grid:
        wts = kernel.weights(dists / h)
        np.fill_diagonal(wts, 0.0)
        mass = wts.sum(axis=1)
        ok = mass > 0
        if not np.any(ok):
            continue
        pred = (wts[ok] @ Y) / mass[ok]
        # points with an empty leave-one-out window are charged the
        # response variance so narrow bandwidths cannot win by dropping them
        err = float(np.sum((Y[ok] - pred) ** 2)) + float(np.sum(~ok)) * float(np.var(Y))
        if err < best_err:
            best_h, best_err = h, err
    if best_h is None:
        raise ArgumentError("every cv_grid bandwidth produced empty leave-one-out windows")
    return float(best_h)


def bandwidth(rule: BandwidthRule, n: int, p: int, d: int,
              kernel: RadialKernel | None = None,
              W: NDArray[np.floating] | None = None,
              Y: NDArray[np.floating] | None = None) -> float:
    """Resolve a bandwidth rule to a number.

    Args:
        n, p, d: sample size, ambient and reduced dimension.
        kernel, W, Y: required only for kind "loocv".
    """
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    if rule.kind == "fixed":
        return float(rule.h_fixed)
    if rule.kind == "power_rule":
        m = p if rule.exponent_dim == "ambient_p" else d
        e = rule.exponent if rule.exponent is not None else 1.0 / (4.0 + m)
        return float(rule.constant * n ** (-e))
    if kernel is None or W is None or Y is None:
        raise ArgumentError("loocv bandwidth needs kernel and reduced data (W, Y)")
    return _loocv_bandwidth(rule, kernel, np.asarray(W, dtype=float), np.asarray(Y, dtype=float))


def _fit_at(config: NWConfig, W: NDArray[np.floating], Y: NDArray[np.floating],
            w0: NDArray[np.floating], h: float, z: float) -> NWFit:
    n = W.shape[0]
    d = config.d
    t = np.linalg.norm((w0[None, :] - W) / h, axis=1)
    wts = config.kernel.weights(t)
    mass = float(wts.sum())
    if mass < _MIN_EFFECTIVE_MASS:
        raise EmptyWindowError(
            f"no sample points inside the kernel window at w0={np.array2string(w0, precision=6)} "
            f"with h={h:.6g} (effective mass {mass:.3e})"
        )
    f_hat = mass / (n * h ** d)
    # The density value itself scales like h^{-d} and is legitimately tiny in
    # high dimensions; emptiness is a statement about mass, which the guard
    # above already covers.  Only a degenerate value (underflow to zero, or
    # h**d overflowing) is an error here.
    if not math.isfinite(f_hat) or f_hat <= 0.0:
        raise EmptyWindowError(
            f"degenerate density estimate {f_hat:.3e} at w0={np.array2string(w0, precision=6)} "
            f"with h={h:.6g}"
        )
    eta = float(wts @ Y) / mass
    # centered weighted variance (West 1979): E[Y^2] - E[Y]^2 cancels when
    # |Y| is large against its spread
    resid2 = Y - eta
    resid2 *= resid2
    sigma2 = max(float(wts @ resid2) / mass, 0.0)
    # n * h**d * f_hat == mass exactly; dividing by mass avoids re-forming a
    # product that can overflow for large d.
    half = z * math.sqrt(sigma2 * config.kernel.l2_const / mass)
    return NWFit(eta_hat=eta, f_hat=f_hat, sigma2_hat=sigma2, h_used=h, n=n,
                 ci_lo=eta - half, ci_hi=eta + half, effective_mass=mass)


def nw_batch(config: NWConfig, basis: ReductionBasis,
             X: NDArray[np.floating], Y: NDArray[np.floating],
             X0: NDArray[np.floating]) -> list[PointResult]:
    """NW estimate at every row of X0; failed rows carry the error message.

    Raises:
        ArgumentError: Y, X @ basis.T or a reduced row of X0 is not finite.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[0] < 1:
        raise ArgumentError(f"X0 must be a non-empty 2-d array, got shape {X0.shape}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    if X.ndim != 2:
        raise ArgumentError(f"X must be 2-d, got ndim={X.ndim}")
    n, p = X.shape
    if n < 2:
        raise ArgumentError(f"need n >= 2 observations, got {n}")
    if Y.shape[0] != n:
        raise ArgumentError(f"X has {n} rows but Y has {Y.shape[0]} entries")
    if not np.isfinite(Y).all():
        raise ArgumentError("Y must be finite")
    if X0.shape[1] != p:
        raise ArgumentError(f"x0 has length {X0.shape[1]} but X has {p} columns")
    if basis.p != p:
        raise ArgumentError(f"basis expects p={basis.p} columns, data has {p}")
    if basis.d != config.d:
        raise ArgumentError(f"basis dimension d={basis.d} does not match config d={config.d}")
    if config.kernel.profile.smoothness_order < 2 and not config.allow_nonsmooth_kernel:
        raise ArgumentError(
            f"kernel profile {config.kernel.profile.name!r} has smoothness order "
            f"{config.kernel.profile.smoothness_order} (< 2); the confidence theory assumes a "
            f"twice-differentiable profile. Set allow_nonsmooth_kernel=True to proceed anyway."
        )
    # an inf or NaN anywhere in a row of X makes its reduced row non-finite
    W = _reduce(basis, X)
    if not np.isfinite(W).all():
        raise ArgumentError("reduced predictors X @ basis.T are not finite; X must be finite")
    h = bandwidth(config.bandwidth, n=n, p=p, d=config.d, kernel=config.kernel, W=W, Y=Y)
    z = gaussian_quantile(1.0 - (1.0 - config.ci_level) / 2.0)
    out = []
    for i in range(X0.shape[0]):
        # rows are reduced one at a time: one matrix product over X0 rounds
        # differently in the last bits
        w0 = _reduce(basis, X0[i])
        if not np.isfinite(w0).all():
            raise ArgumentError(f"query point {i} has non-finite reduced coordinates {w0}")
        try:
            out.append(PointResult(index=i, fit=_fit_at(config, W, Y, w0, h, z), error=None))
        except EmptyWindowError as exc:
            out.append(PointResult(index=i, fit=None, error=str(exc)))
    return out


def nw_estimate(config: NWConfig, basis: ReductionBasis,
                X: NDArray[np.floating], Y: NDArray[np.floating],
                x0: Sequence[float] | NDArray[np.floating]) -> NWFit:
    """Plug-in estimate of E(Y | X = x0) through the fitted reduction.

    Raises:
        EmptyWindowError: no kernel mass at the reduced point (names the
            reduced coordinate and the bandwidth).
    """
    res = nw_batch(config, basis, X, Y, np.asarray(x0, dtype=float).reshape(1, -1))[0]
    if not res.ok:
        raise EmptyWindowError(res.error)
    return res.fit


def uniform_sup_error(config: NWConfig, basis: ReductionBasis,
                      X: NDArray[np.floating], Y: NDArray[np.floating],
                      grid: NDArray[np.floating], truth: NDArray[np.floating]) -> float:
    """max_j |eta_hat(grid_j) - truth_j| over a grid in predictor space.

    Empty windows raise; a sup-norm over a partial grid would understate
    the error.
    """
    grid = np.asarray(grid, dtype=float)
    truth = np.asarray(truth, dtype=float).ravel()
    if grid.ndim != 2 or grid.shape[0] != truth.shape[0]:
        raise ArgumentError(
            f"grid shape {grid.shape} does not match {truth.shape[0]} truth values"
        )
    worst = 0.0
    for res in nw_batch(config, basis, X, Y, grid):
        if not res.ok:
            raise EmptyWindowError(res.error)
        worst = max(worst, abs(res.fit.eta_hat - truth[res.index]))
    return worst
