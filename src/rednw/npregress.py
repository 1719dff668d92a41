"""Nadaraya-Watson regression on reduced predictors.

Point estimates eta_hat(x0) = sum_i w_i Y_i / sum_i w_i with radial kernel
weights w_i = K((basis x0 - basis X_i)/h), plug-in density and conditional
variance estimates, and asymptotic confidence intervals with half-width
z * sqrt(sigma2 * R(K) / (n h^d f_hat)). ``nw_batch`` returns these as
columns (``NWBatch``), which also reads as a sequence of per-row results.

Batches, the replication density and leave-one-out bandwidth selection
for d > 1 or a custom profile run on one core, ``_nw_core``. A batch with
many query rows sorts the sample by its first reduced coordinate, so each
query only scans the contiguous slab of samples that can lie inside the
kernel support (the window itself when d = 1; Fan & Marron 1994), in
blocks of bounded size; memory stays linear in n. Small batches scan the
whole sample. The kernel is radial, so the leave-one-out pass forms each
pair's weight once and adds it to both rows' sums.

For d > 1 the radii come from the Gram form ||q - w||^2 = |q|^2 + |w|^2 -
2 q.w on rows centred once per call at the sample mean, which needs no
n x d temporary per query row. Where rounding in that form could move a
radius across the support edge, the direct radius ||q - w|| / h on the
original rows replaces it, so kernel support is decided exactly as by the
direct expression. A block holding a query far from the centre takes the
direct radii throughout.

Leave-one-out bandwidth selection at d = 1 with a built-in profile, all
(1 - t^2)^k, runs on prefix sums instead (``_loo_prefix``): Fan & Marron
(1994) call this updating, and the chunk-centred form that keeps it stable
is from Langrene & Warin (2019, "Fast and stable multivariate kernel
density estimation by fast sum updating", arXiv:1712.00993). The sample is
sorted once for the grid; each window's sums come from prefix sums over at
most three chunks of width h. Window edges, and so empty windows, follow
the direct test |q - w| / h < 1 (<= 1 for the uniform profile). A row's
mass carries a rounding error below n eps 5^k per window sample; a row
whose mass is below 1000 times that bound is summed directly.

Floating-point policy: ``_nw_core``, ``_loo_prefix`` and ``nw_batch``'s
density and interval step each silence numpy's overflow, divide-by-zero and
invalid-value warnings in one ``with np.errstate`` block that the helpers
inherit (a ``with``, not the decorator, so each call from the replication
pool's threads has its own context). Every inf or NaN formed there lands in
a radius, mass or estimate that the window test and the ``ok`` mask judge.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass
from statistics import NormalDist
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
# a batch with at least this many query rows sorts the sample first; fewer
# queries scan the whole sample, since they cannot repay an O(n log n) sort
# when their windows hold most of it
_SORT_MIN_QUERIES = 32
# radii evaluated per block (rows x slab), so temporaries stay bounded;
# a block always holds at least one row
_BLOCK_ELEMS = 1 << 14
# relative widening of a slab's bounds: rounding in q +- R*h must never drop
# a sample whose radius t is exactly R; kernel.weights makes the exact test
_SLAB_RTOL = 16 * np.finfo(float).eps
# Gram-form squared radii within this factor times eps * (|q|^2 + |w|^2) of
# the squared support edge take the direct radius: rounding in the Gram form
# (about d * eps times that, for a length-d dot product) could flip support
_EDGE_RTOL = 64 * np.finfo(float).eps
# a block holding a query farther than this many bandwidths from the centre
# takes direct radii throughout: there the Gram form's rounding is large
# against h^2
_GRAM_MAX_OFFSET = 8.0
# a d = 1 leave-one-out row whose prefix-sum mass is below this many times
# its rounding bound (see _loo_prefix) is summed directly over its window
_PREFIX_SAFETY = 1e3
# the prefix path needs chunk indices (w - w_0) / h below this, so they and
# the chunk centres w_0 + (c + 1/2) h stay exact to far below h
_PREFIX_MAX_CHUNKS = 2.0 ** 26
# entries with column <= row of a leave-one-out block's leading square; rows
# [a, b) over columns [a, s1) have b - a = 1 or (b - a)(s1 - a) <=
# _BLOCK_ELEMS with s1 >= b, so that square fits in this one
_ON_OR_BELOW_DIAGONAL = np.tril(np.ones((math.isqrt(_BLOCK_ELEMS),) * 2, dtype=bool))


def gaussian_quantile(q: float) -> float:
    """Standard normal quantile, from statistics.NormalDist."""
    if not (0.0 < q < 1.0):
        raise ArgumentError(f"quantile level must lie in (0, 1), got {q}")
    return NormalDist().inv_cdf(q)


@dataclass(frozen=True)
class BandwidthRule:
    """How h is chosen.

    kind "power_rule": h = constant * n^(-exponent), exponent defaulting to
    1/(4+m) with m the ambient p or the reduced d per ``exponent_dim``; an
    explicit ``exponent`` overrides that default (asymptotic regimes such as
    undersmoothing need exponents the stock rule cannot express).
    kind "fixed": h = h_fixed. kind "loocv": h minimizes the leave-one-out
    squared prediction error over cv_grid.
    A non-finite constant or h_fixed, or a cv_grid entry that is not
    positive and finite, raises ArgumentError; an empty cv_grid raises when
    the bandwidth is resolved.
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
        for name in ("constant", "h_fixed"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ArgumentError(f"bandwidth {name} must be finite, got {value}")
        if self.kind == "power_rule":
            if not (self.constant > 0):
                raise ArgumentError(f"power_rule constant must be > 0, got {self.constant}")
            if self.exponent is not None and not (0.0 < self.exponent < 1.0):
                raise ArgumentError(f"power_rule exponent must lie in (0, 1), got {self.exponent}")
        if self.kind == "fixed" and (self.h_fixed is None or not self.h_fixed > 0):
            raise ArgumentError(f"fixed bandwidth requires h_fixed > 0, got {self.h_fixed}")
        if self.cv_grid is not None:
            grid = tuple(float(h) for h in self.cv_grid)
            if not all(0.0 < h < math.inf for h in grid):
                raise ArgumentError(f"cv_grid values must be positive and finite, got {grid}")
            object.__setattr__(self, "cv_grid", grid)


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


@dataclass(frozen=True, eq=False)
class NWBatch(abc.Sequence):
    """``nw_batch``'s result as columns, one entry per query row.

    ``mass`` holds every row's kernel mass; the other columns are NaN where
    ``ok`` is False, and ``errors`` maps each such row to its message.
    Indexing and iteration give each row as a PointResult, built on demand.
    """

    n: int
    h: float
    ok: NDArray[np.bool_]
    mass: NDArray[np.floating]
    eta_hat: NDArray[np.floating]
    sigma2_hat: NDArray[np.floating]
    f_hat: NDArray[np.floating]
    ci_lo: NDArray[np.floating]
    ci_hi: NDArray[np.floating]
    errors: dict[int, str]

    def __len__(self) -> int:
        return self.ok.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        i = range(len(self))[i]  # negative from the end; IndexError past either end
        if not self.ok[i]:
            return PointResult(index=i, fit=None, error=self.errors[i])
        fit = NWFit(eta_hat=float(self.eta_hat[i]), f_hat=float(self.f_hat[i]),
                    sigma2_hat=float(self.sigma2_hat[i]), h_used=self.h, n=self.n,
                    ci_lo=float(self.ci_lo[i]), ci_hi=float(self.ci_hi[i]),
                    effective_mass=float(self.mass[i]))
        return PointResult(index=i, fit=fit, error=None)


def _gram_radii(W: NDArray[np.floating], W0: NDArray[np.floating], h: float, R: float,
                Wc: NDArray[np.floating], ww: NDArray[np.floating],
                W0c: NDArray[np.floating], qq: NDArray[np.floating]) -> NDArray[np.floating]:
    """||W0_i - W_j|| / h for d > 1, from the centred rows Wc, W0c and their
    squared norms ww, qq. Entries near the support edge R get the direct
    expression on the original rows W, W0, so support membership is that of
    the direct form."""
    norms = qq[:, None] + ww[None, :]
    # einsum, not @: a BLAS product runs threaded and leaves its workers
    # spinning against the replication harness's own threads
    d2 = norms - 2.0 * np.einsum("ik,jk->ij", W0c, Wc)
    # float64, so a huge h squares to inf instead of raising
    edge2 = np.float64(R * h) ** 2
    redo = np.abs(d2 - edge2) <= _EDGE_RTOL * norms
    t = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
    t /= h
    i, j = np.nonzero(redo)
    if i.size:
        t[i, j] = np.linalg.norm((W0[i] - W[j]) / h, axis=1)
    return t


def _weights(kernel: RadialKernel, W: NDArray[np.floating], W0: NDArray[np.floating],
             h: float, gram: tuple[NDArray[np.floating], ...] | None) -> NDArray[np.floating]:
    """Kernel weights of the query rows W0 (rows) against the slab W
    (columns). ``gram``, if given, holds the same rows centred and their
    squared norms, (Wc, ww, W0c, qq). The radii die on return."""
    # each form reuses its temporaries in place
    if gram is not None:
        # Gram form on the centred rows, direct radii at the support edge
        t = _gram_radii(W, W0, h, kernel.profile.support_radius, *gram)
    elif W.shape[1] == 1:
        # |x| / h equals the 1-d norm of x / h
        t = W0[:, None, 0] - W[None, :, 0]
        np.abs(t, out=t)
        t /= h
    else:
        # a radius past the float range is inf, and its weight 0
        t = np.linalg.norm((W0[:, None, :] - W[None, :, :]) / h, axis=2)
    return kernel.weights(t)


def _block(kernel: RadialKernel, W: NDArray[np.floating], Y: NDArray[np.floating],
           W0: NDArray[np.floating], h: float,
           gram: tuple[NDArray[np.floating], ...] | None
           ) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """_nw_core's sums for query rows W0 over the slab (W, Y)."""
    wts = _weights(kernel, W, W0, h, gram)
    mass = wts.sum(axis=1)
    # reduced in the same order as the mass, so Y = 1 gives exactly 1;
    # a BLAS product here runs threaded and leaves its workers spinning
    # against the replication harness's own threads
    eta = (wts * Y).sum(axis=1) / mass
    # centered weighted variance (West 1979): E[Y^2] - E[Y]^2 cancels
    # when |Y| is large against its spread
    resid2 = Y[None, :] - eta[:, None]
    resid2 *= resid2
    resid2 *= wts
    sigma2 = resid2.sum(axis=1) / mass
    return mass, eta, np.maximum(sigma2, 0.0)


def _pair_block(kernel: RadialKernel, W: NDArray[np.floating], OY: NDArray[np.floating],
                k: int, h: float, gram: tuple[NDArray[np.floating], ...] | None,
                sums: NDArray[np.floating]) -> None:
    """Leave-one-out sums of the first k rows of the sorted slab W against
    the whole slab, added at both ends of each pair into ``sums``, the
    slab's 2 x len(W) kernel mass and weighted-Y sums. OY holds the slab's
    ones and responses as its two rows.

    Only pairs i < j count: the own sample and every pair an earlier row
    holds are zeroed, so each unordered pair's weight is formed once."""
    wts = _weights(kernel, W, W[:k], h, gram)
    np.copyto(wts[:, :k], 0.0, where=_ON_OR_BELOW_DIAGONAL[:k, :k])
    # mass and weighted-Y sums share each reduction, so Y = 1 gives exactly
    # 1; einsum, not a BLAS product, for the reason _gram_radii gives
    sums[:, :k] += np.einsum("ij,rj->ri", wts, OY)
    sums += np.einsum("ri,ij->rj", OY[:, :k], wts)


def _nw_core(kernel: RadialKernel, W: NDArray[np.floating], Y: NDArray[np.floating],
             W0: NDArray[np.floating], h: float, leave_one_out: bool = False
             ) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Kernel mass, NW estimate and centered weighted variance at each row of W0.

    Args:
        kernel: weights are ``kernel.weights(||w0 - W_i|| / h)``.
        W, Y: n x d reduced sample and its n responses.
        W0: m x d query rows. With ``leave_one_out`` it must be W itself and
            each row's own sample gets weight zero, so an isolated point
            keeps exactly zero mass. The kernel is radial, so each unordered
            pair's weight is formed once, in the block of its earlier
            (sorted) row, and added to both rows' sums; only the order in
            which a row's sums accumulate differs from a per-row pass. The
            variance is skipped (its caller, the bandwidth search, reads
            mass and eta only) and sigma2 is all NaN.
        h: bandwidth.

    Returns:
        (mass, eta, sigma2), each of length m; eta and sigma2 are NaN where
        the mass is zero.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n, m = W.shape[0], W0.shape[0]
        # the Gram form's centre, taken before the sort so no radius depends on it
        mu = W.mean(axis=0)
        qorder = None
        lo, hi = [0] * m, [n] * m
        if m >= _SORT_MIN_QUERIES:
            order = np.argsort(W[:, 0], kind="stable")
            W, Y = W[order], Y[order]
            qorder = order if leave_one_out else np.argsort(W0[:, 0], kind="stable")
            W0 = W if leave_one_out else W0[qorder]
            # sorted queries' slabs |w_1 - q_1| <= R*h start and end in order
            q = W0[:, 0]
            r = kernel.profile.support_radius * h
            reach = r + _SLAB_RTOL * (np.abs(q) + r)
            lo = np.searchsorted(W[:, 0], q - reach, side="left").tolist()
            hi = np.searchsorted(W[:, 0], q + reach, side="right").tolist()
        Wc = None
        if W.shape[1] > 1:
            # one centred copy of the sample; the leave-one-out queries are it
            Wc = W - mu
            ww = np.einsum("ij,ij->i", Wc, Wc)
            if leave_one_out:
                W0c, qq = Wc, ww
            else:
                W0c = W0 - mu
                qq = np.einsum("ij,ij->i", W0c, W0c)
        if leave_one_out:
            # row a's pairs with earlier rows sit in those rows' blocks; sums
            # holds the kernel mass and weighted-Y sums, weights against OY
            lo, OY, sums = range(m), np.stack([np.ones(n), Y]), np.zeros((2, m))
        else:
            mass, eta, sigma2 = np.empty(m), np.empty(m), np.empty(m)
        gram_reach2 = np.float64(_GRAM_MAX_OFFSET * h) ** 2
        a = 0
        while a < m:
            # consecutive queries share the union of their slabs
            b = a + 1
            while b < m and (b + 1 - a) * (hi[b] - lo[a]) <= _BLOCK_ELEMS:
                b += 1
            s0, s1 = lo[a], hi[b - 1]
            gram = None
            if Wc is not None and qq[a:b].max() <= gram_reach2:
                gram = (Wc[s0:s1], ww[s0:s1], W0c[a:b], qq[a:b])
            if leave_one_out:
                _pair_block(kernel, W[s0:s1], OY[:, s0:s1], b - a, h, gram, sums[:, s0:s1])
            else:
                mass[a:b], eta[a:b], sigma2[a:b] = _block(kernel, W[s0:s1], Y[s0:s1], W0[a:b], h, gram)
            a = b
        if leave_one_out:
            mass, eta, sigma2 = sums[0], sums[1] / sums[0], np.full(m, np.nan)
        if qorder is None:
            return mass, eta, sigma2
        out = np.empty((3, m))
        out[:, qorder] = (mass, eta, sigma2)
        return out[0], out[1], out[2]


def _window_starts(w: NDArray[np.floating], h: float, closed: bool) -> NDArray[np.intp]:
    """Per sample i of the sorted 1-d sample w, the first j <= i with
    |w_i - w_j| / h < 1 (<= 1 if ``closed``), the direct core's radius and
    support test. Samples below w_i - h by more than the slabs' rounding
    slack fail it; the first sample past that bound is tested once, and
    the edge is bisected only where that test fails."""
    a = np.searchsorted(w, w - (h + _SLAB_RTOL * (np.abs(w) + h)), side="left")
    b = np.arange(w.size)
    rows = np.flatnonzero(a < b)
    mid = a[rows]
    while rows.size:
        t = np.abs(w[rows] - w[mid]) / h
        hit = t <= 1.0 if closed else t < 1.0
        b[rows[hit]] = mid[hit]
        a[rows[~hit]] = mid[~hit] + 1
        rows = rows[a[rows] < b[rows]]
        mid = (a[rows] + b[rows]) // 2
    return a


def _powers(v: NDArray[np.floating], m: int) -> NDArray[np.floating]:
    """Rows v^0, ..., v^(m-1)."""
    out = np.empty((m, v.size))
    out[0] = 1.0
    for j in range(1, m):
        np.multiply(out[j - 1], v, out=out[j])
    return out


def _loo_prefix(kernel: RadialKernel, w: NDArray[np.floating], Y: NDArray[np.floating],
                h: float) -> tuple[NDArray[np.floating], NDArray[np.floating]]:
    """Leave-one-out kernel mass and NW estimate at every sample of the sorted
    1-d sample w, for a profile (1 - t^2)^k: the first two outputs of
    ``_nw_core(kernel, w[:, None], Y, w[:, None], h, leave_one_out=True)``,
    from prefix sums (Fan & Marron 1994; Langrene & Warin 2019).

    The sample is cut into chunks of width h, each centred at its midpoint
    z, so u = (w - z) / h lies in [-1/2, 1/2). Prefix sums of u^j and u^j Y,
    j <= 2k, give a window's sums within a chunk; the window of q spans at
    most q's chunk and its two neighbours, and (1 - (v - u)^2)^k with
    v = (q - z) / h expands by binomial coefficients into those sums. The
    row's own chunk is summed on both sides of the row, not as a full sum
    less K(0).

    Window bounds, and so empty windows, come from counts and the direct
    core's test at the window edges (``_window_starts``). Every term
    a_j(v) u^j is at most 5^k in magnitude (|v| <= 3/2, |u| <= 1/2) and
    each prefix sum adds at most n terms, so a row's mass carries a
    rounding error below n eps 5^k per window sample. A row whose mass is
    below _PREFIX_SAFETY times that bound, or whose window reaches past the
    neighbouring chunks, is summed directly over its window.
    """
    k, n = kernel.profile.power, w.size
    w0, span = float(w[0]), (float(w[-1]) - float(w[0])) / h
    # chunk indices and centres exact, and every centred difference finite
    if not (span < _PREFIX_MAX_CHUNKS and math.isfinite(4.0 * (abs(w0) + abs(float(w[-1])) + h))):
        mass, eta, _ = _nw_core(kernel, w[:, None], Y, w[:, None], h, leave_one_out=True)
        return mass, eta
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the window of sample i is [lo, hi); the right edge is the left one of
        # the mirrored sample
        lo = _window_starts(w, h, k == 0)
        hi = n - _window_starts(-w[::-1], h, k == 0)[::-1]
        # each sample's chunk c, and where its chunk starts and ends
        c = np.floor((w - w0) / h)
        start, end = np.searchsorted(c, c, side="left"), np.searchsorted(c, c, side="right")
        # prefix sums of u^j and u^j (Y - ybar), u in each sample's chunk frame
        J, ybar = 2 * k + 1, Y.mean()
        P = np.zeros((2 * J, n + 1))
        P[:J, 1:] = _powers((w - (w0 + (c + 0.5) * h)) / h, J)
        np.multiply(P[:J, 1:], Y - ybar, out=P[J:, 1:])
        np.cumsum(P[:, 1:], axis=1, out=P[:, 1:])
        # a_j(v), the coefficient of u^j in (1 - (v - u)^2)^k, is sum_p M[j, p] v^p
        M = np.zeros((J, J))
        for m in range(k + 1):
            for j in range(2 * m + 1):
                M[j, 2 * m - j] += (-1) ** (m + j) * math.comb(k, m) * math.comb(2 * m, j)
        # the window's sums in chunks c - 1, c (either side of the row) and
        # c + 1, each with the offset of that chunk's centre from c
        a, b = np.maximum(lo, start), np.minimum(hi, end)
        parts = ((-0.5, P[:, start] - P[:, np.minimum(lo, start)]),
                 (0.5, (P[:, :-1] - P[:, a]) + (P[:, b] - P[:, 1:])),
                 (1.5, P[:, np.maximum(hi, end)] - P[:, end]))
        sums = np.zeros((2, n))
        for off, S in parts:
            A = np.einsum("jp,pi->ji", M, _powers((w - (w0 + (c + off) * h)) / h, J))
            sums += np.einsum("ji,rji->ri", A, S.reshape(2, J, n))
        # an empty window's sums are exactly 0, and so never redone
        mass, ysum = sums
        bound = _PREFIX_SAFETY * n * np.finfo(float).eps * 5.0 ** k
        redo = (mass < bound * (hi - lo - 1)) | (c[lo] < c - 1) | (c[hi - 1] > c + 1)
        for i in np.flatnonzero(redo).tolist():
            wts = kernel.profile.raw_profile(np.abs(w[lo[i]:hi[i]] - w[i]) / h)
            wts[i - lo[i]] = 0.0
            mass[i], ysum[i] = wts.sum(), wts @ (Y[lo[i]:hi[i]] - ybar)
        return kernel.norm_const * mass, ybar + ysum / mass


def _loocv_bandwidth(rule: BandwidthRule, kernel: RadialKernel,
                     W: NDArray[np.floating], Y: NDArray[np.floating]) -> float:
    if not rule.cv_grid:
        raise ArgumentError("loocv bandwidth requires a non-empty cv_grid")
    # d = 1 with a (1 - t^2)^k profile runs on prefix sums over the sample
    # sorted once; the criterion below sums over rows in any order
    prefix = W.shape[1] == 1 and kernel.profile.power is not None
    if prefix:
        order = np.argsort(W[:, 0], kind="stable")
        W, Y = W[order], Y[order]
    best_h, best_err = None, math.inf
    for h in rule.cv_grid:
        if prefix:
            mass, pred = _loo_prefix(kernel, W[:, 0], Y, h)
        else:
            mass, pred, _ = _nw_core(kernel, W, Y, W, h, leave_one_out=True)
        ok = mass > 0
        if not np.any(ok):
            continue
        # points with an empty leave-one-out window are charged the
        # response variance so narrow bandwidths cannot win by dropping them
        err = float(np.sum((Y[ok] - pred[ok]) ** 2)) + float(np.sum(~ok)) * float(np.var(Y))
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


def nw_batch(config: NWConfig, basis: ReductionBasis,
             X: NDArray[np.floating], Y: NDArray[np.floating],
             X0: NDArray[np.floating]) -> NWBatch:
    """NW estimate at every row of X0, as columns; failed rows carry the
    error message.

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
    W0 = _reduce(basis, X0)
    bad = ~np.isfinite(W0).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ArgumentError(f"query point {i} has non-finite reduced coordinates {W0[i]}")
    z = gaussian_quantile(1.0 - (1.0 - config.ci_level) / 2.0)
    mass, eta, sigma2 = _nw_core(config.kernel, W, Y, W0, h)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # float64, so an h**d past the float range gives inf or 0, not an exception
        f_hats = mass / (n * np.float64(h) ** config.d)
        ok = (mass >= _MIN_EFFECTIVE_MASS) & np.isfinite(f_hats) & (f_hats > 0.0)
        # n * h**d * f_hat == mass exactly; dividing by mass avoids
        # re-forming a product that can overflow for large d
        half = z * np.sqrt(sigma2 * config.kernel.l2_const / mass)
        cols = np.where(ok, [eta, sigma2, f_hats, eta - half, eta + half], np.nan)
    errors = {}
    for i in np.flatnonzero(~ok).tolist():
        w0 = np.array2string(W0[i], precision=6)
        # The density value itself scales like h^{-d} and is legitimately
        # tiny in high dimensions; emptiness is a statement about mass. Only
        # a degenerate value (0 or inf, from h**d or f_hat leaving the float
        # range) is an error.
        errors[i] = (f"no sample points inside the kernel window at w0={w0} with h={h:.6g} "
                     f"(effective mass {mass[i]:.3e})" if mass[i] < _MIN_EFFECTIVE_MASS else
                     f"degenerate density estimate {f_hats[i]:.3e} at w0={w0} with h={h:.6g}")
    return NWBatch(n, h, ok, mass, *cols, errors)


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
    batch = nw_batch(config, basis, X, Y, grid)
    if not batch.ok.all():
        raise EmptyWindowError(batch.errors[int(np.argmin(batch.ok))])
    return float(np.max(np.abs(batch.eta_hat - truth)))
