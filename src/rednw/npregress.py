"""Nadaraya-Watson regression on reduced predictors.

Point estimates eta_hat(x0) = sum_i w_i Y_i / sum_i w_i with radial kernel
weights w_i = K((basis x0 - basis X_i)/h), plug-in density and conditional
variance estimates, and asymptotic confidence intervals with half-width
z * sqrt(sigma2 * R(K) / (n h^d f_hat)). ``nw_batch`` returns these as
columns (``NWBatch``), which also reads as a sequence of per-row results.

Batches, the replication density and leave-one-out bandwidth selection
run on one core, ``_nw_core``, except where d = 1 sums run on prefix sums
(below). A batch with many query rows sorts the sample by its first reduced
coordinate, so each query only scans the contiguous slab of samples that
can lie inside the kernel support (the window itself when d = 1; Fan &
Marron 1994), in blocks of bounded size; memory stays linear in n. Small
batches scan the whole sample. Leave-one-out runs as a batch whose query
rows are the sample: the block zeroes each row's own sample, matched by
index. It serves the bandwidth search at d > 1, with a custom profile, and
where ``_nw_prefix`` returns None; forming each weight for both of its
rows takes 1.6 to 2.7 times as long as a pass that forms it once.

For d > 1 a block takes its slab in chunks of at most _BLOCK_ELEMS radii (a
small batch: all its query rows against one chunk at a time), centres only
those rows at the sample mean and forms the radii from the Gram form
||q - w||^2 = |q|^2 + |w|^2 - 2 q.w with one BLAS product, so no n x d copy
is made. Each row's mass, mean and centred sum of squares are merged over
the chunks by the pairwise update of Chan, Golub & LeVeque (1979), which
never cancels; the chunks' means are of Y less the slab's mean, so they are
not rounded at the scale of Y. Where rounding in the Gram form could move a
radius across the support edge, the direct radius ||q - w|| / h on the
original rows replaces it, so support is decided exactly as by the direct
expression. A query row far from the centre takes the direct radii for its
whole row, whatever rows share its block.

At d = 1 with a built-in profile, all (1 - t^2)^k, one routine computes
window sums from prefix sums instead (``_nw_prefix``): Fan & Marron (1994)
call this updating, and the chunk-centred form that keeps it stable is from
Langrene & Warin (2019, "Fast and stable multivariate kernel density
estimation by fast sum updating", arXiv:1712.00993). It serves every
leave-one-out bandwidth search, on the sample sorted once for the grid, and
every sorted batch whose slabs hold more than _PREFIX_WORK (n + m)(2k + 1)
samples in all, that multiple of the prefix path's work for n samples and
m queries. Each window's sums come from prefix sums over at most three
chunks of width h. Window edges, and so empty windows, follow the direct
test |q - w| / h < 1 (<= 1 for the uniform profile). A row's sums of
(Y - ybar)^r carry a rounding error below eps 5^k sum_i |Y_i - ybar|^r per
window sample, and the centred variance's numerator S_2 - mu S_1 (mu =
S_1 / S_0, the window's mean of Y - ybar) one that follows from those; a
row whose mass or numerator is below 1e5 times its bound is summed
directly.

Floating-point policy: ``_nw_core``, ``_nw_prefix``, the leave-one-out
criterion, and ``nw_batch``'s two reductions and its density and interval
step each silence numpy's overflow, divide-by-zero and invalid-value
warnings in one ``with np.errstate`` block that the helpers inherit (a
``with``, not the decorator, so each call from the replication pool's
threads has its own context). Every inf or NaN formed there lands in a
radius, mass, criterion, reduced row or estimate that the window test, the
criterion's comparison, the finiteness checks and the ``ok`` mask judge.
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
# a batch with at least this many query rows sorts the sample first, and only
# such a batch may take the d = 1 prefix path; fewer queries scan the whole
# sample, since they cannot repay an O(n log n) sort when their windows hold
# most of it
_SORT_MIN_QUERIES = 32
# radii per block (query rows x samples), so temporaries stay bounded: a
# d > 1 block takes its slab in chunks of at most this many, d = 1 it whole
_BLOCK_ELEMS = 1 << 14
# relative widening of a slab's bounds: rounding in q +- R*h must never drop
# a sample whose radius t is exactly R; kernel.weights makes the exact test
_SLAB_RTOL = 16 * np.finfo(float).eps
# Gram-form squared radii within this factor times eps * (|q|^2 + |w|^2) of
# the squared support edge take the direct radius: rounding in the Gram form
# (about d * eps times that, for a length-d dot product) could flip support
_EDGE_RTOL = 64 * np.finfo(float).eps
# a query row farther than this many bandwidths from the centre takes direct
# radii for its whole row: there the Gram form's rounding is large against h^2
_GRAM_MAX_OFFSET = 8.0
# a d = 1 prefix-sum row whose mass or variance numerator is below this many
# times its rounding bound (see _nw_prefix) is summed directly over its window
_PREFIX_SAFETY = 1e5
# queries per block of the prefix path: its prefix sums P are built once,
# and a block's temporaries hold 3(2k + 1) x _PREFIX_BLOCK entries, no more
# than P's 3(2k + 1) x (n + 1) once n reaches the block
_PREFIX_BLOCK = 512
# a sorted d = 1 batch with a built-in profile takes the prefix path when its
# slabs hold more than this many times (n + m)(2k + 1) samples in all; below
# that, per-call overhead makes the prefix path the slower one for n ~ 100
_PREFIX_WORK = 8
# the prefix path needs chunk indices (w - w_0) / h below this, so they and
# the chunk centres w_0 + (c + 1/2) h stay exact to far below h
_PREFIX_MAX_CHUNKS = 2.0 ** 26


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
                mu: NDArray[np.floating], W0c: NDArray[np.floating],
                qq: NDArray[np.floating]) -> NDArray[np.floating]:
    """||W0_i - W_j|| / h for d > 1, from the rows W - mu, the query rows
    W0c = W0 - mu and their squared norms qq. Entries near the support edge
    R, and every entry of a row more than _GRAM_MAX_OFFSET h from mu, get
    the direct expression on the original rows W, W0, so support membership
    is that of the direct form and no row's form depends on the other rows."""
    Wc = W - mu
    norms = qq[:, None] + np.einsum("ij,ij->i", Wc, Wc)[None, :]
    # a BLAS product: the replication pool caps OpenBLAS at one thread per
    # worker, and its threads split rows and columns, never a dot product
    d2 = norms - 2.0 * (W0c @ Wc.T)
    # float64, so a huge h squares to inf instead of raising
    edge2 = np.float64(R * h) ** 2
    redo = np.abs(d2 - edge2) <= _EDGE_RTOL * norms
    # far rows, and rows whose norm is NaN, are redone whole below
    far = ~(qq <= np.float64(_GRAM_MAX_OFFSET * h) ** 2)
    redo[far] = False
    t = np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
    t /= h
    i, j = np.nonzero(redo)
    if i.size:
        t[i, j] = np.linalg.norm((W0[i] - W[j]) / h, axis=1)
    if far.any():
        # a radius past the float range is inf, and its weight 0
        t[far] = np.linalg.norm((W0[far][:, None, :] - W[None, :, :]) / h, axis=2)
    return t


def _weights(kernel: RadialKernel, W: NDArray[np.floating], W0: NDArray[np.floating],
             h: float, gram: tuple[NDArray[np.floating], ...] | None) -> NDArray[np.floating]:
    """Kernel weights of the query rows W0 (rows) against the slab W
    (columns). ``gram`` holds the centre and the query rows centred and
    their squared norms, (mu, W0c, qq), for d > 1, and is None for d = 1.
    The radii die on return."""
    # each form reuses its temporaries in place
    if gram is not None:
        # Gram form on the centred rows, direct radii at the support edge
        t = _gram_radii(W, W0, h, kernel.profile.support_radius, *gram)
    else:
        # |x| / h equals the 1-d norm of x / h
        t = W0[:, None, 0] - W[None, :, 0]
        np.abs(t, out=t)
        t /= h
    return kernel.weights(t)


def _block(kernel: RadialKernel, W: NDArray[np.floating], Y: NDArray[np.floating],
           W0: NDArray[np.floating], h: float,
           gram: tuple[NDArray[np.floating], ...] | None,
           own: tuple[NDArray[np.intp], NDArray[np.intp]] | None
           ) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Kernel mass, weighted mean of Y and centred weighted sum of squares
    (not divided by the mass) of the query rows W0 over the chunk (W, Y).
    ``own``, if given, holds the (row, column) entries of each row's own
    sample, whose weights are zero."""
    wts = _weights(kernel, W, W0, h, gram)
    if own is not None:
        wts[own] = 0.0
    mass = wts.sum(axis=1)
    # reduced in the same order as the mass, so Y = 1 gives exactly 1
    eta = (wts * Y).sum(axis=1) / mass
    # centered weighted variance (West 1979): E[Y^2] - E[Y]^2 cancels
    # when |Y| is large against its spread
    resid2 = Y[None, :] - eta[:, None]
    resid2 *= resid2
    resid2 *= wts
    return mass, eta, resid2.sum(axis=1)


def _merge(acc: NDArray[np.floating], part: tuple[NDArray[np.floating], ...]) -> None:
    """Adds a chunk's ``_block`` sums into the rows' running (mass, mean,
    centred sum) ``acc`` (Chan, Golub & LeVeque 1979), skipping rows without
    mass there; from zeros a row keeps its first sums exactly (x / x = 1)."""
    M, E, S = acc
    mass, eta, css = part
    live, delta, frac = mass != 0, eta - E, mass / (M + mass)
    E += np.where(live, delta * frac, 0.0)
    S += np.where(live, css + (delta * M) * (delta * frac), 0.0)
    M += mass


def _nw_core(kernel: RadialKernel, W: NDArray[np.floating], Y: NDArray[np.floating],
             W0: NDArray[np.floating], h: float, leave_one_out: bool = False
             ) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]]:
    """Kernel mass, NW estimate and centered weighted variance at each row of W0.

    Args:
        kernel: weights are ``kernel.weights(||w0 - W_i|| / h)``.
        W, Y: n x d reduced sample and its n responses.
        W0: m x d query rows. With ``leave_one_out`` it must be W itself,
            so row r's own sample is column r, and each block zeroes that
            entry's weight in the chunk that holds it: matched by index,
            not by radius 0, so an isolated point keeps exactly zero mass
            and duplicate samples still weight each other. The bandwidth
            search calls this at d > 1, with a custom profile, and where
            ``_nw_prefix`` returns None; each pair's weight is formed for
            both of its rows, 1.6 to 2.7 times the time of forming it once.
        h: bandwidth.

    A sorted batch (m >= _SORT_MIN_QUERIES, not leave-one-out) at d = 1
    with a built-in profile takes its sums from ``_nw_prefix`` when its
    slabs hold more than _PREFIX_WORK (n + m)(2k + 1) samples.

    Returns:
        (mass, eta, sigma2), each of length m; eta and sigma2 are NaN where
        the mass is zero.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n, m = W.shape[0], W0.shape[0]
        # the Gram form's centre, taken before the sort so no radius depends on it
        mu = W.mean(axis=0)
        qorder = sums = None
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
            lo = np.searchsorted(W[:, 0], q - reach, side="left")
            hi = np.searchsorted(W[:, 0], q + reach, side="right")
            # d = 1 with a (1 - t^2)^k profile: prefix sums, where the slabs
            # hold more samples than the prefix path's work
            k = kernel.profile.power
            if (not leave_one_out and W.shape[1] == 1 and k is not None
                    and int(np.sum(hi - lo)) > _PREFIX_WORK * (n + m) * (2 * k + 1)):
                sums = _nw_prefix(kernel, W[:, 0], Y, h, q)
            lo, hi = lo.tolist(), hi.tolist()
        if sums is None:
            chunked = W.shape[1] > 1
            # each row's mass, mean and centred sum, merged over chunks
            acc = np.zeros((3, m))
            a = 0
            while a < m:
                # consecutive queries share the union of their slabs; at
                # d > 1 a small unsorted batch is one block
                b = m if chunked and qorder is None else a + 1
                while b < m and (b + 1 - a) * (hi[b] - lo[a]) <= _BLOCK_ELEMS:
                    b += 1
                s0, s1 = lo[a], hi[b - 1]
                # d > 1: chunks of at most _BLOCK_ELEMS radii; d = 1: the slab
                step, gram = max(s1 - s0, 1), None
                if chunked:
                    step = _BLOCK_ELEMS // (b - a)
                    W0c = W0[a:b] - mu
                    gram = (mu, W0c, np.einsum("ij,ij->i", W0c, W0c))
                # over several chunks, sums of Y less the slab's mean
                ref = Y[s0:s1].mean() if s1 - s0 > step else 0.0
                for c0 in range(s0, s1, step):
                    c1 = min(c0 + step, s1)
                    own = None
                    if leave_one_out:
                        # row r's own sample is column r, at r - c0 in the chunk
                        r = np.arange(max(a, c0), min(b, c1))
                        own = (r - a, r - c0)
                    yc = Y[c0:c1] - ref if ref else Y[c0:c1]
                    _merge(acc[:, a:b], _block(kernel, W[c0:c1], yc, W0[a:b], h, gram, own))
                if ref:
                    acc[1, a:b] += ref
                a = b
            mass, eta, css = acc
            eta[mass == 0] = np.nan
            sums = mass, eta, np.maximum(css / mass, 0.0)
        if qorder is None:
            return sums
        out = np.empty((3, m))
        out[:, qorder] = sums
        return out[0], out[1], out[2]


def _window_starts(w: NDArray[np.floating], q: NDArray[np.floating], h: float,
                   closed: bool) -> NDArray[np.intp]:
    """Per query q_i, the first index j of the sorted 1-d sample w from which
    every sample below q_i passes the direct core's radius and support test
    |q_i - w_j| / h < 1 (<= 1 if ``closed``); the count of samples below q_i
    if none does. Samples below q_i - h by more than the slabs' rounding
    slack fail the test; the first sample past that bound is tested once,
    and the edge is bisected only where that test fails."""
    a = np.searchsorted(w, q - (h + _SLAB_RTOL * (np.abs(q) + h)), side="left")
    b = np.searchsorted(w, q, side="left")
    rows = np.flatnonzero(a < b)
    mid = a[rows]
    while rows.size:
        t = np.abs(q[rows] - w[mid]) / h
        hit = t <= 1.0 if closed else t < 1.0
        b[rows[hit]] = mid[hit]
        a[rows[~hit]] = mid[~hit] + 1
        rows = rows[a[rows] < b[rows]]
        mid = (a[rows] + b[rows]) // 2
    return a


def _powers(v: NDArray[np.floating], m: int,
            out: NDArray[np.floating] | None = None) -> NDArray[np.floating]:
    """Rows v^0, ..., v^(m-1), written into ``out`` if given."""
    out = np.empty((m, v.size)) if out is None else out
    out[0] = 1.0
    for j in range(1, m):
        np.multiply(out[j - 1], v, out=out[j])
    return out


def _nw_prefix(kernel: RadialKernel, w: NDArray[np.floating], Y: NDArray[np.floating],
               h: float, q: NDArray[np.floating] | None = None
               ) -> tuple[NDArray[np.floating], NDArray[np.floating], NDArray[np.floating]] | None:
    """``_nw_core(kernel, w[:, None], Y, q[:, None], h)`` for the sorted 1-d
    sample (w, Y), sorted query points q and a profile (1 - t^2)^k, from
    prefix sums (Fan & Marron 1994; Langrene & Warin 2019). With q None the
    queries are the samples, each left out of its own sums as with
    ``leave_one_out``, and sigma2 is all NaN. Returns None when the sample
    spans too many chunks of width h, or a centred difference could
    overflow; the direct core then serves.

    The sample is cut into chunks of width h, each centred at its midpoint
    z, so u = (w - z) / h lies in [-1/2, 1/2). Prefix sums of u^j (Y -
    ybar)^r, j <= 2k and r <= 2 (r <= 1 when left out), give a window's
    sums within a chunk; the window of q spans at most q's chunk and its two
    neighbours, and (1 - (v - u)^2)^k with v = (q - z) / h expands by
    binomial coefficients into those sums. A left-out row's own chunk is
    summed on both sides of the row, not as a full sum less K(0). Queries
    run in blocks of _PREFIX_BLOCK, so no temporary grows with m.

    Window bounds, and so empty windows, come from counts and the direct
    core's test at the window edges (``_window_starts``); an empty
    window's sums are set to exactly 0, however far its query lies. Every
    term a_j(v) u^j is at most 5^k in magnitude (|v| <= 3/2, |u| <= 1/2)
    and each prefix sum adds at most n terms, so a row's sums S_r of
    (Y - ybar)^r carry a rounding error below eps 5^k T_r per window
    sample, T_r = sum_i |Y_i - ybar|^r (T_0 = n); the centred variance's
    numerator S_2 - mu S_1, mu = S_1 / S_0, then carries one below
    eps 5^k (T_2 + 2 |mu| T_1 + mu^2 n) per window sample. A row whose
    mass or numerator is below _PREFIX_SAFETY times its bound, or whose
    window reaches past the neighbouring chunks, is summed directly over
    its window.
    """
    k, n, loo = kernel.profile.power, w.size, q is None
    q = w if loo else q
    w0, span = float(w[0]), (float(w[-1]) - float(w[0])) / h
    # chunk indices and centres exact, and every centred difference finite
    if not (span < _PREFIX_MAX_CHUNKS and math.isfinite(4.0 * (abs(w0) + abs(float(w[-1])) + h))):
        return None
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # the window of query i is [lo, hi); the right edge is the left one
        # of the mirrored query; a left-out row's window holds the row
        lo = _window_starts(w, q, h, k == 0)
        hi = n - _window_starts(-w[::-1], -q, h, k == 0)
        count = hi - lo - loo
        live = count > 0
        # each sample's and query's chunk, and where the query's chunk starts
        # and ends
        c = np.floor((w - w0) / h)
        cq = c if loo else np.floor((q - w0) / h)
        start, end = np.searchsorted(c, cq, side="left"), np.searchsorted(c, cq, side="right")
        # prefix sums of u^j (Y - ybar)^r, u in each sample's chunk frame
        J, R, ybar = 2 * k + 1, 2 if loo else 3, Y.mean()
        dy = Y - ybar
        P = np.zeros((R * J, n + 1))
        _powers((w - (w0 + (c + 0.5) * h)) / h, J, out=P[:J, 1:])
        for r in range(1, R):
            np.multiply(P[(r - 1) * J:r * J, 1:], dy, out=P[r * J:(r + 1) * J, 1:])
        np.cumsum(P[:, 1:], axis=1, out=P[:, 1:])
        # a_j(v), the coefficient of u^j in (1 - (v - u)^2)^k, is sum_p M[j, p] v^p
        M = np.zeros((J, J))
        for m in range(k + 1):
            for j in range(2 * m + 1):
                M[j, 2 * m - j] += (-1) ** (m + j) * math.comb(k, m) * math.comb(2 * m, j)
        sums = np.zeros((R, q.size))
        for b0 in range(0, q.size, _PREFIX_BLOCK):
            b1 = min(b0 + _PREFIX_BLOCK, q.size)
            i = slice(b0, b1)
            li, hi_, si, ei = lo[i], hi[i], start[i], end[i]
            a, b = np.maximum(li, si), np.minimum(hi_, ei)
            # the window's sums in chunks c - 1, c (either side of a left-out
            # row) and c + 1, each with the offset of that chunk's centre from c
            own = ((a, i), (slice(b0 + 1, b1 + 1), b)) if loo else ((a, b),)
            for off, segs in ((-0.5, ((np.minimum(li, si), si),)), (0.5, own),
                              (1.5, ((ei, np.maximum(hi_, ei)),))):
                S = sum(P[:, y] - P[:, x] for x, y in segs)
                A = np.einsum("jp,pi->ji", M, _powers((q[i] - (w0 + (cq[i] + off) * h)) / h, J))
                sums[:, i] += np.einsum("ji,rji->ri", A, S.reshape(R, J, -1))
        # an empty window's sums are 0 times its expansion, which a far query
        # can make inf or NaN; they are exactly 0
        sums[:, ~live] = 0.0
        mass, ysum = sums[0], sums[1]
        # a prefix difference over c samples errs by at most eps c times the
        # total of its row's terms, and those of u^j (Y - ybar)^r total at
        # most 2^-j sum_i |Y_i - ybar|^r
        bound = np.finfo(float).eps * 5.0 ** k * count
        redo = live & ((mass < _PREFIX_SAFETY * n * bound) | (c.take(lo, mode="clip") < cq - 1)
                       | (c.take(hi - 1, mode="clip") > cq + 1))
        if not loo:
            # the centred variance's numerator S_2 - mu S_1, mu = S_1 / S_0
            mu = ysum / mass
            var = sums[2] - mu * ysum
            t1, t2 = float(np.sum(np.abs(dy))), float(np.sum(dy * dy))
            redo |= live & (var < _PREFIX_SAFETY * bound * (t2 + 2.0 * np.abs(mu) * t1 + mu * mu * n))
        # the direct sums centre on the window's first response, so the
        # variance needs no cancelling subtraction; einsum, not a BLAS
        # dot, which may split a long sum over threads
        for i in np.flatnonzero(redo).tolist():
            wts = kernel.profile.raw_profile(np.abs(q[i] - w[lo[i]:hi[i]]) / h)
            if loo:
                wts[i - lo[i]] = 0.0
            d = Y[lo[i]:hi[i]] - Y[lo[i]]
            mass[i], dsum = wts.sum(), np.einsum("j,j->", wts, d)
            ysum[i] = dsum + (Y[lo[i]] - ybar) * mass[i]
            if not loo:
                var[i] = np.einsum("j,j->", wts, (d - dsum / mass[i]) ** 2)
        sigma2 = np.full(q.size, np.nan) if loo else np.maximum(var / mass, 0.0)
        return kernel.norm_const * mass, ybar + ysum / mass, sigma2


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
    # the criterion is formed on Y / 2^e, with max |Y| / 2^e in [1/2, 1), so
    # it cannot overflow; a power-of-two scale is exact short of the
    # subnormal range, so wherever the unscaled criteria are finite and
    # normal they keep their order and the same h wins
    e = np.frexp(np.max(np.abs(Y)))[1]
    Ys = np.ldexp(Y, -e)
    var = float(np.var(Ys))
    best_h, best_err = None, math.inf
    for h in rule.cv_grid:
        sums = _nw_prefix(kernel, W[:, 0], Y, h) if prefix else None
        mass, pred, _ = sums if sums is not None else _nw_core(kernel, W, Y, W, h, leave_one_out=True)
        ok = mass > 0
        if not np.any(ok):
            continue
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # points with an empty leave-one-out window are charged the
            # response variance so narrow bandwidths cannot win by dropping them
            err = float(np.sum((Ys[ok] - np.ldexp(pred[ok], -e)) ** 2)) + float(np.sum(~ok)) * var
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
    # the identity basis (np) reduces X to X itself: no n x p product or copy
    identity = basis.d == p and np.array_equal(basis.matrix, np.eye(p))
    # an inf or NaN anywhere in a row of X makes its reduced row non-finite,
    # even in a column the basis weights 0 (inf * 0 is NaN)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        W = X if identity else _reduce(basis, X)
    if not np.isfinite(W).all():
        raise ArgumentError("reduced predictors X @ basis.T are not finite; X must be finite")
    h = bandwidth(config.bandwidth, n=n, p=p, d=config.d, kernel=config.kernel, W=W, Y=Y)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        W0 = X0 if identity else _reduce(basis, X0)
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
