"""Synthetic models and replication experiments.

Two generators (a quadratic single-index model in p=6 and an inverse
regression model in p=20), the three-way estimator comparison (full-space
NW, NW on the true reduction, NW on a fitted reduction), replication tables
with the printed-formula EMSE, the oracle-equivalence and CI-coverage views
of a table, and kernel density data for plotting estimate distributions.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial
from importlib import resources
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from ._blas import blas_threads_per_worker, keep_freed_memory
from .errors import ArgumentError, NumericError, RednwError
from .kernels import builtin_profile, make_kernel, second_moment
from .npregress import BandwidthRule, NWConfig, _nw_core, bandwidth, nw_batch
from .reduction import FIT_METHODS, ReductionBasis, fit, oracle_basis

METHOD_NAMES = ("np", "npr", "nprt")
# one direction each, not fitted: root_n_oracle perturbs the true direction by
# O(n^-1/2); wrong_direction is the first coordinate axis, a negative control
_ONE_DIRECTION = ("root_n_oracle", "wrong_direction")
NPRT_REDUCTIONS = FIT_METHODS[1:] + _ONE_DIRECTION

_MASK = (1 << 63) - 1


def _tag(name: str) -> int:
    # stable across processes (builtin hash() is salted per run)
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big") & _MASK


_TAG_MODEL1 = _tag("model1")
_TAG_MODEL2 = _tag("model2")
_TAG_POINTS = _tag("test-points")
_TAG_ORACLE = _tag("root-n-perturbation")


def _rng(*entropy: int) -> np.random.Generator:
    # counter-based generator so every (seed, stage, n, rep) cell owns an
    # independent, recomputable stream
    seq = np.random.SeedSequence(entropy=[int(e) & _MASK for e in entropy])
    return np.random.Generator(np.random.Philox(seq))


def _psd_sqrt(m: NDArray[np.floating]) -> NDArray[np.floating]:
    # symmetric square root; tolerates exactly singular covariances
    vals, vecs = np.linalg.eigh(0.5 * (m + m.T))
    if vals[0] < -1e-10 * max(abs(vals[-1]), 1.0):
        raise NumericError(f"covariance has negative eigenvalue {vals[0]:.3e}")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _default_s_matrix() -> NDArray[np.floating]:
    path = resources.files("rednw").joinpath("_data/model2_s.csv")
    with resources.as_file(path) as p:
        return np.loadtxt(p, delimiter=",")


@dataclass(frozen=True)
class Model1Config:
    """Quadratic single-index design: Y = (beta0' X)^2 + eps.

    X ~ N(0, Sigma) with Sigma = sigma_signal * b b' +
    sigma_noise_cov * (I - b b') for the unit vector b = beta0.
    """

    p: int = 6
    beta0: NDArray[np.floating] | None = None
    sigma_signal: float = 5.0
    sigma_noise_cov: float = 0.1
    eps_sd: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ArgumentError(f"p must be >= 1, got {self.p}")
        b = np.ones(self.p) / math.sqrt(self.p) if self.beta0 is None \
            else np.asarray(self.beta0, dtype=float).ravel()
        if b.shape != (self.p,):
            raise ArgumentError(f"beta0 must have length p={self.p}, got {b.shape}")
        nb = float(np.linalg.norm(b))
        if nb < 1e-12:
            raise ArgumentError("beta0 must be nonzero")
        object.__setattr__(self, "beta0", b / nb)
        if self.sigma_signal < 0 or self.sigma_noise_cov < 0 or self.eps_sd < 0:
            raise ArgumentError("variance parameters must be >= 0")

    def covariance(self) -> NDArray[np.floating]:
        bb = np.outer(self.beta0, self.beta0)
        return self.sigma_signal * bb + self.sigma_noise_cov * (np.eye(self.p) - bb)

    @cached_property
    def _x_factor(self) -> NDArray[np.floating]:
        return _psd_sqrt(self.covariance())

    def truth(self, x: NDArray[np.floating]) -> NDArray[np.floating] | float:
        w = np.asarray(x, dtype=float) @ self.beta0
        return w * w


@dataclass(frozen=True)
class Model2Config:
    """Inverse regression design: Y ~ N(0, y_sd^2), X | Y=y ~ N(nu_y, Delta).

    nu_y = A * (f_{y,1} + f_{y,2}) with f_y = (y - EY, |y| - E|Y|) centered
    at the population, Delta = delta_scale * S S' for a fixed S drawn once
    at the recorded s_seed and shipped as package data.
    """

    p: int = 20
    y_sd: float = 5.0
    A: NDArray[np.floating] | None = None
    delta_scale: float = 0.1
    S: NDArray[np.floating] | None = None
    s_seed: int = 31415926
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ArgumentError(f"p must be >= 1, got {self.p}")
        if self.A is None:
            a = np.zeros(self.p)
            a[:4] = [0.5, 0.5, -0.5, -0.5]
        else:
            a = np.asarray(self.A, dtype=float).ravel()
        if a.shape != (self.p,):
            raise ArgumentError(f"A must have length p={self.p}, got {a.shape}")
        object.__setattr__(self, "A", a)
        s = _default_s_matrix() if self.S is None else np.asarray(self.S, dtype=float)
        if s.shape != (self.p, self.p):
            raise ArgumentError(f"S must be {self.p}x{self.p}, got {s.shape}")
        object.__setattr__(self, "S", s)
        if not self.delta_scale > 0:
            raise ArgumentError(f"delta_scale must be > 0, got {self.delta_scale}")
        cond = float(np.linalg.cond(self.delta))
        if cond > 1e12:
            raise ArgumentError(f"Delta condition number {cond:.3e} exceeds 1e12; choose a better S")

    @cached_property
    def delta(self) -> NDArray[np.floating]:
        return self.delta_scale * (self.S @ self.S.T)

    @property
    def e_abs_y(self) -> float:
        return self.y_sd * math.sqrt(2.0 / math.pi)

    @cached_property
    def beta_pop(self) -> NDArray[np.floating]:
        b = np.linalg.solve(self.delta, self.A)
        return b / float(np.linalg.norm(b))

    @cached_property
    def _x_factor(self) -> NDArray[np.floating]:
        return _psd_sqrt(self.delta)


def _draw_x(cfg, rng: np.random.Generator, n: int):
    # n rows of X, and for model 2 the responses they were drawn given
    if isinstance(cfg, Model1Config):
        return rng.standard_normal((n, cfg.p)) @ cfg._x_factor, None
    y = rng.normal(0.0, cfg.y_sd, n)
    f_sum = y + np.abs(y) - cfg.e_abs_y
    # the outer product goes into the matrix product in place: two n x p
    # arrays live, not three; addition commutes, so the bits are unchanged
    X = rng.standard_normal((n, cfg.p)) @ cfg._x_factor
    X += f_sum[:, None] * cfg.A
    return X, y


def gen_model1(cfg: Model1Config, n: int, rng_stream: int = 0):
    """Draw (X, Y, truth) with X rows i.i.d. N(0, Sigma)."""
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    rng = _rng(cfg.seed, _TAG_MODEL1, n, rng_stream)
    X, _ = _draw_x(cfg, rng, n)
    eps = rng.normal(0.0, cfg.eps_sd, n) if cfg.eps_sd > 0 else np.zeros(n)
    Y = (X @ cfg.beta0) ** 2 + eps
    return X, Y, cfg.truth


def gen_model2(cfg: Model2Config, n: int, rng_stream: int = 0):
    """Draw (X, Y, beta_pop) from the inverse regression model."""
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    X, Y = _draw_x(cfg, _rng(cfg.seed, _TAG_MODEL2, n, rng_stream), n)
    return X, Y, cfg.beta_pop


def default_bandwidth_rule(cfg) -> BandwidthRule:
    """The simulation bandwidth: c * n^(-1/(4+p)), c=5 (p=6) or c=10 (p=20)."""
    c = 5.0 if isinstance(cfg, Model1Config) else 10.0
    return BandwidthRule(kind="power_rule", constant=c, exponent_dim="ambient_p")


def undersmoothed_rule(constant: float = 2.0, exponent: float = 0.3) -> BandwidthRule:
    """Bandwidth in the reduced dimension with an undersmoothing exponent.

    For d=1 and a second-order kernel the CI theory needs the exponent
    strictly inside (1/5, 1); the default 0.3 sits comfortably there, and
    an exponent outside raises ArgumentError.
    """
    if not 0.2 < exponent < 1.0:
        raise ArgumentError(f"undersmoothing needs exponent strictly inside (0.2, 1), got {exponent}")
    return BandwidthRule(kind="power_rule", constant=constant,
                         exponent_dim="reduced_d", exponent=exponent)


def draw_test_points(cfg, m: int = 10) -> NDArray[np.floating]:
    """m points from the model's X distribution at a recorded sub-stream."""
    if m < 1:
        raise ArgumentError(f"m must be >= 1, got {m}")
    return _draw_x(cfg, _rng(cfg.seed, _TAG_POINTS), m)[0]


def _pfc_features(y: NDArray[np.floating]) -> NDArray[np.floating]:
    """The feature map f(y) = (y, |y|), uncentred, that pfc gets here."""
    return np.column_stack([y, np.abs(y)])


# pfc gives at most r directions, r the number of columns of _pfc_features
PFC_MAX_D = 2


@dataclass(frozen=True)
class MethodSpec:
    """One estimator column: np (full space), npr (true reduction), nprt
    (fitted reduction via ``reduction`` in NPRT_REDUCTIONS), with the run's
    bandwidth rule unless ``bandwidth_rule`` is set; an ``x0_only`` column
    is evaluated at test point 0 alone and has no cells."""

    method: str
    reduction: str | None = None
    d: int = 1
    bandwidth_rule: BandwidthRule | None = None
    x0_only: bool = False

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ArgumentError(f"method must be one of {METHOD_NAMES}, got {self.method!r}")
        if self.method == "nprt":
            if self.reduction not in NPRT_REDUCTIONS:
                raise ArgumentError(
                    f"nprt needs reduction in {NPRT_REDUCTIONS}, got {self.reduction!r}")
        elif self.reduction is not None:
            raise ArgumentError(f"method {self.method!r} does not take a reduction")
        if self.d < 1:
            raise ArgumentError(f"d must be >= 1, got {self.d}")
        if self.d != 1 and (self.method == "npr" or self.reduction in _ONE_DIRECTION):
            raise ArgumentError(
                f"{self.reduction or self.method} gives one direction; it needs d=1, got {self.d}")

    @property
    def label(self) -> str:
        return self.method.upper() + ("@X0" if self.x0_only else "")


def emse(estimates: Sequence[float] | NDArray[np.floating]) -> float:
    """Replication spread (1/N) sum (est_i - mean(est))^2.

    The printed formula subtracts the mean of the estimates, not the truth,
    so this is the empirical variance of the replication distribution.
    """
    v = np.asarray(estimates, dtype=float).ravel()
    if v.size < 1:
        raise ArgumentError("emse needs at least one estimate")
    return float(np.mean((v - v.mean()) ** 2))


@dataclass(frozen=True)
class CellStats:
    point_id: int
    n: int
    method: str
    emse: float
    variance: float
    mean_estimate: float
    n_rep: int
    n_missing: int
    true_mse: float | None


@dataclass(frozen=True)
class ReplicationTable:
    cells: tuple[CellStats, ...]
    test_points: NDArray[np.floating]
    ns: tuple[int, ...]
    methods: tuple[str, ...]
    n_rep: int
    base_seed: int
    # raw per-replication estimates keyed (point_id, n, method), NaN for
    # missing, and under the same keys n_rep x 2 arrays of (ci_lo, ci_hi);
    # an x0_only column has point 0 alone, and no cells
    estimates: dict
    intervals: dict

    @property
    def missing_rate(self) -> float:
        total = sum(c.n_rep + c.n_missing for c in self.cells)
        return sum(c.n_missing for c in self.cells) / total if total else 0.0

    def cell(self, point_id: int, n: int, method: str) -> CellStats:
        for c in self.cells:
            if (c.point_id, c.n, c.method) == (point_id, n, method.upper()):
                return c
        raise ArgumentError(f"no cell for point={point_id}, n={n}, method={method!r}")


def _fit_basis(spec: MethodSpec, cfg, X, Y, rep: int, base_seed: int) -> ReductionBasis:
    true_direction = cfg.beta0 if isinstance(cfg, Model1Config) else cfg.beta_pop
    if spec.method == "np":
        return oracle_basis(np.eye(cfg.p))
    if spec.method == "npr":
        return oracle_basis(true_direction[None, :])
    if spec.reduction == "root_n_oracle":
        # an n^(-1/2) perturbation whose Gaussian draw is shared across n
        # (paired comparisons across sizes)
        g = _rng(base_seed, _TAG_ORACLE, rep).standard_normal(cfg.p)
        return oracle_basis((true_direction + g / math.sqrt(X.shape[0]))[None, :])
    if spec.reduction == "wrong_direction":
        return oracle_basis(np.eye(cfg.p)[:1])
    return fit(spec.reduction, X, Y, spec.d, fy=_pfc_features)


def _one_rep(cfg, methods, base_seed: int, test_points, configs: dict, fixed: dict,
             task: tuple[int, int]) -> tuple[tuple[int, int], dict]:
    n, rep = task
    gen = gen_model1 if isinstance(cfg, Model1Config) else gen_model2
    X, Y, _ = gen(cfg, n, rng_stream=rep)
    bases, out = {}, {}
    for spec in methods:
        # x0 alone in a one-row batch: X0 is projected by one BLAS product,
        # and row 0 of a larger product can differ in the last bit
        points = test_points[:1] if spec.x0_only else test_points
        # (eta_hat, ci_lo, ci_hi) per test point, NaN where it failed
        out[spec.label] = np.full((points.shape[0], 3), np.nan)
        key = (spec.method, spec.reduction, spec.d)
        with contextlib.suppress(RednwError):
            if key not in bases:
                bases[key] = None  # one fit per key; a failed one stays None
                bases[key] = fixed.get(spec.label) or _fit_basis(spec, cfg, X, Y, rep, base_seed)
            if bases[key] is not None:
                batch = nw_batch(configs[spec.label], bases[key], X, Y, points)
                out[spec.label] = np.column_stack((batch.eta_hat, batch.ci_lo, batch.ci_hi))
    return task, out


def run_replications(cfg, methods: Sequence[MethodSpec], ns: Sequence[int],
                     test_points: NDArray[np.floating], n_rep: int,
                     base_seed: int | None = None,
                     bandwidth_rule: BandwidthRule | None = None,
                     n_threads: int = 1, ci_level: float = 0.95) -> ReplicationTable:
    """Replicated estimator comparison on fixed test points.

    For each (n, rep) draws a fresh dataset from its own RNG stream, fits
    every method, and evaluates all test points; cells aggregate emse,
    sample variance, and mean per (point, n, method). Empty windows and
    failed fits become missing entries with counts. The table also keeps
    every replication's estimate and its ci_level confidence interval
    (``estimates``, ``intervals``). Results are identical for any n_threads.
    A method's own ``bandwidth_rule`` overrides the run's.

    Args:
        cfg: Model1Config or Model2Config.
        base_seed: defaults to cfg.seed.
        bandwidth_rule: defaults to the model's published power rule.
    """
    methods = list(methods)
    if not methods:
        raise ArgumentError("need at least one MethodSpec")
    labels = [m.label for m in methods]
    if len(set(labels)) != len(labels):
        raise ArgumentError(f"duplicate method labels {labels}; run variants separately")
    ns = [int(n) for n in ns]
    if not ns or any(n < 2 for n in ns):
        raise ArgumentError(f"sample sizes must all be >= 2, got {ns}")
    test_points = np.atleast_2d(np.asarray(test_points, dtype=float))
    if test_points.shape[1] != cfg.p:
        raise ArgumentError(f"test points have {test_points.shape[1]} columns, model has p={cfg.p}")
    if n_rep < 1:
        raise ArgumentError(f"n_rep must be >= 1, got {n_rep}")
    if base_seed is None:
        base_seed = cfg.seed
    cfg_run = replace(cfg, seed=base_seed)
    rule = bandwidth_rule if bandwidth_rule is not None else default_bandwidth_rule(cfg)
    dims = {m.label: cfg.p if m.method == "np" else m.d for m in methods}
    profile = builtin_profile("triweight_poly3")
    kernels = {dim: make_kernel(profile, dim) for dim in sorted(set(dims.values()))}
    configs = {m.label: NWConfig(kernel=kernels[dims[m.label]], d=dims[m.label],
                                 bandwidth=m.bandwidth_rule or rule, ci_level=ci_level)
               for m in methods}
    # np's, npr's and wrong_direction's bases ignore the data: build each once
    fixed = {m.label: _fit_basis(m, cfg_run, None, None, 0, base_seed) for m in methods
             if m.method in ("np", "npr") or m.reduction == "wrong_direction"}

    tasks = [(n, rep) for n in ns for rep in range(n_rep)]
    keep_freed_memory()  # every replication frees and redraws arrays of a few MB
    work = partial(_one_rep, cfg_run, methods, base_seed, test_points, configs, fixed)
    if n_threads > 1:
        with blas_threads_per_worker(n_threads), ThreadPoolExecutor(max_workers=n_threads) as ex:
            results = dict(ex.map(work, tasks))
    else:
        results = dict(map(work, tasks))

    truths = cfg.truth(test_points) if isinstance(cfg, Model1Config) else None
    cells = []
    kept, intervals = {}, {}
    full = [m.label for m in methods if not m.x0_only]
    for j in range(test_points.shape[0]):
        for n in ns:
            for lab in labels if j == 0 else full:
                # fixed (n, rep, point) aggregation order keeps cells bit-stable
                reps = np.array([results[(n, rep)][lab][j] for rep in range(n_rep)])
                v = reps[:, 0]
                kept[(j, n, lab)] = v.copy()
                intervals[(j, n, lab)] = reps[:, 1:]
                if lab not in full:
                    continue
                good = v[~np.isnan(v)]
                n_missing = int(np.isnan(v).sum())
                if good.size:
                    cell_emse = emse(good)
                    variance = float(np.var(good, ddof=1)) if good.size > 1 else 0.0
                    mean_est = float(good.mean())
                    t_mse = float(np.mean((good - truths[j]) ** 2)) if truths is not None else None
                else:
                    cell_emse, variance, mean_est, t_mse = math.nan, math.nan, math.nan, None
                cells.append(CellStats(point_id=j, n=n, method=lab, emse=cell_emse,
                                       variance=variance, mean_estimate=mean_est,
                                       n_rep=int(good.size), n_missing=n_missing,
                                       true_mse=t_mse))
    return ReplicationTable(cells=tuple(cells), test_points=test_points,
                            ns=tuple(ns), methods=tuple(full),
                            n_rep=n_rep, base_seed=base_seed, estimates=kept,
                            intervals=intervals)


def recompute_cell(cfg, spec: MethodSpec, test_points: NDArray[np.floating],
                   point_id: int, n: int, n_rep: int, base_seed: int,
                   bandwidth_rule: BandwidthRule | None = None,
                   n_threads: int = 1) -> CellStats:
    """Recompute one table cell from its coordinates alone.

    Reproduces the stream of every replication that fed the cell, so the
    result is bit-identical to the full run's cell at any thread count.
    """
    table = run_replications(cfg, [spec], [n], test_points, n_rep,
                             base_seed=base_seed, bandwidth_rule=bandwidth_rule,
                             n_threads=n_threads)
    return table.cell(point_id, n, spec.label)


def oracle_specs(reduction: str = "pls", bandwidth_rule: BandwidthRule | None = None) -> tuple:
    """The x0-only NPR and NPRT columns that equivalence and coverage read."""
    rule = bandwidth_rule if bandwidth_rule is not None else undersmoothed_rule()
    return (MethodSpec("npr", bandwidth_rule=rule, x0_only=True),
            MethodSpec("nprt", reduction=reduction, bandwidth_rule=rule, x0_only=True))


@dataclass(frozen=True)
class EquivalenceRow:
    n: int
    h: float
    median_stat: float
    n_used: int
    n_missing: int


def equivalence_view(table: ReplicationTable,
                     bandwidth_rule: BandwidthRule | None = None) -> list[EquivalenceRow]:
    """Median of sqrt(n h^d) |eta_hat(x0) - xi_hat(w0)| per sample size, from
    the ``oracle_specs(reduction, bandwidth_rule)`` columns (NPRT gives
    eta_hat, NPR xi_hat) over the replications where both exist. With a
    root-n consistent reduction the statistic drifts to zero as n grows;
    "wrong_direction" is the negative control and does not decay. The scale
    sqrt(n h) needs h from n alone, so a "loocv" rule raises ArgumentError."""
    npr, nprt = oracle_specs(bandwidth_rule=bandwidth_rule)
    if npr.bandwidth_rule.kind == "loocv":
        raise ArgumentError("equivalence statistic needs a bandwidth set by n alone; "
                            "bandwidth kind 'loocv' is chosen from the data")
    rows = []
    for n in table.ns:
        h = bandwidth(npr.bandwidth_rule, n=n, p=table.test_points.shape[1], d=1)
        gap = np.abs(table.estimates[(0, n, nprt.label)] - table.estimates[(0, n, npr.label)])
        stats = math.sqrt(n * h) * gap[~np.isnan(gap)]
        if not stats.size:
            raise NumericError(f"every replication at n={n} hit an empty window")
        rows.append(EquivalenceRow(n=n, h=h, median_stat=float(np.median(stats)),
                                   n_used=stats.size, n_missing=table.n_rep - stats.size))
    return rows


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    level: float
    n: int
    n_used: int
    n_excluded: int
    truth: float
    median_ci_width: float


def coverage_view(table: ReplicationTable, cfg: Model1Config, n: int, level: float) -> CoverageResult:
    """Fraction of replications at n whose CI, from the table's NPR column of
    ``oracle_specs`` run at ci_level ``level``, covers the true eta(x0). The
    CLT's bias condition needs an undersmoothing rule, ``undersmoothed_rule``."""
    ci = table.intervals[(0, n, oracle_specs()[0].label)]
    ci_lo, ci_hi = ci[~np.isnan(ci[:, 0])].T
    if not ci_lo.size:
        raise NumericError(f"every replication at n={n} hit an empty window")
    truth = float(cfg.truth(table.test_points[0]))
    covered = int(np.sum((ci_lo <= truth) & (truth <= ci_hi)))
    return CoverageResult(coverage=covered / ci_lo.size, level=level, n=n, n_used=ci_lo.size,
                          n_excluded=table.n_rep - ci_lo.size, truth=truth,
                          median_ci_width=float(np.median(ci_hi - ci_lo)))


def estimate_density_data(estimates: Sequence[float] | NDArray[np.floating],
                          grid: Sequence[float]) -> list[tuple[float, float]]:
    """Kernel density of a replication distribution on a grid.

    Triweight kernel with a Silverman-style bandwidth computed from the
    kernel's own constants; degenerate samples fall back to a nominal width
    so a point mass shows as a narrow spike.
    """
    v = np.asarray(estimates, dtype=float).ravel()
    if v.size < 10:
        raise ArgumentError(f"density data needs at least 10 estimates, got {v.size}")
    g = np.asarray(grid, dtype=float).ravel()
    kernel = make_kernel(builtin_profile("triweight_poly3"), 1)
    mu2 = second_moment(kernel)
    factor = (8.0 * math.sqrt(math.pi) * kernel.l2_const / (3.0 * mu2 * mu2)) ** 0.2
    iqr = float(np.subtract(*np.percentile(v, [75, 25])))
    scale = min(float(np.std(v)), iqr / 1.349) if iqr > 0 else float(np.std(v))
    if scale <= 0:
        scale = 1e-2 * max(1.0, abs(float(v.mean())))
    h = factor * scale * v.size ** -0.2
    dens = _nw_core(kernel, v[:, None], v, g[:, None], h)[0] / (v.size * h)
    return [(float(gi), float(di)) for gi, di in zip(g, dens)]
