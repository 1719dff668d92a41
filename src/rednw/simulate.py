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
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from importlib import resources
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from ._blas import keep_freed_memory, one_blas_thread
from .errors import ArgumentError, NumericError, RednwError
from .kernels import builtin_profile, make_kernel
from .npregress import BandwidthRule, NWConfig, _nw_core, nw_batch
from .reduction import FIT_METHODS, ReductionBasis, all_finite, fit, oracle_basis, row_blocks

METHOD_NAMES = ("np", "npr", "nprt")
# one direction each, not fitted: root_n_oracle perturbs the true direction by
# O(n^-1/2); wrong_direction is the first coordinate axis, a negative control
_ONE_DIRECTION = ("root_n_oracle", "wrong_direction")
NPRT_REDUCTIONS = FIT_METHODS[1:] + _ONE_DIRECTION

_MASK = (1 << 63) - 1
# a beta0 whose norm lies within this times p of 1 counts as unit: a computed
# length-p norm errs by at most about p eps / 2, so a vector normalised once
# passes and is not normalised again
_UNIT_RTOL = 4 * np.finfo(float).eps
# model 2's S, shipped as _data/model2_s.csv, is
# np.random.default_rng(MODEL2_S_SEED).standard_normal((20, 20))
MODEL2_S_SEED = 31415926


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


def _unit(b: NDArray[np.floating]) -> NDArray[np.floating]:
    # b / norm(b) for a finite nonzero b, without the norm's overflow or
    # underflow: scaling by the power of two that brings max|b| into [0.5, 1)
    # is exact, so the bits are the direct quotient's wherever that is finite
    u = np.ldexp(b, -np.frexp(np.max(np.abs(b)))[1])
    return u / np.linalg.norm(u)


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
            else np.array(self.beta0, dtype=float).ravel()
        if b.shape != (self.p,):
            raise ArgumentError(f"beta0 must have length p={self.p}, got {b.shape}")
        if not (np.all(np.isfinite(b)) and np.any(b)):
            raise ArgumentError(f"beta0 must be finite and nonzero, got {b}")
        # a vector already unit to rounding is kept, so normalising is
        # idempotent and a config rebuilt from this one keeps beta0's bits;
        # hypot neither overflows nor underflows
        if abs(math.hypot(*b) - 1.0) > _UNIT_RTOL * self.p:
            b = _unit(b)
        object.__setattr__(self, "beta0", b)
        for name in ("sigma_signal", "sigma_noise_cov", "eps_sd"):
            if not 0 <= (v := getattr(self, name)) < math.inf:
                raise ArgumentError(f"{name} must be finite and >= 0, got {v}")

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
    at the population, Delta = delta_scale * S S', by default for the S
    drawn once at MODEL2_S_SEED and shipped as package data.
    """

    p: int = 20
    y_sd: float = 5.0
    A: NDArray[np.floating] | None = None
    delta_scale: float = 0.1
    S: NDArray[np.floating] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.p < 1:
            raise ArgumentError(f"p must be >= 1, got {self.p}")
        if self.A is None:
            if self.p < 4:
                raise ArgumentError(f"the default A needs p >= 4, got p={self.p}")
            a = np.zeros(self.p)
            a[:4] = [0.5, 0.5, -0.5, -0.5]
        else:
            a = np.asarray(self.A, dtype=float).ravel()
        if a.shape != (self.p,):
            raise ArgumentError(f"A must have length p={self.p}, got {a.shape}")
        if not (np.all(np.isfinite(a)) and np.any(a)):
            raise ArgumentError(f"A must be finite and nonzero, got {a}")
        object.__setattr__(self, "A", a)
        s = _default_s_matrix() if self.S is None else np.asarray(self.S, dtype=float)
        if s.shape != (self.p, self.p):
            raise ArgumentError(f"S must be {self.p}x{self.p}, got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise ArgumentError("S must be finite")
        object.__setattr__(self, "S", s)
        if not 0 <= self.y_sd < math.inf:
            raise ArgumentError(f"y_sd must be finite and >= 0, got {self.y_sd}")
        if not 0 < self.delta_scale < math.inf:
            raise ArgumentError(f"delta_scale must be finite and > 0, got {self.delta_scale}")
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
        return _unit(np.linalg.solve(self.delta, self.A))

    @cached_property
    def _x_factor(self) -> NDArray[np.floating]:
        return _psd_sqrt(self.delta)


def _check_addressable(what: str, value: int, *shape: int) -> None:
    """ArgumentError naming ``value`` if a float64 array of ``shape`` needs
    more bytes than numpy can address; a smaller one is the caller's memory
    budget."""
    if math.prod(map(int, shape)) * 8 > np.iinfo(np.intp).max:
        raise ArgumentError(f"{what} {value} is too large: "
                            f"{' x '.join(map(str, shape))} floats exceed numpy's addressable size")


def _draw_x(cfg, rng: np.random.Generator, n: int):
    # n rows of X, and for model 2 the responses they were drawn given
    y = None if isinstance(cfg, Model1Config) else rng.normal(0.0, cfg.y_sd, n)
    if y is not None:
        # y + |y| - E|Y| in place; addition commutes, so the bits are the same
        f_sum = np.abs(y)
        f_sum += y
        f_sum -= cfg.e_abs_y
    # X, the one n x p array, is filled by row blocks: normals times the factor
    # plus the outer product. Philox is counter-based, so the blocks draw the
    # stream one n x p draw would; only the product's last bits may move
    X = np.empty((n, cfg.p))
    for b in row_blocks(n, cfg.p):
        Xb = np.matmul(rng.standard_normal(X[b].shape), cfg._x_factor, out=X[b])
        if y is not None:
            Xb += f_sum[b, None] * cfg.A
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
    _check_addressable("m", m, m, cfg.p)
    return _draw_x(cfg, _rng(cfg.seed, _TAG_POINTS), m)[0]


def _pfc_features(y: NDArray[np.floating]) -> NDArray[np.floating]:
    """The feature map f(y) = (y, |y|), uncentred, that pfc gets here."""
    return np.column_stack([y, np.abs(y)])


# pfc gives at most r directions, r the number of columns of _pfc_features
PFC_MAX_D = _pfc_features(np.zeros(1)).shape[1]


@dataclass(frozen=True)
class MethodSpec:
    """One estimator column: np (full space), npr (true reduction), nprt
    (fitted reduction via ``reduction`` in NPRT_REDUCTIONS), at its
    ``bandwidth_rule``, None meaning the model's ``default_bandwidth_rule``;
    an ``x0_only`` column is evaluated at test point 0 alone and has no
    cells."""

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
    true_mse: float | None
    n_rep: int
    n_missing: int


@dataclass(frozen=True)
class ReplicationTable:
    specs: tuple[MethodSpec, ...]  # every column in run order, at its resolved rule and d
    test_points: NDArray[np.floating]
    truths: NDArray[np.floating] | None  # eta at each test point, None if not closed form
    ns: tuple[int, ...]
    # read-only (len(ns), n_rep, len(specs), len(test_points), 3): each rep's
    # (eta_hat, ci_lo, ci_hi), NaN where it failed or past an x0-only point 0
    values: NDArray[np.floating]
    h: NDArray[np.floating]  # read-only (len(ns), n_rep, len(specs)): NaN where no batch ran
    ci_level: float  # the intervals' level
    cells: tuple[CellStats, ...] = field(init=False)  # per (point, n, column with cells)

    def __post_init__(self):
        cells, truths, n_rep = [], self.truths, self.values.shape[1]
        full = [(k, spec.label) for k, spec in enumerate(self.specs) if not spec.x0_only]
        for j in range(self.test_points.shape[0]):
            for i, n in enumerate(self.ns):
                for k, label in full:
                    # a 1-d array in rep order: a fixed order keeps cells bit-stable
                    v = self.values[i, :, k, j, 0]
                    good = v[~np.isnan(v)]
                    if good.size:
                        cell_emse = emse(good)
                        variance = float(np.var(good, ddof=1)) if good.size > 1 else 0.0
                        mean_est = float(good.mean())
                        t_mse = None if truths is None else float(np.mean((good - truths[j]) ** 2))
                    else:
                        cell_emse, variance, mean_est, t_mse = math.nan, math.nan, math.nan, None
                    cells.append(CellStats(point_id=j, n=n, method=label, emse=cell_emse,
                                           variance=variance, mean_estimate=mean_est,
                                           n_rep=int(good.size), n_missing=n_rep - good.size,
                                           true_mse=t_mse))
        object.__setattr__(self, "cells", tuple(cells))

    @property
    def labels(self) -> tuple[str, ...]:  # every column's, x0-only ones included
        return tuple(spec.label for spec in self.specs)

    @property
    def methods(self) -> tuple[str, ...]:
        """The labels of the columns with cells: all but the x0-only ones."""
        return tuple(spec.label for spec in self.specs if not spec.x0_only)

    @property
    def missing_rate(self) -> float:
        total = sum(c.n_rep + c.n_missing for c in self.cells)
        return sum(c.n_missing for c in self.cells) / total if total else 0.0

    def cell(self, point_id: int, n: int, method: str) -> CellStats:
        methods, label = self.methods, method.upper()
        if point_id not in range(len(self.test_points)) or n not in self.ns or label not in methods:
            raise ArgumentError(f"no cell for point={point_id}, n={n}, method={method!r}")
        return self.cells[(point_id * len(self.ns) + self.ns.index(n)) * len(methods)
                          + methods.index(label)]

    def replicates(self, point_id: int, n: int, label: str) -> NDArray[np.floating]:
        """The (n_rep, 3) view of ``values`` at one point, n and column."""
        m = self.test_points.shape[0] if label in self.methods else 1
        if n not in self.ns or label not in self.labels or not 0 <= point_id < m:
            raise ArgumentError(f"no replicates for point={point_id}, n={n}, label={label!r}")
        return self.values[self.ns.index(n), :, self.labels.index(label), point_id]


def _fit_basis(spec: MethodSpec, cfg, X, Y, rep: int) -> ReductionBasis:
    true_direction = cfg.beta0 if isinstance(cfg, Model1Config) else cfg.beta_pop
    if spec.method == "np":
        return oracle_basis(np.eye(cfg.p))
    if spec.method == "npr":
        return oracle_basis(true_direction[None, :])
    if spec.reduction == "root_n_oracle":
        # an n^(-1/2) perturbation whose Gaussian draw is shared across n
        # (paired comparisons across sizes)
        g = _rng(cfg.seed, _TAG_ORACLE, rep).standard_normal(cfg.p)
        return oracle_basis((true_direction + g / math.sqrt(X.shape[0]))[None, :])
    if spec.reduction == "wrong_direction":
        return oracle_basis(np.eye(cfg.p)[:1])
    return fit(spec.reduction, X, Y, spec.d, fy=_pfc_features)


def _one_rep(cfg, specs, test_points, configs: list, fixed: dict, task) -> None:
    # task is (slot, h, n, rep), slot and h the NaN-filled rows no other task writes
    slot, hs, n, rep = task
    gen = gen_model1 if isinstance(cfg, Model1Config) else gen_model2
    X, Y, _ = gen(cfg, n, rng_stream=rep)
    bases = dict(fixed)
    for k, (spec, out) in enumerate(zip(specs, slot)):
        # x0 alone in a one-row batch: X0 is projected by one BLAS product,
        # and row 0 of a larger product can differ in the last bit
        points = test_points[:1] if spec.x0_only else test_points
        key = (spec.method, spec.reduction, spec.d)
        with contextlib.suppress(RednwError):
            if key not in bases:
                bases[key] = None  # one fit per key; a failed one stays None
                bases[key] = _fit_basis(spec, cfg, X, Y, rep)
            if bases[key] is not None:
                batch = nw_batch(configs[k], bases[key], X, Y, points)
                out[:len(points)] = np.column_stack((batch.eta_hat, batch.ci_lo, batch.ci_hi))
                hs[k] = batch.h


def run_replications(cfg, methods: Sequence[MethodSpec], ns: Sequence[int],
                     test_points: NDArray[np.floating], n_rep: int,
                     n_threads: int = 1, ci_level: float = 0.95) -> ReplicationTable:
    """Replicated estimator comparison on fixed test points.

    For each (n, rep) draws a fresh dataset from its own RNG stream, fits
    every method, and evaluates all test points; cells aggregate emse,
    sample variance, and mean per (point, n, method). Empty windows and
    failed fits become missing entries with counts. The table also keeps
    every replication's estimate and its ci_level confidence interval
    (``values``, read by ``replicates``), each batch's h and each column's
    resolved rule and d, p for np (``h``, ``specs``). Results match for
    any n_threads >= 1.

    Args:
        cfg: Model1Config or Model2Config; every random stream derives from
            its ``seed``.
    """
    specs = tuple(replace(m, bandwidth_rule=m.bandwidth_rule or default_bandwidth_rule(cfg),
                          d=cfg.p if m.method == "np" else m.d)
                  for m in methods)
    if not specs:
        raise ArgumentError("need at least one MethodSpec")
    labels = [m.label for m in specs]
    if len(set(labels)) != len(labels):
        raise ArgumentError(f"duplicate method labels {labels}; run variants separately")
    ns = [int(n) for n in ns]
    if not ns or any(n < 2 for n in ns):
        raise ArgumentError(f"sample sizes must all be >= 2, got {ns}")
    if len(set(ns)) != len(ns):
        raise ArgumentError(f"duplicate sample sizes {ns}")
    test_points = np.atleast_2d(np.asarray(test_points, dtype=float))
    if test_points.shape[1] != cfg.p:
        raise ArgumentError(f"test points have {test_points.shape[1]} columns, model has p={cfg.p}")
    if not test_points.shape[0]:
        raise ArgumentError("need at least one test point")
    if n_rep < 1:
        raise ArgumentError(f"n_rep must be >= 1, got {n_rep}")
    if not isinstance(n_threads, (int, np.integer)) or n_threads < 1:
        raise ArgumentError(f"n_threads must be an int >= 1, got {n_threads!r}")
    for n in ns:
        _check_addressable("sample size", n, n, cfg.p)
    values_shape = (len(ns), n_rep, len(specs), test_points.shape[0], 3)
    _check_addressable("n_rep", n_rep, *values_shape)
    profile = builtin_profile("triweight_poly3")
    kernels = {d: make_kernel(profile, d) for d in sorted({m.d for m in specs})}
    configs = [NWConfig(kernel=kernels[m.d], bandwidth=m.bandwidth_rule, ci_level=ci_level)
               for m in specs]
    # np's, npr's and wrong_direction's bases ignore the data: build each once
    fixed = {(m.method, m.reduction, m.d): _fit_basis(m, cfg, None, None, 0) for m in specs
             if m.method in ("np", "npr") or m.reduction == "wrong_direction"}

    values, h = np.full(values_shape, np.nan), np.full(values_shape[:3], np.nan)
    tasks = [(values[i, rep], h[i, rep], n, rep) for i, n in enumerate(ns) for rep in range(n_rep)]
    keep_freed_memory()  # every replication frees and redraws arrays of a few MB
    work = partial(_one_rep, cfg, specs, test_points, configs, fixed)
    with one_blas_thread():
        if n_threads > 1:
            with ThreadPoolExecutor(max_workers=n_threads) as ex:
                list(ex.map(work, tasks))  # raises what a task raised
        else:
            list(map(work, tasks))  # no pool, so Ctrl-C stops a serial run at once
    values.flags.writeable = h.flags.writeable = False
    truths = cfg.truth(test_points) if isinstance(cfg, Model1Config) else None
    return ReplicationTable(specs=specs, test_points=test_points, truths=truths, ns=tuple(ns),
                            values=values, h=h, ci_level=ci_level)


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


def equivalence_view(table: ReplicationTable) -> list[EquivalenceRow]:
    """Median of sqrt(n h^d) |eta_hat(x0) - xi_hat(w0)| per sample size, from
    the table's ``oracle_specs`` columns (NPRT gives eta_hat, NPR xi_hat) over
    the replications where both exist, at the h and d they ran at. With a
    root-n consistent reduction the statistic drifts to zero as n grows;
    "wrong_direction" is the negative control and does not decay. A table
    without both columns, or with them at two h or d, or at a "loocv" rule
    (the scale needs h from n alone), raises ArgumentError."""
    npr, nprt = (spec.label for spec in oracle_specs())
    cols = [k for k, spec in enumerate(table.specs) if spec.label in (npr, nprt)]
    if len(cols) != 2:
        raise ArgumentError(f"equivalence statistic needs the table's {npr} and {nprt} columns")
    if "loocv" in {table.specs[k].bandwidth_rule.kind for k in cols}:
        raise ArgumentError("equivalence statistic needs a bandwidth set by n alone; "
                            "bandwidth kind 'loocv' is chosen from the data")
    ds = sorted({table.specs[k].d for k in cols})
    rows = []
    for i, n in enumerate(table.ns):
        gap = np.abs(table.replicates(0, n, nprt)[:, 0] - table.replicates(0, n, npr)[:, 0])
        stats = gap[~np.isnan(gap)]
        if not stats.size:
            raise NumericError(f"every replication at n={n} hit an empty window")
        hs = table.h[i][:, cols]  # both columns ran in some replication: not all NaN
        if len(ds) > 1 or np.nanmax(hs) != (h := float(np.nanmin(hs))):
            raise ArgumentError(f"equivalence statistic needs both columns at one h and d; at n={n} "
                                f"they ran at h={np.unique(hs[~np.isnan(hs)]).tolist()}, d={ds}")
        stats *= math.sqrt(n * h ** ds[0])
        rows.append(EquivalenceRow(n=n, h=h, median_stat=float(np.median(stats)),
                                   n_used=stats.size, n_missing=gap.size - stats.size))
    return rows


@dataclass(frozen=True)
class CoverageResult:
    n: int
    level: float
    coverage: float
    n_used: int
    n_excluded: int
    truth: float
    median_ci_width: float


def coverage_view(table: ReplicationTable, n: int) -> CoverageResult:
    """Fraction of replications at n whose CI, from the table's NPR column of
    ``oracle_specs`` at the table's ``ci_level``, covers its true eta(x0),
    ArgumentError if it has none. The CLT's bias condition needs an
    undersmoothing rule, ``undersmoothed_rule``."""
    if table.truths is None:
        raise ArgumentError("coverage needs the true eta(x0); this table's design has none")
    ci = table.replicates(0, n, oracle_specs()[0].label)[:, 1:]
    ci_lo, ci_hi = ci[~np.isnan(ci[:, 0])].T
    if not ci_lo.size:
        raise NumericError(f"every replication at n={n} hit an empty window")
    truth = float(table.truths[0])
    covered = int(np.sum((ci_lo <= truth) & (truth <= ci_hi)))
    return CoverageResult(coverage=covered / ci_lo.size, level=table.ci_level, n=n,
                          n_used=ci_lo.size, n_excluded=len(ci) - ci_lo.size, truth=truth,
                          median_ci_width=float(np.median(ci_hi - ci_lo)))


def estimate_density_data(estimates: Sequence[float] | NDArray[np.floating],
                          grid: Sequence[float]) -> list[tuple[float, float]]:
    """Kernel density of a replication distribution on a grid.

    Triweight kernel with a Silverman-style bandwidth computed from the
    kernel's own constants; degenerate samples fall back to a nominal width
    so a point mass shows as a narrow spike. A non-finite estimate or grid
    point raises ArgumentError.
    """
    v = np.asarray(estimates, dtype=float).ravel()
    if v.size < 10:
        raise ArgumentError(f"density data needs at least 10 estimates, got {v.size}")
    g = np.asarray(grid, dtype=float).ravel()
    for name, a in (("estimates", v), ("grid points", g)):
        if not all_finite(a):
            raise ArgumentError(f"density {name} must be finite")
    kernel = make_kernel(builtin_profile("triweight_poly3"), 1)
    factor = (8.0 * math.sqrt(math.pi) * kernel.l2_const / (3.0 * kernel.mu2 * kernel.mu2)) ** 0.2
    iqr = float(np.subtract(*np.percentile(v, [75, 25])))
    scale = min(float(np.std(v)), iqr / 1.349) if iqr > 0 else float(np.std(v))
    if scale <= 0:
        scale = 1e-2 * max(1.0, abs(float(v.mean())))
    h = factor * scale * v.size ** -0.2
    dens = _nw_core(kernel, v[:, None], v, g[:, None], h)[0] / (v.size * h)
    return [(float(gi), float(di)) for gi, di in zip(g, dens)]
