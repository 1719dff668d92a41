"""CSV ingestion, run manifests, and the real-data prediction workflow.

Everything numeric is serialized as shortest round-trip decimals (Python
repr), so files written here reload bit-exactly and golden outputs are
stable across platforms.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ArgumentError, DataError
from .kernels import builtin_profile, make_kernel
from .npregress import BandwidthRule, NWConfig, nw_batch
from .reduction import FIT_METHODS, fit
from .simulate import (
    PFC_MAX_D,
    CellStats,
    MethodSpec,
    Model1Config,
    Model2Config,
    recompute_cell,
)

TRANSFORMS = ("none", "log", "center")


@dataclass(frozen=True)
class Dataset:
    """Numeric design matrix plus response, with per-column transforms applied."""

    column_names: tuple[str, ...]
    response_name: str
    X: NDArray[np.floating]
    Y: NDArray[np.floating]
    transforms: tuple[tuple[str, str], ...] = ()
    n_dropped: int = 0
    dropped_rows: tuple[int, ...] = ()
    # means subtracted by center transforms, so test rows can be shifted
    # identically
    center_shifts: tuple[tuple[str, float], ...] = ()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


def _fmt(x) -> str:
    # floats first: nearly every cell is one
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def write_table(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """CSV with shortest round-trip float formatting."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def json_text(obj) -> str:
    """The JSON layout of every run file: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _csv_rows(path: Path, kind: str):
    """The stripped header of a CSV file, and (1-based data row number,
    cells) for each row that is not blank."""
    if not path.exists():
        raise DataError(f"{kind} file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        yield header, ((i, raw) for i, raw in enumerate(reader, start=1)
                       if raw and any(c.strip() for c in raw))


def _parse_row(path, i: int, header: list[str], raw: list[str]) -> list[float]:
    """The numbers of data row i; DataError names the row and the column."""
    if len(raw) != len(header):
        raise DataError(f"{path}: row {i} has {len(raw)} cells, header has {len(header)}")
    vals = []
    for name, cell in zip(header, raw):
        try:
            v = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: row {i}, column {name!r}: cannot parse {cell.strip()!r} as a number") from None
        if not math.isfinite(v):
            raise DataError(f"{path}: row {i}, column {name!r}: non-finite value {cell.strip()!r}")
        vals.append(v)
    return vals


def load_csv(path, response_col: str,
             transforms: Sequence[tuple[str, str]] | None = None,
             skip_bad_rows: bool = False) -> Dataset:
    """Parse a headered numeric CSV into a Dataset.

    Args:
        transforms: (column, op) pairs applied in order; op in TRANSFORMS.
        skip_bad_rows: drop rows with unparseable or non-finite cells (and
            rows a log transform cannot accept) instead of failing.

    Raises:
        DataError: missing file/column, bad cell, log of a non-positive
            value; messages carry 1-based data row numbers and column names.
    """
    path = Path(path)
    transforms = tuple(transforms or ())
    with _csv_rows(path, "input") as (header, data_rows):
        if response_col not in header:
            raise DataError(f"{path}: response column {response_col!r} not in header {header}")
        for col, op in transforms:
            if col not in header:
                raise DataError(f"{path}: transform column {col!r} not in header")
            if op not in TRANSFORMS:
                raise ArgumentError(f"unknown transform {op!r}; expected one of {TRANSFORMS}")
        rows = []
        dropped = []
        for i, raw in data_rows:
            try:
                rows.append((i, _parse_row(path, i, header, raw)))
            except DataError:
                if not skip_bad_rows:
                    raise
                dropped.append(i)

    # log must be checked per surviving row before any arithmetic
    col_idx = {name: j for j, name in enumerate(header)}
    for col, op in transforms:
        if op != "log":
            continue
        j = col_idx[col]
        kept = []
        for i, vals in rows:
            if vals[j] <= 0:
                if skip_bad_rows:
                    dropped.append(i)
                    continue
                raise DataError(
                    f"{path}: row {i}, column {col!r}: log of non-positive value {vals[j]!r}")
            kept.append((i, vals))
        rows = kept

    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 usable rows, got {len(rows)}")
    data = np.array([vals for _, vals in rows], dtype=float)
    raw_means = {}
    for col, op in transforms:
        j = col_idx[col]
        if op == "log":
            data[:, j] = np.log(data[:, j])
        elif op == "center":
            raw_means[col] = data[:, j].mean()
            data[:, j] = data[:, j] - raw_means[col]

    y_j = col_idx[response_col]
    pred_names = tuple(name for name in header if name != response_col)
    pred_js = [col_idx[name] for name in pred_names]
    if not pred_js:
        raise DataError(f"{path}: no predictor columns besides the response")
    shifts = []
    for col, op in transforms:
        if op == "center":
            shifts.append((col, float(raw_means[col])))
    return Dataset(column_names=pred_names, response_name=response_col,
                   X=data[:, pred_js], Y=data[:, y_j], transforms=transforms,
                   n_dropped=len(dropped), dropped_rows=tuple(sorted(dropped)),
                   center_shifts=tuple(shifts))


def load_test_rows(path, dataset: Dataset) -> NDArray[np.floating]:
    """Predictor rows for out-of-sample prediction.

    The file must carry exactly the dataset's predictor columns (any
    order); the dataset's predictor transforms are re-applied, with center
    shifts taken from the training data. An empty body yields a 0-row
    matrix.
    """
    path = Path(path)
    with _csv_rows(path, "test") as (header, data_rows):
        if set(header) != set(dataset.column_names):
            raise DataError(
                f"{path}: test columns {header} do not match predictors {list(dataset.column_names)}")
        rows = [_parse_row(path, i, header, raw) for i, raw in data_rows]
    order = [header.index(name) for name in dataset.column_names]
    mat = np.array(rows, dtype=float).reshape(len(rows), len(header))[:, order] \
        if rows else np.empty((0, dataset.p))
    shifts = dict(dataset.center_shifts)
    col_of = {name: j for j, name in enumerate(dataset.column_names)}
    for col, op in dataset.transforms:
        if col not in col_of:
            continue  # response transform does not apply to predictor rows
        j = col_of[col]
        if op == "log":
            bad = np.nonzero(mat[:, j] <= 0)[0]
            if bad.size:
                raise DataError(
                    f"{path}: row {bad[0] + 1}, column {col!r}: log of non-positive value")
            mat[:, j] = np.log(mat[:, j])
        elif op == "center":
            mat[:, j] = mat[:, j] - shifts[col]
    return mat


def synthetic_shellfish(n: int = 79, seed: int = 8671):
    """Morphometric lookalike: 4 positive size measurements and a positive
    muscle-mass response, all driven by one latent size factor.

    Returns (header, rows) ready for write_table; the default seed is the
    recorded fixture seed.
    """
    rng = np.random.default_rng(seed)
    s = rng.normal(0.0, 1.0, n)
    # measurement noise 0.25 keeps the columns informative but far enough
    # from collinear that full-space windows are thinner than reduced ones
    length = np.exp(5.3 + 0.18 * s + rng.normal(0, 0.25, n))
    width = np.exp(4.2 + 0.16 * s + rng.normal(0, 0.25, n))
    height = np.exp(3.6 + 0.20 * s + rng.normal(0, 0.25, n))
    shell_mass = np.exp(3.4 + 0.55 * s + rng.normal(0, 0.25, n))
    muscle_mass = np.exp(2.5 + 0.65 * s + rng.normal(0, 0.12, n))
    header = ["length", "width", "height", "shell_mass", "muscle_mass"]
    rows = list(zip(length, width, height, shell_mass, muscle_mass))
    return header, rows


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a CLI run byte-identically."""

    tool_version: str
    command: str
    config: dict
    seeds: dict
    input_digests: dict
    outputs: tuple[str, ...] = ()

    def to_json_file(self, path) -> None:
        Path(path).write_text(json_text(asdict(self)))

    @classmethod
    def from_json_file(cls, path, command: str | None = None) -> "RunManifest":
        """Load a manifest; with ``command``, raise ArgumentError unless it
        records a run of that subcommand."""
        path = Path(path)
        if not path.exists():
            raise DataError(f"manifest not found: {path}")
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: invalid manifest JSON ({exc})") from exc
        try:
            manifest = cls(tool_version=raw["tool_version"], command=raw["command"],
                           config=raw["config"], seeds=raw["seeds"],
                           input_digests=raw["input_digests"],
                           outputs=tuple(raw.get("outputs", ())))
        except KeyError as exc:
            raise DataError(f"{path}: manifest missing field {exc}") from exc
        if command is not None and manifest.command != command:
            raise ArgumentError(f"manifest records a {manifest.command!r} run, not {command!r}")
        return manifest


@dataclass(frozen=True)
class SimulationPlan:
    """Deserialized simulate configuration, ready to hand to the harness."""

    model_cfg: Model1Config | Model2Config
    methods: tuple[MethodSpec, ...]
    ns: tuple[int, ...]
    n_rep: int
    base_seed: int
    bandwidth_rule: BandwidthRule
    test_points: NDArray[np.floating]
    config: dict


def simulation_plan_from_config(config: dict) -> SimulationPlan:
    """Rebuild the exact simulation inputs from a manifest config block."""
    try:
        model = int(config["model"])
        seed = int(config["seed"])
        ns = tuple(int(n) for n in config["ns"])
        n_rep = int(config["n_rep"])
        method_names = list(config["methods"])
        rule = BandwidthRule(**config["bandwidth"])
        test_points = np.asarray(config["test_points"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"manifest config is incomplete or malformed: {exc}") from exc
    if model == 1:
        cfg = Model1Config(seed=seed)
    elif model == 2:
        cfg = Model2Config(seed=seed)
    else:
        raise DataError(f"manifest config names unknown model {model!r}")
    d = int(config.get("d", 1))
    nprt_reduction = config.get("nprt_reduction") or ("pls" if model == 1 else "pfc")
    methods = tuple(
        MethodSpec(method=m, reduction=nprt_reduction if m == "nprt" else None, d=d)
        for m in method_names
    )
    if d > PFC_MAX_D and any(spec.reduction == "pfc" for spec in methods):
        # every replication's fit would fail and leave its cells missing
        raise ArgumentError(f"pfc on the harness's features (y, |y|) gives at most "
                            f"{PFC_MAX_D} directions, got d={d}")
    return SimulationPlan(model_cfg=cfg, methods=methods, ns=ns, n_rep=n_rep,
                          base_seed=seed, bandwidth_rule=rule,
                          test_points=test_points, config=dict(config))


def recompute_cell_from_manifest(manifest: RunManifest | str | Path,
                                 point_id: int, n: int, method: str,
                                 n_threads: int = 1) -> CellStats:
    """Recompute one replication-table cell from a simulate manifest.

    Bit-identical to the cell the original run wrote, at any thread count.
    A manifest file must record a simulate run.
    """
    if not isinstance(manifest, RunManifest):
        manifest = RunManifest.from_json_file(manifest, command="simulate")
    plan = simulation_plan_from_config(manifest.config)
    method = method.lower()
    spec = next((m for m in plan.methods if m.method == method), None)
    if spec is None:
        raise ArgumentError(f"method {method!r} not in manifest methods {[m.method for m in plan.methods]}")
    return recompute_cell(plan.model_cfg, spec, plan.test_points, point_id=point_id,
                          n=n, n_rep=plan.n_rep, base_seed=plan.base_seed,
                          bandwidth_rule=plan.bandwidth_rule, n_threads=n_threads)


def cubic_fy(y):
    """PFC feature map [y, y^2, y^3] of the CLI and the prediction workflow."""
    return np.column_stack([y, y ** 2, y ** 3])


@dataclass(frozen=True)
class WorkflowResult:
    points: tuple[dict, ...]
    plot_rows: tuple[tuple, ...]
    method: str
    d: int
    h_rule: BandwidthRule
    basis_matrix: NDArray[np.floating]

    @property
    def n_failed(self) -> int:
        return sum(1 for pt in self.points if pt.get("error"))


def run_predict_workflow(dataset: Dataset, method: str = "pls", d: int = 1,
                         kernel_profile: str = "triweight_poly3",
                         bandwidth_rule: BandwidthRule | None = None,
                         test_rows: NDArray[np.floating] | None = None,
                         ci_level: float = 0.95,
                         allow_nonsmooth_kernel: bool = False,
                         precomputed_basis=None) -> WorkflowResult:
    """Reduce, fit, and predict with confidence intervals.

    Args:
        method: "np" (no reduction, full dimension) or "pls"/"pfc"/"sir";
            pfc uses the feature map ``cubic_fy``.
        test_rows: m x p matrix of prediction points; None means in-sample
            fitted values at every data row.
        precomputed_basis: a ReductionBasis to use instead of fitting one
            (e.g. loaded from a file); overrides ``method``.

    Returns:
        WorkflowResult whose ``points`` are JSON-ready dicts {x0, eta_hat,
        ci_lo, ci_hi, f_hat, sigma2_hat, h} (an "error" key replaces the
        numbers for empty windows) and whose ``plot_rows`` are
        (fitted, observed, ci_lo, ci_hi) tuples; observed is None for
        out-of-sample points.
    """
    X, Y = dataset.X, dataset.Y
    p = dataset.p
    if precomputed_basis is not None:
        if precomputed_basis.p != p:
            raise ArgumentError(
                f"basis expects p={precomputed_basis.p} columns, data has {p}")
        basis = precomputed_basis
        method = "file"
    else:
        if method not in FIT_METHODS:
            raise ArgumentError(f"unknown workflow method {method!r}; expected np, pls, pfc, or sir")
        if method != "np" and not (1 <= d < p):
            raise ArgumentError(f"need 1 <= d < p for method {method!r}, got d={d}, p={p}")
        basis = fit(method, X, Y, d, fy=cubic_fy)
    dim = basis.d

    rule = bandwidth_rule if bandwidth_rule is not None else \
        BandwidthRule(kind="power_rule", constant=1.0, exponent_dim="ambient_p")
    kernel = make_kernel(builtin_profile(kernel_profile), dim)
    config = NWConfig(kernel=kernel, bandwidth=rule, d=dim, ci_level=ci_level,
                      allow_nonsmooth_kernel=allow_nonsmooth_kernel)

    in_sample = test_rows is None
    X0 = X if in_sample else np.atleast_2d(np.asarray(test_rows, dtype=float))
    if X0.shape[0] == 0:
        return WorkflowResult(points=(), plot_rows=(), method=method, d=dim,
                              h_rule=rule, basis_matrix=basis.matrix)
    if X0.shape[1] != p:
        raise ArgumentError(f"test rows have {X0.shape[1]} columns, data has p={p}")

    points = []
    plot_rows = []
    x0_lists = X0.astype(float, copy=False).tolist()
    for res in nw_batch(config, basis, X, Y, X0):
        x0_list = x0_lists[res.index]
        observed = float(Y[res.index]) if in_sample else None
        if res.ok:
            f = res.fit
            points.append({"x0": x0_list, "eta_hat": f.eta_hat, "ci_lo": f.ci_lo,
                           "ci_hi": f.ci_hi, "f_hat": f.f_hat,
                           "sigma2_hat": f.sigma2_hat, "h": f.h_used})
            plot_rows.append((f.eta_hat, observed, f.ci_lo, f.ci_hi))
        else:
            points.append({"x0": x0_list, "error": res.error})
            plot_rows.append((None, observed, None, None))
    return WorkflowResult(points=tuple(points), plot_rows=tuple(plot_rows),
                          method=method, d=dim, h_rule=rule, basis_matrix=basis.matrix)
