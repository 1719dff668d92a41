"""CSV ingestion, run manifests, and the real-data prediction workflow.

Everything numeric is serialized as shortest round-trip decimals (Python
repr), so files written here reload bit-exactly and golden outputs are
stable across platforms. The prediction workflow's run files, the points
JSON and the plot CSV, are formatted straight from the NW batch's columns,
byte for byte in the layouts of ``json_text`` and ``write_table``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ArgumentError, DataError
from .kernels import builtin_profile, make_kernel
from .npregress import BandwidthRule, NWBatch, NWConfig, nw_batch
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
# simulate's model numbers: each one's configuration and default NPRT reduction
MODELS = {1: (Model1Config, "pls"), 2: (Model2Config, "pfc")}


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
    # (column, mean) subtracted by each center transform, in order; test
    # rows replay them
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
    cells) for each row that is not blank. A repeated column name raises
    DataError."""
    if not path.exists():
        raise DataError(f"{kind} file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        repeated = next((name for k, name in enumerate(header) if name in header[:k]), None)
        if repeated is not None:
            raise DataError(f"{path}: column {repeated!r} appears more than once in the header")
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


def _read_rows(path, header: list[str], data_rows, transforms,
               skip_bad_rows: bool = False) -> tuple[NDArray[np.floating], list[int]]:
    """The rows x columns matrix of the data rows that parse and that every
    log transform can take, and the numbers of the rows dropped. Logs are
    checked on the values as read, since a log is its column's first
    transform. A bad row is dropped with skip_bad_rows, else its DataError
    is raised."""
    ids, rows, dropped = [], [], []
    for i, raw in data_rows:
        try:
            rows.append(_parse_row(path, i, header, raw))
            ids.append(i)
        except DataError:
            if not skip_bad_rows:
                raise
            dropped.append(i)
    mat = np.array(rows, dtype=float).reshape(len(rows), len(header))
    col_of = {name: j for j, name in enumerate(header)}
    keep = np.ones(len(rows), dtype=bool)
    for col, op in transforms:
        if op != "log" or col not in col_of:
            continue  # the response's log does not apply to test rows
        bad = keep & (mat[:, col_of[col]] <= 0)
        if bad.any() and not skip_bad_rows:
            k = np.flatnonzero(bad)[0]
            raise DataError(f"{path}: row {ids[k]}, column {col!r}: "
                            f"log of non-positive value {float(mat[k, col_of[col]])!r}")
        keep &= ~bad
    dropped += [i for i, ok in zip(ids, keep) if not ok]
    return mat[keep], dropped


def _apply_transforms(mat, columns: Sequence[str], transforms,
                      shifts: Sequence[tuple[str, float]] | None = None) -> tuple:
    """Apply (column, op) pairs in order to mat's named columns, in place.

    Each center subtracts its column's mean, or with ``shifts`` the next
    recorded (column, shift) in order, so test rows get exactly the training
    rows' shifts. An op on a column mat lacks (the response, on test rows)
    only consumes its shift. Returns the (column, shift) of each center.
    """
    col_of = {name: j for j, name in enumerate(columns)}
    used = []
    for col, op in transforms:
        j = col_of.get(col)
        if op == "log" and j is not None:
            mat[:, j] = np.log(mat[:, j])
        elif op == "center":
            shift = shifts[len(used)][1] if shifts is not None else float(mat[:, j].mean())
            used.append((col, shift))
            if j is not None:
                mat[:, j] = mat[:, j] - shift
    return tuple(used)


def load_csv(path, response_col: str,
             transforms: Sequence[tuple[str, str]] | None = None,
             skip_bad_rows: bool = False) -> Dataset:
    """Parse a headered numeric CSV into a Dataset.

    Args:
        transforms: (column, op) pairs applied in order; op in TRANSFORMS.
            A log must be its column's first transform (none aside).
        skip_bad_rows: drop rows with unparseable or non-finite cells (and
            rows a log transform cannot accept) instead of failing.

    Raises:
        ArgumentError: unknown op, or a log after another transform of its
            column.
        DataError: missing file/column, repeated column name, bad cell, log
            of a non-positive value; messages carry 1-based data row numbers
            and column names.
    """
    path = Path(path)
    transforms = tuple(transforms or ())
    with _csv_rows(path, "input") as (header, data_rows):
        if response_col not in header:
            raise DataError(f"{path}: response column {response_col!r} not in header {header}")
        for k, (col, op) in enumerate(transforms):
            if col not in header:
                raise DataError(f"{path}: transform column {col!r} not in header")
            if op not in TRANSFORMS:
                raise ArgumentError(f"unknown transform {op!r}; expected one of {TRANSFORMS}")
            if op == "log" and any(c == col and o != "none" for c, o in transforms[:k]):
                raise ArgumentError(f"log of column {col!r} must come before its other transforms")
        data, dropped = _read_rows(path, header, data_rows, transforms, skip_bad_rows)
    if data.shape[0] < 2:
        raise DataError(f"{path}: need at least 2 usable rows, got {data.shape[0]}")
    shifts = _apply_transforms(data, header, transforms)

    col_idx = {name: j for j, name in enumerate(header)}
    y_j = col_idx[response_col]
    pred_names = tuple(name for name in header if name != response_col)
    pred_js = [col_idx[name] for name in pred_names]
    if not pred_js:
        raise DataError(f"{path}: no predictor columns besides the response")
    return Dataset(column_names=pred_names, response_name=response_col,
                   X=data[:, pred_js], Y=data[:, y_j], transforms=transforms,
                   n_dropped=len(dropped), dropped_rows=tuple(sorted(dropped)),
                   center_shifts=shifts)


def load_test_rows(path, dataset: Dataset) -> NDArray[np.floating]:
    """Predictor rows for out-of-sample prediction.

    The file must carry exactly the dataset's predictor columns (any
    order, each once); the dataset's predictor transforms are re-applied in
    order, each center with its recorded training shift. An empty body
    yields a 0-row matrix.
    """
    path = Path(path)
    with _csv_rows(path, "test") as (header, data_rows):
        if set(header) != set(dataset.column_names):
            raise DataError(
                f"{path}: test columns {header} do not match predictors {list(dataset.column_names)}")
        mat, _ = _read_rows(path, header, data_rows, dataset.transforms)
    _apply_transforms(mat, header, dataset.transforms, dataset.center_shifts)
    return mat[:, [header.index(name) for name in dataset.column_names]]


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
    """Deserialized simulate configuration, checked and ready to hand to the harness."""

    model_cfg: Model1Config | Model2Config
    methods: tuple[MethodSpec, ...]
    ns: tuple[int, ...]
    n_rep: int
    base_seed: int
    bandwidth_rule: BandwidthRule
    test_points: NDArray[np.floating]
    equivalence: bool
    coverage: bool
    coverage_level: float


def simulation_plan_from_config(config: dict) -> SimulationPlan:
    """Rebuild the exact simulation inputs from a simulate config block; fresh
    runs and replays both come here, so a bad plan fails before any file."""
    try:
        model = int(config["model"])
        seed = int(config["seed"])
        ns = tuple(int(n) for n in config["ns"])
        n_rep = int(config["n_rep"])
        method_names = list(config["methods"])
        rule = BandwidthRule(**config["bandwidth"])
        test_points = np.asarray(config["test_points"], dtype=float)
        coverage_level = float(config.get("coverage_level", 0.95))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"manifest config is incomplete or malformed: {exc}") from exc
    if model not in MODELS:
        raise DataError(f"manifest config names unknown model {model!r}")
    model_cls, default_reduction = MODELS[model]
    equivalence, coverage = bool(config.get("equivalence")), bool(config.get("coverage"))
    if (equivalence or coverage) and model != 1:
        raise ArgumentError("the equivalence and coverage experiments need model 1 "
                            f"(known truth), got model {model}")
    if coverage and not (0.0 < coverage_level < 1.0):
        raise ArgumentError(f"coverage level must lie in (0, 1), got {coverage_level}")
    d = int(config.get("d", 1))
    nprt_reduction = config.get("nprt_reduction") or default_reduction
    methods = tuple(
        MethodSpec(method=m, reduction=nprt_reduction if m == "nprt" else None, d=d)
        for m in method_names
    )
    if d > PFC_MAX_D and any(spec.reduction == "pfc" for spec in methods):
        # every replication's fit would fail and leave its cells missing
        raise ArgumentError(f"pfc on the harness's features (y, |y|) gives at most "
                            f"{PFC_MAX_D} directions, got d={d}")
    return SimulationPlan(model_cfg=model_cls(seed=seed), methods=methods, ns=ns,
                          n_rep=n_rep, base_seed=seed, bandwidth_rule=rule,
                          test_points=test_points, equivalence=equivalence,
                          coverage=coverage, coverage_level=coverage_level)


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


# json_text's layout of one ok point inside the points list; the x0 entries
# follow, then _POINT_TAIL
_POINT_HEAD = ('{\n    "ci_hi": %r,\n    "ci_lo": %r,\n    "eta_hat": %r,\n    "f_hat": %r,\n'
               '    "h": %r,\n    "sigma2_hat": %r,\n    "x0": [\n      ')
_POINT_TAIL = "\n    ]\n  }"


@dataclass(frozen=True, eq=False)
class WorkflowResult:
    """The NW batch at the query rows X0, with the observed response at each
    row for in-sample fits (None out of sample).

    ``points`` and ``plot_rows`` are built from the batch when first read;
    ``points_json`` and ``plot_csv`` format the run files straight from its
    columns.
    """

    batch: NWBatch
    X0: NDArray[np.floating]
    observed: NDArray[np.floating] | None
    basis_matrix: NDArray[np.floating]

    def _point(self, i: int) -> dict:
        x0, res = self.X0[i].tolist(), self.batch[i]
        if not res.ok:
            return {"x0": x0, "error": res.error}
        f = res.fit
        return {"x0": x0, "eta_hat": f.eta_hat, "ci_lo": f.ci_lo, "ci_hi": f.ci_hi,
                "f_hat": f.f_hat, "sigma2_hat": f.sigma2_hat, "h": f.h_used}

    def _observed(self) -> list:
        return [None] * len(self.batch) if self.observed is None else self.observed.tolist()

    @cached_property
    def points(self) -> tuple[dict, ...]:
        return tuple(map(self._point, range(len(self.batch))))

    @cached_property
    def plot_rows(self) -> tuple[tuple, ...]:
        return tuple((r.fit.eta_hat, o, r.fit.ci_lo, r.fit.ci_hi) if r.ok else (None, o, None, None)
                     for r, o in zip(self.batch, self._observed()))

    @property
    def n_failed(self) -> int:
        return int(np.count_nonzero(~self.batch.ok))

    def points_json(self) -> str:
        """``json_text(list(self.points))``, byte for byte. Each ok row with
        finite numbers fills one %r template; any other row is its point's
        json_text indented one level, which is exact because JSON strings
        hold no raw newline."""
        b = self.batch
        cols = np.vstack([b.ci_hi, b.ci_lo, b.eta_hat, b.f_hat, np.full(len(b), b.h),
                          b.sigma2_hat, self.X0.T])
        fast = b.ok & np.isfinite(cols).all(axis=0)
        template = _POINT_HEAD + ",\n      ".join(["%r"] * self.X0.shape[1]) + _POINT_TAIL
        items = [template % row if ok else json_text(self._point(i))[:-1].replace("\n", "\n  ")
                 for i, (ok, row) in enumerate(zip(fast.tolist(), zip(*cols.tolist())))]
        return "[\n  " + ",\n  ".join(items) + "\n]\n" if items else "[]\n"

    def plot_csv(self) -> str:
        """write_table's file of ``plot_rows`` under the header fitted,
        observed, ci_lo, ci_hi, byte for byte (no cell needs quoting)."""
        b = self.batch
        rows = zip(b.ok.tolist(), b.eta_hat.tolist(), map(_fmt, self._observed()),
                   b.ci_lo.tolist(), b.ci_hi.tolist())
        return "fitted,observed,ci_lo,ci_hi\r\n" + "".join(
            "%r,%s,%r,%r\r\n" % row[1:] if row[0] else ",%s,,\r\n" % row[2] for row in rows)


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
        batch = NWBatch(dataset.n, math.nan, np.zeros(0, dtype=bool), *np.empty((6, 0)), {})
    elif X0.shape[1] != p:
        raise ArgumentError(f"test rows have {X0.shape[1]} columns, data has p={p}")
    else:
        batch = nw_batch(config, basis, X, Y, X0)
    return WorkflowResult(batch=batch, X0=X0, observed=Y if in_sample else None,
                          basis_matrix=basis.matrix)
