"""Input files, run files and manifests, and the real-data prediction workflow.

Everything numeric is serialized as shortest round-trip decimals (Python
repr), so files written here reload bit-exactly and golden outputs are
stable across platforms. The prediction workflow's run files, the points
JSON and the plot CSV, are formatted straight from the NW batch's columns
in row chunks, byte for byte in the layouts of ``json_text`` and
``write_table``. A CSV body is parsed once by numpy's C tokenizer, and row by
row only when that parse cannot be taken as it is.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

from . import reduction
from .errors import ArgumentError, DataError, NumericError
from .kernels import builtin_profile, make_kernel
from .npregress import BandwidthRule, NWBatch, NWConfig, as_float, nw_batch
from .reduction import FIT_METHODS, ReductionBasis
from .simulate import (
    PFC_MAX_D,
    CellStats,
    MethodSpec,
    Model1Config,
    Model2Config,
    oracle_specs,
    run_replications,
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
    dropped_rows: tuple[int, ...] = ()
    # (column, mean) subtracted by each center transform, in order; test
    # rows replay them
    center_shifts: tuple[tuple[str, float], ...] = ()

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_dropped(self) -> int:
        return len(self.dropped_rows)

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


def write_table(path, header: Sequence[str] | None, rows: Sequence[Sequence]) -> None:
    """CSV with shortest round-trip float formatting; no header row for a None header."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        if header is not None:
            w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def json_text(obj) -> str:
    """The JSON layout of every run file: indent 2, sorted keys, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@contextlib.contextmanager
def _open_input(path, role: str, binary: bool = False):
    """The one opener of input files, as UTF-8 text with its line ends kept or
    as bytes: a missing path, one that cannot be opened (a directory, say) and
    a byte that is not UTF-8, read anywhere in the block, raise DataError."""
    try:
        with open(path, "rb") if binary else open(path, newline="", encoding="utf-8") as fh:
            yield fh
    except FileNotFoundError:
        raise DataError(f"{role} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read {role} ({exc.strerror})") from None


def sha256_file(path, role: str = "input file") -> str:
    h = hashlib.sha256()
    with _open_input(path, role, binary=True) as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def _open_csv(path: Path, role: str):
    """The stripped header of a CSV file, read by csv.reader, and the open file
    positioned after it. A repeated column name raises DataError."""
    with _open_input(path, role) as fh:
        try:
            header = [h.strip() for h in next(csv.reader(fh))]
        except StopIteration:
            raise DataError(f"{path}: file is empty, expected a header row") from None
        repeated = next((name for k, name in enumerate(header) if name in header[:k]), None)
        if repeated is not None:
            raise DataError(f"{path}: column {repeated!r} appears more than once in the header")
        yield header, fh


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


def _read_rows(path, fh, header: list[str], transforms,
               skip_bad_rows: bool = False) -> tuple[NDArray[np.floating], list[int]]:
    """The rows x columns matrix of the data rows after the header in fh
    that parse and that every log transform can take, and the 1-based
    numbers of the rows dropped; blank rows are skipped but counted. Logs
    are checked on the values as read, since a log is its column's first
    transform. A bad row is dropped with skip_bad_rows, else its DataError
    is raised."""
    ids, rows, dropped = [], [], []
    for i, raw in enumerate(csv.reader(fh), start=1):
        if not (raw and any(c.strip() for c in raw)):
            continue
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


def _read_body(path, fh, header: list[str], transforms,
               skip_bad_rows: bool = False) -> tuple[NDArray[np.floating], list[int]]:
    """``_read_rows`` of the body after the header in fh, from one
    C-tokenized parse where the body allows it.

    np.loadtxt's matrix is taken only if the body has a row that is not
    blank (loadtxt warns on an empty one), every row has the header's
    width, every value is finite and every log column positive. loadtxt
    reads a cell only as float() does, and rejects the cells that float()
    reads by rules of its own or that csv.reader unquotes (``1_0``, ``"1"``,
    non-ASCII digits), so a matrix taken is the one the csv reader and
    float() give, bit for bit. Any other body is read again from the top by
    ``_read_rows``, which alone names bad rows and columns and drops rows
    for skip_bad_rows.
    """
    first = next((line for line in fh if line.strip()), None)
    if first is not None:
        try:
            mat = np.loadtxt(itertools.chain((first,), fh), delimiter=",", ndmin=2, comments=None)
        except ValueError:
            mat = None
        logs = [header.index(col) for col, op in transforms if op == "log" and col in header]
        if (mat is not None and mat.shape[1] == len(header) and np.isfinite(mat).all()
                and (mat[:, logs] > 0).all()):
            return mat, []
    fh.seek(0)
    next(csv.reader(fh))
    return _read_rows(path, fh, header, transforms, skip_bad_rows)


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
    with _open_csv(path, "input file") as (header, fh):
        if response_col not in header:
            raise DataError(f"{path}: response column {response_col!r} not in header {header}")
        for k, (col, op) in enumerate(transforms):
            if col not in header:
                raise DataError(f"{path}: transform column {col!r} not in header")
            if op not in TRANSFORMS:
                raise ArgumentError(f"unknown transform {op!r}; expected one of {TRANSFORMS}")
            if op == "log" and any(c == col and o != "none" for c, o in transforms[:k]):
                raise ArgumentError(f"log of column {col!r} must come before its other transforms")
        data, dropped = _read_body(path, fh, header, transforms, skip_bad_rows)
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
                   dropped_rows=tuple(sorted(dropped)),
                   center_shifts=shifts)


def load_test_rows(path, dataset: Dataset) -> NDArray[np.floating]:
    """Predictor rows for out-of-sample prediction.

    The file must carry exactly the dataset's predictor columns (any
    order, each once); the dataset's predictor transforms are re-applied in
    order, each center with its recorded training shift. An empty body
    yields a 0-row matrix.
    """
    path = Path(path)
    with _open_csv(path, "test file") as (header, fh):
        if set(header) != set(dataset.column_names):
            raise DataError(
                f"{path}: test columns {header} do not match predictors {list(dataset.column_names)}")
        mat, _ = _read_body(path, fh, header, dataset.transforms)
    _apply_transforms(mat, header, dataset.transforms, dataset.center_shifts)
    return mat[:, [header.index(name) for name in dataset.column_names]]


def read_basis(path) -> ReductionBasis:
    """A basis from its rows, as ``write_table(path, None, basis.matrix)``
    writes them (``reduce``'s basis.csv); a file of blank and ``#`` comment
    lines only, or one that holds no basis, raises DataError naming it."""
    with _open_input(path, "basis file") as fh:
        lines = fh.read().splitlines()
    # np.loadtxt drops what follows a '#', and warns on a file left empty
    if not any(line.partition("#")[0].strip() for line in lines):
        raise DataError(f"{path}: basis file is empty")
    try:
        # not bound in dataio, where the benchmark's tracer would time it as a fit
        return reduction.oracle_basis(np.loadtxt(lines, delimiter=",", ndmin=2))
    except (ValueError, ArgumentError, NumericError) as exc:
        raise DataError(f"{path}: not a basis: {exc}") from exc


def read_options(path) -> dict:
    """An option file's ``key = value`` lines as {key: value}: text after a
    ``#`` and blank lines are skipped, a key's dashes become underscores and
    true/false (any case) become booleans. An empty file holds no options."""
    options = {}
    with _open_input(path, "config file") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}: line {lineno}: expected key=value, got {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            options[key.replace("-", "_")] = {"true": True, "false": False}.get(value.lower(), value)
    return options


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


def _is_json(value, kinds: tuple[type, ...]) -> bool:
    """Whether ``value`` is a JSON ``kinds[0]`` whose entries (an object's
    values) are each of ``kinds[1:]``. An int is an integral number and a
    float a number that converts to a finite float; a bool is neither."""
    kind, entries = kinds[0], kinds[1:]
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:
        return isinstance(value, numbers.Real) and math.isfinite(as_float(value))
    if not isinstance(value, numbers.Integral if kind is int else kind):
        return False
    items = value.values() if isinstance(value, dict) else value
    return not entries or all(_is_json(v, entries) for v in items)


def _need(field: str, value, *kinds: type) -> None:
    """Raise a DataError saying that ``field`` must be of ``kinds`` (see
    ``_is_json``), e.g. (list, str) for a list of strings."""
    if not _is_json(value, kinds):
        names = {dict: "object", list: "list", str: "string", bool: "bool",
                 int: "integer", float: "finite number"}
        head = names[kinds[0]]
        raise DataError(f"{field} must be {'an' if head[0] in 'aeiou' else 'a'} {head}"
                        + "".join(f" of {names[k]}s" for k in kinds[1:]))


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
        records a run of that subcommand. A DataError names the file and the
        first field that is missing or of the wrong shape: the JSON,
        ``config``, ``config.options`` (if given) and ``seeds`` must be
        objects, ``input_digests`` an object of strings and ``outputs`` (if
        given) a list of strings."""
        path = Path(path)
        try:
            with _open_input(path, "manifest") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid manifest JSON ({exc})") from exc

        _need(f"{path}: manifest JSON", raw, dict)
        missing = [k for k in ("tool_version", "command", "config", "seeds", "input_digests")
                   if k not in raw]
        if missing:
            raise DataError(f"{path}: manifest missing field {missing[0]!r}")
        field = f"{path}: manifest field"
        _need(f"{field} 'config'", raw["config"], dict)
        _need(f"{field} 'config.options'", raw["config"].get("options", {}), dict)
        _need(f"{field} 'seeds'", raw["seeds"], dict)
        _need(f"{field} 'input_digests'", raw["input_digests"], dict, str)
        _need(f"{field} 'outputs'", raw.get("outputs", []), list, str)
        manifest = cls(tool_version=raw["tool_version"], command=raw["command"],
                       config=raw["config"], seeds=raw["seeds"],
                       input_digests=raw["input_digests"], outputs=tuple(raw.get("outputs", ())))
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
    test_points: NDArray[np.floating]
    equivalence: bool
    coverage: bool
    coverage_level: float


def simulation_plan_from_config(config: dict) -> SimulationPlan:
    """Rebuild the exact simulation inputs from a simulate config block; fresh
    runs and replays both come here, so a bad plan fails before any file. A
    field that is missing or of the wrong JSON type raises DataError."""
    def field(key: str, *kinds: type, default=None):
        """config[key], or ``default`` where the key is missing, checked to
        be of ``kinds`` (see ``_is_json``)."""
        value = config.get(key, default)
        _need(f"manifest config is incomplete or malformed: field {key!r}", value, *kinds)
        return value

    model, seed, n_rep = field("model", int), field("seed", int), field("n_rep", int)
    ns = tuple(field("ns", list, int))
    method_names = field("methods", list, str)
    coverage_level = float(field("coverage_level", float, default=0.95))
    d = field("d", int, default=1)
    equivalence = field("equivalence", bool, default=False)
    coverage = field("coverage", bool, default=False)
    if config.get("nprt_reduction") is not None:
        field("nprt_reduction", str)
    try:
        rule = BandwidthRule(**field("bandwidth", dict))
        test_points = np.asarray(field("test_points", list, list, float), dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"manifest config is incomplete or malformed: {exc}") from exc
    if model not in MODELS:
        raise DataError(f"manifest config names unknown model {model!r}")
    model_cls, default_reduction = MODELS[model]
    if (equivalence or coverage) and model != 1:
        raise ArgumentError("the equivalence and coverage experiments need model 1 "
                            f"(known truth), got model {model}")
    if coverage and not (0.0 < coverage_level < 1.0):
        raise ArgumentError(f"coverage level must lie in (0, 1), got {coverage_level}")
    nprt_reduction = config.get("nprt_reduction") or default_reduction
    methods = tuple(
        MethodSpec(method=m, reduction=nprt_reduction if m == "nprt" else None, d=d,
                   bandwidth_rule=rule)
        for m in method_names
    )
    model_cfg = model_cls(seed=seed)
    # past these d every replication's fit would fail and leave its cells missing
    fitted = "nprt" in method_names and nprt_reduction in FIT_METHODS[1:]
    if fitted and nprt_reduction == "pfc" and d > PFC_MAX_D:
        raise ArgumentError(f"pfc on the harness's features (y, |y|) gives at most "
                            f"{PFC_MAX_D} directions, got d={d}")
    if fitted and d > model_cfg.p:
        raise ArgumentError(f"{nprt_reduction} needs 1 <= d <= p, got d={d} for model {model} "
                            f"with p={model_cfg.p}")
    # the x0-only columns the views read: NPR for either, NPRT for equivalence
    methods += oracle_specs(nprt_reduction)[:2 if equivalence else int(coverage)]
    return SimulationPlan(model_cfg=model_cfg, methods=methods, ns=ns,
                          n_rep=n_rep, test_points=test_points,
                          equivalence=equivalence, coverage=coverage,
                          coverage_level=coverage_level)


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
    methods = [m for m in plan.methods if not m.x0_only]
    method = method.lower()
    spec = next((m for m in methods if m.method == method), None)
    if spec is None:
        raise ArgumentError(f"method {method!r} not in manifest methods {[m.method for m in methods]}")
    table = run_replications(plan.model_cfg, [spec], [n], plan.test_points, plan.n_rep,
                             n_threads=n_threads)
    return table.cell(point_id, n, spec.label)


def cubic_fy(y):
    """PFC feature map [y, y^2, y^3] of the CLI's pfc fits."""
    return np.column_stack([y, y ** 2, y ** 3])


# write_table's header of the --plot-data file
_PLOT_HEADER = "fitted,observed,ci_lo,ci_hi\r\n"
# query rows formatted at a time by WorkflowResult.run_file_chunks
_CHUNK_ROWS = 1024


@dataclass(frozen=True, eq=False)
class WorkflowResult:
    """The NW batch at the query rows X0, with the observed response at each
    row for in-sample fits (None out of sample). ``run_file_chunks``
    formats the run files straight from the batch's columns.
    """

    batch: NWBatch
    X0: NDArray[np.floating]
    observed: NDArray[np.floating] | None

    def _point(self, i: int) -> dict:
        """Row i's object in the points file: x0 with {eta_hat, ci_lo, ci_hi,
        f_hat, sigma2_hat, h}, or with the row's "error"."""
        b, x0 = self.batch, self.X0[i].tolist()
        if not b.ok[i]:
            return {"x0": x0, "error": b.error(i)}
        return {"x0": x0, "eta_hat": float(b.eta_hat[i]), "ci_lo": float(b.ci_lo[i]),
                "ci_hi": float(b.ci_hi[i]), "f_hat": float(b.f_hat[i]),
                "sigma2_hat": float(b.sigma2_hat[i]), "h": float(b.h)}

    def run_file_chunks(self, plot: bool = True) -> Iterator[tuple[str, str]]:
        """The two run files in pieces of ``_CHUNK_ROWS`` query rows: for each
        piece, its text of json_text of the list of the rows' ``_point``
        objects, and its text of write_table's file of the rows (fitted,
        observed, ci_lo, ci_hi), None for a failed row's numbers and for
        observed out of sample. Joined, the pieces are those files byte for
        byte. With ``plot`` False the plot pieces are left empty, unformatted.

        Each float is repr'd once for both files, and h once for all rows.
        An ok row with finite numbers fills one JSON template; any other
        row is its point's json_text indented one level, which is exact
        because JSON strings hold no raw newline. No plot cell needs
        quoting.
        """
        b, m = self.batch, len(self.batch)
        if m == 0:
            yield "[]\n", _PLOT_HEADER if plot else ""
            return
        h = float(b.h)
        template = ('{\n    "ci_hi": %s,\n    "ci_lo": %s,\n    "eta_hat": %s,\n    "f_hat": %s,\n'
                    f'    "h": {h!r},\n    "sigma2_hat": %s,\n    "x0": [\n      '
                    + ",\n      ".join(["%s"] * self.X0.shape[1]) + "\n    ]\n  }")
        for s in range(0, m, _CHUNK_ROWS):
            e = min(s + _CHUNK_ROWS, m)
            ok = b.ok[s:e]
            cols = np.vstack([b.ci_hi[s:e], b.ci_lo[s:e], b.eta_hat[s:e], b.f_hat[s:e],
                              b.sigma2_hat[s:e], self.X0[s:e].T])
            fast = ok & np.isfinite(cols).all(axis=0) & math.isfinite(h)
            text = [list(map(repr, c)) for c in cols.tolist()]
            items = [template % row if f else json_text(self._point(i))[:-1].replace("\n", "\n  ")
                     for i, (f, row) in enumerate(zip(fast.tolist(), zip(*text)), start=s)]
            points = ("[\n  " if s == 0 else ",\n  ") + ",\n  ".join(items) + ("\n]\n" if e == m else "")
            if not plot:
                yield points, ""
                continue
            hi, lo, eta = text[:3]
            obs = [""] * (e - s) if self.observed is None else list(map(repr, self.observed[s:e].tolist()))
            yield points, (_PLOT_HEADER if s == 0 else "") + "".join(
                f"{y},{o},{a},{z}\r\n" if k else f",{o},,\r\n"
                for k, y, o, a, z in zip(ok.tolist(), eta, obs, lo, hi))


def run_predict_workflow(dataset: Dataset, basis: ReductionBasis,
                         kernel_profile: str = "triweight_poly3",
                         bandwidth_rule: BandwidthRule | None = None,
                         test_rows: NDArray[np.floating] | None = None,
                         ci_level: float = 0.95,
                         allow_nonsmooth_kernel: bool = False) -> WorkflowResult:
    """Nadaraya-Watson with confidence intervals on the reduced coordinates
    of ``basis``, fitted or read by the caller (the identity for no
    reduction).

    Args:
        test_rows: m x p matrix of prediction points, m >= 0; None means
            in-sample fitted values at every data row.

    Returns:
        WorkflowResult holding the NWBatch at the query rows (failed rows
        carry their error), the rows, and the observed responses in
        sample; its ``run_file_chunks`` formats the points JSON and the
        plot CSV.

    Raises:
        ArgumentError: from ``nw_batch``, also for m = 0, a basis or test
            rows not p wide, a bandwidth that cannot be resolved, a
            non-smooth kernel.
    """
    X, Y = dataset.X, dataset.Y
    rule = bandwidth_rule if bandwidth_rule is not None else BandwidthRule(kind="power_rule")
    kernel = make_kernel(builtin_profile(kernel_profile), basis.d)
    config = NWConfig(kernel=kernel, bandwidth=rule, ci_level=ci_level,
                      allow_nonsmooth_kernel=allow_nonsmooth_kernel)

    in_sample = test_rows is None
    X0 = X if in_sample else np.atleast_2d(np.asarray(test_rows, dtype=float))
    batch = nw_batch(config, basis, X, Y, X0)
    return WorkflowResult(batch=batch, X0=X0, observed=Y if in_sample else None)
