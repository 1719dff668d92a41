"""Command line interface.

Subcommands: kernel-check, reduce, fit, predict, simulate. Every run that
writes an --out directory also writes a manifest.json there; re-running
with --from-manifest reproduces the numeric outputs byte-identically.
Exit codes: 0 ok, 2 argument error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .dataio import (
    RunManifest,
    bandwidth_rule_to_dict,
    cubic_fy,
    load_csv,
    load_test_rows,
    run_predict_workflow,
    sha256_file,
    simulation_plan_from_config,
    write_table,
)
from .errors import ArgumentError, DataError, RednwError
from .kernels import (
    BUILTIN_PROFILES,
    KernelProfile,
    builtin_profile,
    make_kernel,
    validate_conditions,
)
from .npregress import BANDWIDTH_KINDS, EXPONENT_DIMS, BandwidthRule
from .reduction import FIT_METHODS, fit, oracle_basis
from .simulate import (
    METHOD_NAMES,
    NPRT_REDUCTIONS,
    Model1Config,
    Model2Config,
    coverage_experiment,
    default_bandwidth_rule,
    draw_test_points,
    equivalence_experiment,
    estimate_density_data,
    run_replications,
    undersmoothed_rule,
)

__all__ = ["main"]

# reduce fits a proper reduction; fit and predict also accept "np"
_REDUCE_METHODS = FIT_METHODS[1:]


def _csv_list(value, conv=str) -> list:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [conv(v) for v in value]
    return [conv(v.strip()) for v in str(value).split(",") if v.strip()]


def _parse_transforms(value) -> list[tuple[str, str]]:
    out = []
    for item in _csv_list(value):
        if "=" not in item:
            raise ArgumentError(f"transform must look like column=op, got {item!r}")
        col, op = item.split("=", 1)
        out.append((col.strip(), op.strip()))
    return out


def _coerce(text: str):
    low = text.strip()
    if low.lower() in ("true", "yes"):
        return True
    if low.lower() in ("false", "no"):
        return False
    try:
        return int(low)
    except ValueError:
        pass
    try:
        return float(low)
    except ValueError:
        return low


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    # flat key=value lines mirroring long flag names; explicit CLI flags win
    path = getattr(args, "config", None)
    if not path:
        return
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            raise ArgumentError(f"{path}: line {lineno}: unknown option {key!r}")
        flag = "--" + key.replace("_", "-")
        explicit = any(a == flag or a.startswith(flag + "=") for a in argv)
        if not explicit:
            setattr(args, dest, _coerce(value))


def _rule_from_args(args, default_rule: BandwidthRule | None = None) -> BandwidthRule:
    touched = any(getattr(args, k, None) is not None
                  for k in ("bandwidth_kind", "bandwidth_constant", "exponent_dim",
                            "exponent", "h", "cv_grid"))
    if not touched and default_rule is not None:
        return default_rule
    kind = args.bandwidth_kind or "power_rule"
    return BandwidthRule(
        kind=kind,
        constant=args.bandwidth_constant if args.bandwidth_constant is not None else 1.0,
        exponent_dim=args.exponent_dim or "ambient_p",
        h_fixed=args.h,
        cv_grid=tuple(_csv_list(args.cv_grid, float)) or None,
        exponent=args.exponent,
    )


def _write_matrix(path, matrix) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in np.atleast_2d(matrix):
            w.writerow([repr(float(v)) for v in row])


# ---------------------------------------------------------------- kernel-check

def _cmd_kernel_check(args) -> int:
    if args.custom_poly:
        coeffs = _csv_list(args.custom_poly, float)
        radius = float(args.support_radius)

        def raw(t, _c=tuple(coeffs), _r=radius):
            t = np.asarray(t, dtype=float)
            vals = np.polynomial.polynomial.polyval(t, _c)
            return np.where(t <= _r, vals, 0.0)

        profile = KernelProfile(name="custom", raw_profile=raw, support_radius=radius,
                                smoothness_order=int(args.smoothness_order))
    else:
        profile = builtin_profile(args.profile)
    kernel = make_kernel(profile, args.dim)
    report = validate_conditions(kernel).to_json_dict()
    report["profile"] = profile.name
    report["dim"] = args.dim
    print(json.dumps(report, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "kernel_check.json", "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


# --------------------------------------------------------------------- reduce

def _snapshot(args, keys) -> dict:
    # fit and predict share one handler and key list but not every flag:
    # options a subcommand does not expose are recorded as None
    return {k: getattr(args, k, None) for k in keys}


def _restore_from_manifest(args) -> None:
    manifest = RunManifest.from_json_file(args.from_manifest)
    if manifest.command != args.command:
        raise ArgumentError(
            f"manifest records a {manifest.command!r} run, not {args.command!r}")
    for key, value in manifest.config.get("options", {}).items():
        setattr(args, key, value)
    for path, digest in manifest.input_digests.items():
        if not Path(path).exists():
            raise DataError(f"manifest input {path} no longer exists")
        if sha256_file(path) != digest:
            raise DataError(
                f"manifest input {path} has changed since the recorded run "
                f"(digest mismatch); outputs would not reproduce")


_REDUCE_KEYS = ("input", "response", "method", "d", "transform", "skip_bad_rows",
                "ridge", "slices", "seed")


def _cmd_reduce(args) -> int:
    if args.from_manifest:
        _restore_from_manifest(args)
    ds = load_csv(args.input, args.response,
                  transforms=_parse_transforms(args.transform),
                  skip_bad_rows=args.skip_bad_rows)
    if args.method not in _REDUCE_METHODS:
        raise ArgumentError(f"unknown reduction method {args.method!r}")
    basis = fit(args.method, ds.X, ds.Y, args.d, fy=cubic_fy, ridge=args.ridge,
                slices=args.slices)
    meta = {
        "method": basis.method,
        "d": basis.d,
        "p": basis.p,
        "diagnostics": {
            "n": ds.n,
            "response": ds.response_name,
            "predictors": list(ds.column_names),
            "transforms": [list(t) for t in ds.transforms],
            "n_dropped": ds.n_dropped,
        },
    }
    print(json.dumps(meta, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_matrix(out / "basis.csv", basis.matrix)
        with open(out / "basis_meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        manifest = RunManifest(
            tool_version=__version__, command="reduce",
            config={"options": _snapshot(args, _REDUCE_KEYS)},
            seeds={}, input_digests={str(args.input): sha256_file(args.input)},
            outputs=("basis.csv", "basis_meta.json"))
        manifest.to_json_file(out / "manifest.json")
    return 0


# --------------------------------------------------------------- fit / predict

_PREDICT_KEYS = ("input", "response", "method", "d", "transform", "skip_bad_rows",
                 "basis", "kernel", "allow_nonsmooth_kernel", "bandwidth_kind",
                 "bandwidth_constant", "exponent_dim", "exponent", "h", "cv_grid",
                 "ci_level", "test_csv", "plot_data", "seed")


def _cmd_fit_predict(args) -> int:
    if args.from_manifest:
        _restore_from_manifest(args)
    ds = load_csv(args.input, args.response,
                  transforms=_parse_transforms(args.transform),
                  skip_bad_rows=args.skip_bad_rows)
    basis = None
    if args.basis:
        rows = np.loadtxt(args.basis, delimiter=",", ndmin=2)
        basis = oracle_basis(rows)
    test = None
    if getattr(args, "test_csv", None):
        test = load_test_rows(args.test_csv, ds)
    wf = run_predict_workflow(
        ds, method=args.method, d=args.d, kernel_profile=args.kernel,
        bandwidth_rule=_rule_from_args(args), test_rows=test,
        ci_level=args.ci_level, allow_nonsmooth_kernel=args.allow_nonsmooth_kernel,
        precomputed_basis=basis)
    print(json.dumps(list(wf.points), indent=2))
    outputs = []
    if args.plot_data:
        write_table(args.plot_data, ["fitted", "observed", "ci_lo", "ci_hi"], wf.plot_rows)
        outputs.append(str(args.plot_data))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "predictions.json", "w") as fh:
            json.dump(list(wf.points), fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append("predictions.json")
        digests = {str(args.input): sha256_file(args.input)}
        if args.basis:
            digests[str(args.basis)] = sha256_file(args.basis)
        if getattr(args, "test_csv", None):
            digests[str(args.test_csv)] = sha256_file(args.test_csv)
        manifest = RunManifest(
            tool_version=__version__, command=args.command,
            config={"options": _snapshot(args, _PREDICT_KEYS)},
            seeds={}, input_digests=digests, outputs=tuple(outputs))
        manifest.to_json_file(out / "manifest.json")
    return 0


# ------------------------------------------------------------------- simulate

def _s_matrix_digest() -> str:
    import hashlib
    data = resources.files("rednw").joinpath("_data/model2_s.csv").read_bytes()
    return hashlib.sha256(data).hexdigest()


def _simulate_config_from_args(args) -> dict:
    model = int(args.model)
    if model not in (1, 2):
        raise ArgumentError(f"--model must be 1 or 2, got {args.model}")
    methods = [m.lower() for m in _csv_list(args.methods)]
    for m in methods:
        if m not in METHOD_NAMES:
            raise ArgumentError(f"unknown method {m!r}; expected from {METHOD_NAMES}")
    ns = _csv_list(args.ns, int)
    if not ns:
        raise ArgumentError("--ns must list at least one sample size")
    cfg = Model1Config(seed=args.seed) if model == 1 else Model2Config(seed=args.seed)
    rule = _rule_from_args(args, default_rule=default_bandwidth_rule(cfg))
    points = draw_test_points(cfg, args.points)
    nprt_reduction = args.nprt_reduction or ("pls" if model == 1 else "pfc")
    if (args.equivalence or args.coverage) and model != 1:
        raise ArgumentError("--equivalence and --coverage need --model 1 (known truth)")
    return {
        "model": model,
        "seed": int(args.seed),
        "ns": ns,
        "n_rep": int(args.nrep),
        "methods": methods,
        "nprt_reduction": nprt_reduction,
        "d": int(args.d),
        "n_points": int(args.points),
        "bandwidth": bandwidth_rule_to_dict(rule),
        "test_points": [[float(v) for v in row] for row in points],
        "equivalence": bool(args.equivalence),
        "coverage": bool(args.coverage),
        "coverage_level": float(args.coverage_level),
    }


def _run_simulation(config: dict, out_dir: Path, threads: int) -> int:
    plan = simulation_plan_from_config(config)
    cfg = plan.model_cfg
    table = run_replications(cfg, plan.methods, plan.ns, plan.test_points,
                             plan.n_rep, base_seed=plan.base_seed,
                             bandwidth_rule=plan.bandwidth_rule,
                             n_threads=threads, keep_estimates=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    rows = [(c.point_id, c.n, c.method, c.emse, c.variance, c.mean_estimate,
             c.true_mse, c.n_rep, c.n_missing) for c in table.cells]
    write_table(out_dir / "emse.csv",
                ["point_id", "n", "method", "emse", "variance", "mean_estimate",
                 "true_mse", "n_rep", "n_missing"], rows)
    outputs.append("emse.csv")

    if plan.n_rep >= 10:
        n_max = max(plan.ns)
        for j in range(plan.test_points.shape[0]):
            blocks = []
            for lab in table.methods:
                v = table.estimates[(j, n_max, lab)]
                v = v[~np.isnan(v)]
                if v.size >= 10:
                    blocks.append((lab, v))
            if not blocks:
                continue
            lo = min(float(v.min()) for _, v in blocks)
            hi = max(float(v.max()) for _, v in blocks)
            pad = 0.1 * (hi - lo) if hi > lo else max(1e-3, 0.1 * abs(hi))
            grid = np.linspace(lo - pad, hi + pad, 101)
            drows = []
            for lab, v in blocks:
                for g, dens in estimate_density_data(v, grid):
                    drows.append((lab, n_max, g, dens))
            name = f"density_{j}.csv"
            write_table(out_dir / name, ["method", "n", "grid", "density"], drows)
            outputs.append(name)

    x0 = plan.test_points[0]
    if config.get("equivalence"):
        eq_rows = equivalence_experiment(cfg, plan.ns, plan.n_rep, x0,
                                         reduction="pls", base_seed=plan.base_seed)
        write_table(out_dir / "equivalence.csv",
                    ["n", "h", "median_stat", "n_used", "n_missing"],
                    [(r.n, r.h, r.median_stat, r.n_used, r.n_missing) for r in eq_rows])
        outputs.append("equivalence.csv")
    if config.get("coverage"):
        cov = coverage_experiment(cfg, max(plan.ns), plan.n_rep, x0,
                                  level=float(config.get("coverage_level", 0.95)),
                                  base_seed=plan.base_seed)
        write_table(out_dir / "coverage.csv",
                    ["n", "level", "coverage", "n_used", "n_excluded", "truth",
                     "median_ci_width"],
                    [(cov.n, cov.level, cov.coverage, cov.n_used, cov.n_excluded,
                      cov.truth, cov.median_ci_width)])
        outputs.append("coverage.csv")

    digests = {"model2_s.csv": _s_matrix_digest()} if config["model"] == 2 else {}
    manifest = RunManifest(tool_version=__version__, command="simulate",
                           config=config, seeds={"base_seed": config["seed"]},
                           input_digests=digests, outputs=tuple(outputs))
    manifest.to_json_file(out_dir / "manifest.json")
    print(f"wrote {', '.join(outputs)} and manifest.json to {out_dir} "
          f"(missing rate {table.missing_rate:.4f})")
    return 0


def _cmd_simulate(args) -> int:
    if not args.out:
        raise ArgumentError("simulate requires --out <directory>")
    if args.from_manifest:
        manifest = RunManifest.from_json_file(args.from_manifest)
        if manifest.command != "simulate":
            raise ArgumentError(
                f"manifest records a {manifest.command!r} run, not simulate")
        config = manifest.config
    else:
        if args.model is None:
            raise ArgumentError("simulate requires --model 1 or --model 2 (or --from-manifest)")
        config = _simulate_config_from_args(args)
    return _run_simulation(config, Path(args.out), args.threads)


# ----------------------------------------------------------------------- main

def _add_common(sp, from_manifest=False):
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--config", default=None,
                    help="flat key=value option file; explicit flags win")
    sp.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sp.add_argument("--threads", type=int, default=1, help="worker threads")
    if from_manifest:
        sp.add_argument("--from-manifest", default=None,
                        help="reproduce a previous run from its manifest.json")


def _add_data_args(sp):
    sp.add_argument("--input", required=True, help="CSV with a header row")
    sp.add_argument("--response", required=True, help="response column name")
    sp.add_argument("--transform", action="append", default=None,
                    metavar="COL=OP", help="per-column transform (log, center, none)")
    sp.add_argument("--skip-bad-rows", action="store_true",
                    help="drop unparseable rows instead of failing")


def _add_bandwidth_args(sp):
    sp.add_argument("--bandwidth-kind", choices=list(BANDWIDTH_KINDS), default=None)
    sp.add_argument("--bandwidth-constant", type=float, default=None,
                    help="c in h = c * n^(-exponent)")
    sp.add_argument("--exponent-dim", choices=list(EXPONENT_DIMS), default=None)
    sp.add_argument("--exponent", type=float, default=None,
                    help="override the 1/(4+m) power-rule exponent")
    sp.add_argument("--h", type=float, default=None, help="fixed bandwidth value")
    sp.add_argument("--cv-grid", default=None, help="comma list of loocv candidates")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rednw",
        description="Nadaraya-Watson regression after linear dimension reduction")
    parser.add_argument("--version", action="version", version=f"rednw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    kc = sub.add_parser("kernel-check", help="normalize a kernel and report its checks")
    kc.add_argument("--profile", choices=list(BUILTIN_PROFILES), default="triweight_poly3")
    kc.add_argument("--dim", type=int, default=1)
    kc.add_argument("--custom-poly", default=None,
                    metavar="C0,C1,...", help="polynomial profile coefficients in t")
    kc.add_argument("--support-radius", type=float, default=1.0)
    kc.add_argument("--smoothness-order", type=int, default=0,
                    help="smoothness declared for a custom profile")
    _add_common(kc)
    kc.set_defaults(handler=_cmd_kernel_check)

    rd = sub.add_parser("reduce", help="fit a reduction basis and write it as CSV")
    _add_data_args(rd)
    rd.add_argument("--method", choices=list(_REDUCE_METHODS), default="pls")
    rd.add_argument("--d", type=int, default=1)
    rd.add_argument("--ridge", type=float, default=None, help="pfc residual ridge")
    rd.add_argument("--slices", type=int, default=None, help="sir slice count")
    _add_common(rd, from_manifest=True)
    rd.set_defaults(handler=_cmd_reduce)

    for name, help_text in (("fit", "in-sample fitted values with intervals"),
                            ("predict", "predict at test rows (default in-sample)")):
        fp = sub.add_parser(name, help=help_text)
        _add_data_args(fp)
        fp.add_argument("--method", choices=list(FIT_METHODS), default="pls")
        fp.add_argument("--d", type=int, default=1)
        fp.add_argument("--basis", default=None, help="basis CSV from `reduce`")
        fp.add_argument("--kernel", choices=list(BUILTIN_PROFILES),
                        default="triweight_poly3")
        fp.add_argument("--allow-nonsmooth-kernel", action="store_true")
        _add_bandwidth_args(fp)
        fp.add_argument("--ci-level", type=float, default=0.95)
        fp.add_argument("--plot-data", default=None,
                        help="write (fitted, observed, ci_lo, ci_hi) CSV here")
        if name == "predict":
            fp.add_argument("--test-csv", default=None,
                            help="CSV of predictor rows; empty body allowed")
        _add_common(fp, from_manifest=True)
        fp.set_defaults(handler=_cmd_fit_predict)

    sm = sub.add_parser("simulate", help="replication experiments and table data")
    sm.add_argument("--model", type=int, choices=[1, 2], default=None)
    sm.add_argument("--methods", default="np,npr,nprt",
                    help="comma list from np, npr, nprt")
    sm.add_argument("--ns", default="100,300", help="comma list of sample sizes")
    sm.add_argument("--nrep", type=int, default=100)
    sm.add_argument("--points", type=int, default=10, help="number of test points")
    sm.add_argument("--nprt-reduction",
                    choices=list(NPRT_REDUCTIONS), default=None)
    sm.add_argument("--d", type=int, default=1)
    _add_bandwidth_args(sm)
    sm.add_argument("--equivalence", action="store_true",
                    help="also run the oracle-equivalence experiment (model 1)")
    sm.add_argument("--coverage", action="store_true",
                    help="also run the CI coverage experiment (model 1)")
    sm.add_argument("--coverage-level", type=float, default=0.95)
    sm.add_argument("--from-manifest", default=None,
                    help="reproduce a previous run from its manifest.json")
    _add_common(sm)
    sm.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, argv)
        return args.handler(args)
    except RednwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
