"""Command line interface.

Subcommands: kernel-check, reduce, fit, predict, simulate. kernel-check,
reduce, fit and predict print their result as JSON, and --out gets the same
text. Every run but kernel-check that writes an --out directory also writes
a manifest.json there; re-running with --from-manifest reproduces the
numeric outputs byte-identically.
Options come from --config, then --from-manifest, then argv, all through the
subcommand's own parser; a flag that contradicts the manifest is an error.
Exit codes: 0 ok, 2 argument error, 3 data error, 4 numeric error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from ._blas import keep_freed_memory
from .dataio import (
    MODELS,
    RunManifest,
    cubic_fy,
    json_text,
    load_csv,
    load_test_rows,
    read_basis,
    read_options,
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
from .reduction import FIT_METHODS, fit
from .simulate import (
    NPRT_REDUCTIONS,
    coverage_view,
    default_bandwidth_rule,
    draw_test_points,
    equivalence_view,
    estimate_density_data,
    run_replications,
)

__all__ = ["main"]


def _csv_list(value, conv=str) -> list:
    try:
        return [conv(v.strip()) for v in (value or "").split(",") if v.strip()]
    except ValueError as exc:
        raise ArgumentError(f"bad comma list {value!r}: {exc}") from None


def _parse_transforms(items) -> list[tuple[str, str]]:
    # each --transform item may itself be a comma list
    out = []
    for item in _csv_list(",".join(items or ())):
        if "=" not in item:
            raise ArgumentError(f"transform must look like column=op, got {item!r}")
        col, op = item.split("=", 1)
        out.append((col.strip(), op.strip()))
    return out


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _option_tokens(options: dict) -> list[str]:
    """argv tokens: True is a bare flag, None and False give none, a list repeats."""
    tokens = []
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not None and value is not False:
            tokens += [f"{flag}={v}" for v in (value if isinstance(value, list) else [value])]
    return tokens


# the bandwidth flags each kind reads; setting one the kind ignores is an error
_KIND_FLAGS = {
    "power_rule": ("bandwidth_constant", "exponent_dim", "exponent"),
    "fixed": ("h",),
    "loocv": ("cv_grid",),
}


def _rule_from_args(args, default_rule: BandwidthRule | None = None) -> BandwidthRule:
    given = [k for flags in _KIND_FLAGS.values() for k in flags
             if getattr(args, k, None) is not None]
    if not given and args.bandwidth_kind is None and default_rule is not None:
        return default_rule
    kind = args.bandwidth_kind or "power_rule"
    for key in given:
        if key not in _KIND_FLAGS[kind]:
            owner = next(k for k, flags in _KIND_FLAGS.items() if key in flags)
            raise ArgumentError(f"--{key.replace('_', '-')} is not used by bandwidth kind "
                                f"{kind!r}; it needs --bandwidth-kind {owner}")
    # unset power-rule fields keep the default rule's values when its kind
    # is the one chosen, so restating a default changes nothing
    same_kind = default_rule is not None and default_rule.kind == kind
    base = default_rule if same_kind else BandwidthRule(kind="power_rule")
    return BandwidthRule(
        kind=kind,
        constant=args.bandwidth_constant if args.bandwidth_constant is not None else base.constant,
        exponent_dim=args.exponent_dim or base.exponent_dim,
        h_fixed=args.h,
        cv_grid=tuple(_csv_list(args.cv_grid, float)) or None,
        exponent=args.exponent if args.exponent is not None else base.exponent,
    )


def _check_output_paths(args) -> None:
    """Before any work: --out must be a directory or a path mkdir can make,
    and --plot-data a file path in an existing directory."""
    out, plot = getattr(args, "out", None), getattr(args, "plot_data", None)
    if out:
        path = Path(out).absolute()
        if not next(p for p in (path, *path.parents) if p.exists()).is_dir():
            raise ArgumentError(f"--out {out}: not a directory, and none can be made there")
    if plot and (Path(plot).is_dir() or not Path(plot).absolute().parent.is_dir()):
        raise ArgumentError(f"--plot-data {plot}: not a file path in an existing directory")


def _emit(chunks, args, name: str) -> Path | None:
    """Print a result's JSON text, given as a sequence of chunks; with
    --out, write each chunk to out/name as well as it is printed. Returns
    the --out directory, or None without one."""
    out = Path(args.out) if args.out else None
    with contextlib.ExitStack() as files:
        sinks = [sys.stdout]
        if out:
            out.mkdir(parents=True, exist_ok=True)
            sinks.append(files.enter_context(open(out / name, "w")))
        for text in chunks:
            for fh in sinks:
                fh.write(text)
    return out


# ---------------------------------------------------------------- kernel-check

def _cmd_kernel_check(args) -> int:
    if args.custom_poly:
        coeffs = tuple(_csv_list(args.custom_poly, float))

        def raw(t, _c=coeffs, _r=args.support_radius):
            t = np.asarray(t, dtype=float)
            vals = np.polynomial.polynomial.polyval(t, _c)
            return np.where(t <= _r, vals, 0.0)

        profile = KernelProfile(name="custom", raw_profile=raw,
                                support_radius=args.support_radius,
                                smoothness_order=args.smoothness_order)
    else:
        profile = builtin_profile(args.profile)
    kernel = make_kernel(profile, args.dim)
    report = validate_conditions(kernel).to_json_dict()
    report["profile"] = profile.name
    report["dim"] = args.dim
    _emit([json_text(report)], args, "kernel_check.json")
    return 0


# -------------------------------------------------------- reduce / fit / predict

# the options each manifest records; simulate records its plan instead
_DATA_KEYS = ("input", "response", "method", "d", "transform", "skip_bad_rows")
_PREDICT_KEYS = _DATA_KEYS + (
    "basis", "kernel", "allow_nonsmooth_kernel", "bandwidth_kind", "bandwidth_constant",
    "exponent_dim", "exponent", "h", "cv_grid", "ci_level", "test_csv", "plot_data")
_MANIFEST_KEYS = {"reduce": _DATA_KEYS + ("ridge", "slices"),
                  "fit": _PREDICT_KEYS, "predict": _PREDICT_KEYS}


def _write_manifest(args, out: Path, outputs) -> None:
    """manifest.json of reduce, fit and predict: the subcommand's options and
    the digest of each input file given (--input, --basis, --test-csv)."""
    # fit and predict share one handler and key list but not every flag:
    # options a subcommand does not expose are recorded as None
    options = {k: getattr(args, k, None) for k in _MANIFEST_KEYS[args.command]}
    paths = (getattr(args, k, None) for k in ("input", "basis", "test_csv"))
    RunManifest(tool_version=__version__, command=args.command,
                config={"options": options}, seeds={},
                input_digests={str(p): sha256_file(p) for p in paths if p},
                outputs=tuple(outputs)).to_json_file(out / "manifest.json")


def _manifest_options(args) -> dict:
    """The options a reduce, fit or predict manifest recorded, its inputs checked."""
    keys = _MANIFEST_KEYS.get(args.command)
    if not (keys and args.from_manifest):
        return {}
    manifest = RunManifest.from_json_file(args.from_manifest, command=args.command)
    options = dict(manifest.config.get("options", {}))
    options.pop("seed", None)  # recorded by older versions; these subcommands draw nothing
    for key in options:
        # keys never holds "out", so a manifest cannot redirect the outputs
        if key not in keys:
            raise DataError(f"manifest option {key!r} is not a {args.command} option")
    for path, digest in manifest.input_digests.items():
        if sha256_file(path, "manifest input") != digest:
            raise DataError(
                f"manifest input {path} has changed since the recorded run "
                f"(digest mismatch); outputs would not reproduce")
    return options


def _cmd_reduce(args) -> int:
    ds = load_csv(args.input, args.response,
                  transforms=_parse_transforms(args.transform),
                  skip_bad_rows=args.skip_bad_rows)
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
    out = _emit([json_text(meta)], args, "basis_meta.json")
    if out:
        write_table(out / "basis.csv", None, basis.matrix)
        _write_manifest(args, out, ("basis.csv", "basis_meta.json"))
    return 0


def _cmd_fit_predict(args) -> int:
    ds = load_csv(args.input, args.response,
                  transforms=_parse_transforms(args.transform),
                  skip_bad_rows=args.skip_bad_rows)
    basis = read_basis(args.basis) if args.basis else None
    test = load_test_rows(args.test_csv, ds) if getattr(args, "test_csv", None) else None
    wf = run_predict_workflow(
        ds, method=args.method, d=args.d, kernel_profile=args.kernel,
        bandwidth_rule=_rule_from_args(args), test_rows=test,
        ci_level=args.ci_level, allow_nonsmooth_kernel=args.allow_nonsmooth_kernel,
        precomputed_basis=basis)
    with open(args.plot_data, "w", newline="") if args.plot_data else contextlib.nullcontext() as plot:

        def points():
            # each chunk's plot rows are written as its JSON is emitted, so
            # neither file is held whole
            for text, rows in wf.run_file_chunks(plot=bool(plot)):
                if plot:
                    plot.write(rows)
                yield text

        out = _emit(points(), args, "predictions.json")
    if out:
        outputs = (str(args.plot_data),) if args.plot_data else ()
        _write_manifest(args, out, (*outputs, "predictions.json"))
    return 0


# ------------------------------------------------------------------- simulate

def _simulate_config_from_args(args) -> dict:
    model_cls, default_reduction = MODELS[args.model]
    cfg = model_cls(seed=args.seed)
    rule = _rule_from_args(args, default_rule=default_bandwidth_rule(cfg))
    points = draw_test_points(cfg, args.points)
    return {
        "model": args.model,
        "seed": args.seed,
        "ns": _csv_list(args.ns, int),
        "n_rep": args.nrep,
        "methods": [m.lower() for m in _csv_list(args.methods)],
        "nprt_reduction": args.nprt_reduction or default_reduction,
        "d": args.d,
        "n_points": args.points,
        "bandwidth": asdict(rule),
        "test_points": [[float(v) for v in row] for row in points],
        "equivalence": args.equivalence,
        "coverage": args.coverage,
        "coverage_level": args.coverage_level,
    }


def _run_simulation(config: dict, out_dir: Path, threads: int) -> int:
    plan = simulation_plan_from_config(config)
    cfg = plan.model_cfg
    # the one replication run; only coverage reads intervals, at the run's level
    table = run_replications(cfg, plan.methods, plan.ns, plan.test_points,
                             plan.n_rep, n_threads=threads,
                             ci_level=plan.coverage_level if plan.coverage else 0.95)
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
            ests = {lab: table.replicates(j, n_max, lab)[:, 0] for lab in table.methods}
            blocks = [(lab, v[~np.isnan(v)]) for lab, v in ests.items()]
            blocks = [(lab, v) for lab, v in blocks if v.size >= 10]
            if not blocks:
                continue
            lo = min(float(v.min()) for _, v in blocks)
            hi = max(float(v.max()) for _, v in blocks)
            pad = 0.1 * (hi - lo) if hi > lo else max(1e-3, 0.1 * abs(hi))
            grid = np.linspace(lo - pad, hi + pad, 101)
            drows = [(lab, n_max, g, dens) for lab, v in blocks
                     for g, dens in estimate_density_data(v, grid)]
            name = f"density_{j}.csv"
            write_table(out_dir / name, ["method", "n", "grid", "density"], drows)
            outputs.append(name)

    if plan.equivalence:
        eq_rows = equivalence_view(table)
        write_table(out_dir / "equivalence.csv", ["n", "h", "median_stat", "n_used", "n_missing"],
                    [(r.n, r.h, r.median_stat, r.n_used, r.n_missing) for r in eq_rows])
        outputs.append("equivalence.csv")
    if plan.coverage:
        cov = coverage_view(table, cfg, max(plan.ns))
        write_table(out_dir / "coverage.csv",
                    ["n", "level", "coverage", "n_used", "n_excluded", "truth",
                     "median_ci_width"],
                    [(cov.n, cov.level, cov.coverage, cov.n_used, cov.n_excluded,
                      cov.truth, cov.median_ci_width)])
        outputs.append("coverage.csv")

    digests = {}
    if config["model"] == 2:
        with resources.as_file(resources.files("rednw").joinpath("_data/model2_s.csv")) as path:
            digests["model2_s.csv"] = sha256_file(path)
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
        # the manifest holds the whole plan; only --out and --threads may vary
        defaults = vars(_build_parser().parse_args(["simulate"]))
        for key in sorted(defaults.keys() - {"out", "threads", "config", "from_manifest"}):
            if getattr(args, key) != defaults[key]:
                raise ArgumentError(f"--{key.replace('_', '-')} cannot change the plan "
                                    "a --from-manifest replays")
        config = RunManifest.from_json_file(args.from_manifest, command="simulate").config
    else:
        if args.model is None:
            raise ArgumentError("simulate requires --model 1 or --model 2 (or --from-manifest)")
        config = _simulate_config_from_args(args)
    return _run_simulation(config, Path(args.out), args.threads)


# ----------------------------------------------------------------------- main

def _add_common(sp, from_manifest=False, threads_help=None):
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--config", default=None,
                    help="flat key=value option file; explicit flags win")
    if threads_help:
        sp.add_argument("--threads", type=_positive_int, default=1, help=threads_help)
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


@functools.cache
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
    # reduce fits a proper reduction; fit and predict also accept "np"
    rd.add_argument("--method", choices=list(FIT_METHODS[1:]), default="pls")
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
        _add_common(fp, from_manifest=True, threads_help="accepted and unused")
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
    sm.add_argument("--seed", type=int, default=0, help="base RNG seed")
    _add_common(sm, from_manifest=True, threads_help="worker threads")
    sm.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    # NW blocks and replications free and redraw temporaries of up to a few MB
    keep_freed_memory()
    try:
        # config, then manifest, then argv: explicit flags come last and win
        recorded = _manifest_options(args)
        options = {**(read_options(args.config) if args.config else {}), **recorded}
        if getattr(args, "transform", None):
            options.pop("transform", None)  # --transform appends; argv's list wins
        if options:
            manifest = getattr(args, "from_manifest", None)
            args = parser.parse_args(argv[:1] + _option_tokens(options) + argv[1:])
            if getattr(args, "from_manifest", None) != manifest:
                raise ArgumentError("--from-manifest must be given on the command line")
        if recorded:
            replay = parser.parse_args(argv[:1] + _option_tokens(recorded))
            for key in recorded:
                if getattr(args, key, None) != getattr(replay, key, None):
                    raise ArgumentError(f"--{key.replace('_', '-')} conflicts with the "
                                        f"manifest, which recorded {recorded[key]!r}")
        _check_output_paths(args)
        return args.handler(args)
    except RednwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
