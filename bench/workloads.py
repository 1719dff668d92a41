"""The benchmark's workloads: inputs made from a seed, one pass, its outputs.

Each workload builds its inputs from the benchmark seed alone, runs one pass
of the program through a public entry point (`run_replications` or
`rednw.cli.main`), and reduces the pass's outputs (`finish`) to a digest
that the correctness gate compares with a reference recorded from the
program as it was when the benchmark was added.

References exist for INPUT_SEEDS input seeds; a benchmark seed s selects
input seed s % INPUT_SEEDS, so every seed has a reference and the same seed
always gives the same inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rednw
from rednw import cli

INPUT_SEEDS = 16

# Digest floats keep 10 significant digits; the gate's tolerance is 1e-8
# relative, loose enough for the last-bit changes a reordered sum makes and
# far tighter than any real change to an estimate.
RTOL = 1e-8
_SIG = 10

SHELL_COLUMNS = ("length", "width", "height", "shell_mass", "muscle_mass")
RESPONSE = "muscle_mass"
PROFILE = "triweight_poly3"


def input_seed(seed: int) -> int:
    return int(seed) % INPUT_SEEDS


@contextlib.contextmanager
def work_dir(bench_dir: Path, tag: str):
    """A working directory under bench/_work, current while in use and
    removed afterwards; the CLI workloads name their files relative to it."""
    path = bench_dir / "_work" / tag
    path.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def _sig(x) -> float:
    return float(f"{float(x):.{_SIG}g}")


@dataclass
class Pass:
    """What one pass produced; `finish` fills in the counts."""

    result: object
    attempted: int = 0
    missing: int = 0
    bytes_out: int = 0


# ------------------------------------------------------------------ simulation

@dataclass(frozen=True)
class Sim:
    """A replication table from `run_replications` on a built-in design."""

    model: int
    nprt_reduction: str
    ns: tuple[int, ...]
    n_rep: int
    points: int
    threads: int
    # the traced run's root span: the call the benchmark makes
    root = "simulate.run_replications"

    def describe(self) -> str:
        return (f"model {self.model}, methods np/npr/nprt({self.nprt_reduction}), "
                f"ns={list(self.ns)}, nrep={self.n_rep}, {self.points} points, "
                f"n_threads={self.threads}")

    def fixed_objects(self, seed: int) -> dict:
        """Model config, method specs, kernels and test points, as a caller
        of the harness builds them (`run_replications` builds its own
        kernels too)."""
        cfg_cls = rednw.Model1Config if self.model == 1 else rednw.Model2Config
        cfg = cfg_cls(seed=input_seed(seed))
        methods = (rednw.MethodSpec("np"), rednw.MethodSpec("npr"),
                   rednw.MethodSpec("nprt", reduction=self.nprt_reduction))
        profile = rednw.builtin_profile(PROFILE)
        kernels = {dim: rednw.make_kernel(profile, dim) for dim in (1, cfg.p)}
        return {"cfg": cfg, "methods": methods, "kernels": kernels,
                "points": rednw.draw_test_points(cfg, self.points)}

    def prepare(self, work_dir: Path, seed: int) -> dict:
        return self.fixed_objects(seed)

    def execute(self, inputs: dict, threads: int) -> Pass:
        return Pass(rednw.run_replications(inputs["cfg"], inputs["methods"], self.ns,
                                           inputs["points"], self.n_rep, n_threads=threads))

    def finish(self, inputs: dict, run: Pass) -> dict:
        """Fill in the pass's counts and return the gate's digest: every
        cell of the table."""
        run.attempted = self.points * len(self.ns) * self.n_rep * len(inputs["methods"])
        run.missing = sum(c.n_missing for c in run.result.cells)

        def num(v):
            return None if v is None or math.isnan(v) else _sig(v)
        return {"cells": [[c.point_id, c.n, c.method, c.n_rep, c.n_missing,
                           num(c.emse), num(c.variance), num(c.mean_estimate),
                           num(c.true_mse)] for c in run.result.cells]}

    def exact(self, run: Pass) -> str:
        """The full outputs as text, for bit-identity checks."""
        return repr(run.result.cells)


# ------------------------------------------------------------------------- CLI

def shellfish_table(n: int, seed: tuple[int, ...]) -> np.ndarray:
    """Positive size measurements driven by one latent size factor.

    The same design as `rednw.synthetic_shellfish`, drawn here so that the
    inputs do not change when the program does.
    """
    rng = np.random.default_rng(seed)
    s = rng.normal(0.0, 1.0, n)
    centers = (5.3, 4.2, 3.6, 3.4, 2.5)
    slopes = (0.18, 0.16, 0.20, 0.55, 0.65)
    noise = (0.25, 0.25, 0.25, 0.25, 0.12)
    return np.column_stack([np.exp(c + b * s + rng.normal(0.0, e, n))
                            for c, b, e in zip(centers, slopes, noise)])


def _write_csv(path: Path, header, rows: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, rows, delimiter=",", fmt="%.17g")


@dataclass(frozen=True)
class Cli:
    """`rednw fit` or `rednw predict` called in-process through `cli.main`."""

    command: str
    n_train: int
    n_test: int = 0
    # every `outside_every`-th test row is moved far outside the training
    # range, so its kernel window is empty
    outside_every: int = 10
    cv_grid: tuple[float, ...] = ()
    sample_rows: int = 100
    # passed as --threads, which fit and predict accept and do not use
    threads: int = 1
    root = "cli.main"

    def describe(self) -> str:
        if self.command == "predict":
            return (f"rednw predict, {self.n_train} training rows, {self.n_test} test rows "
                    f"(1 in {self.outside_every} outside the training range), pls d=1, "
                    f"power rule c=2 reduced_d, log transforms")
        return (f"rednw fit, {self.n_train} rows, pls d=1, loocv over "
                f"{len(self.cv_grid)} bandwidths, --plot-data and --out, log transforms")

    def _rule(self) -> rednw.BandwidthRule:
        if self.cv_grid:
            return rednw.BandwidthRule(kind="loocv", cv_grid=self.cv_grid)
        return rednw.BandwidthRule(kind="power_rule", constant=2.0, exponent_dim="reduced_d")

    def _argv(self) -> list[str]:
        argv = [self.command, "--input", "train.csv", "--response", RESPONSE,
                "--method", "pls", "--d", "1", "--out", "out"]
        for col in SHELL_COLUMNS:
            argv += ["--transform", f"{col}=log"]
        if self.cv_grid:
            argv += ["--bandwidth-kind", "loocv",
                     "--cv-grid", ",".join(repr(h) for h in self.cv_grid),
                     "--plot-data", "plot.csv"]
        else:
            argv += ["--bandwidth-constant", "2", "--exponent-dim", "reduced_d"]
        if self.n_test:
            argv += ["--test-csv", "test.csv"]
        return argv

    def fixed_objects(self, seed: int) -> dict:
        """The kernel, bandwidth rule and argument list the run needs."""
        kernel = rednw.make_kernel(rednw.builtin_profile(PROFILE), 1)
        return {"kernel": kernel, "rule": self._rule(), "argv": self._argv()}

    def prepare(self, work_dir: Path, seed: int) -> dict:
        s = input_seed(seed)
        _write_csv(work_dir / "train.csv", SHELL_COLUMNS, shellfish_table(self.n_train, (s, 1)))
        if self.n_test:
            test = shellfish_table(self.n_test, (s, 2))[:, :-1]
            test[self.outside_every - 1::self.outside_every] *= 1000.0
            _write_csv(work_dir / "test.csv", SHELL_COLUMNS[:-1], test)
        return dict(self.fixed_objects(seed), work_dir=work_dir)

    def execute(self, inputs: dict, threads: int) -> Pass:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(inputs["argv"] + ["--threads", str(threads)])
        if code != 0:
            raise RuntimeError(f"rednw {self.command} exited with code {code}")
        return Pass(buf.getvalue())

    def finish(self, inputs: dict, run: Pass) -> dict:
        """Read the pass's output files, fill in its counts and return the
        gate's digest: h, failed rows, every k-th row's estimate and
        interval, and column sums over all rows."""
        work = inputs["work_dir"]
        points = json.loads((work / "out" / "predictions.json").read_text())
        failed = [i for i, pt in enumerate(points) if "error" in pt]
        ok = [pt for pt in points if "error" not in pt]
        cols = ("eta_hat", "ci_lo", "ci_hi")
        step = max(1, len(points) // self.sample_rows)
        sample = {str(i): [_sig(points[i][c]) for c in cols]
                  for i in range(0, len(points), step) if "error" not in points[i]}
        run.attempted, run.missing = len(points), len(failed)
        run.bytes_out = len(run.result.encode()) + sum(
            f.stat().st_size for f in (work / "out").iterdir())
        if self.cv_grid:
            run.bytes_out += (work / "plot.csv").stat().st_size
        return {"h": sorted({_sig(pt["h"]) for pt in ok}), "failed": failed,
                "sample": sample, "sums": [_sig(math.fsum(pt[c] for pt in ok)) for c in cols]}

    def exact(self, run: Pass) -> str:
        """The full outputs as text, for bit-identity checks: standard output
        carries every number at full precision."""
        return run.result


# -------------------------------------------------------------------- catalogue

FULL = {
    "sim_small": Sim(model=1, nprt_reduction="pls", ns=(100, 1000), n_rep=300,
                     points=10, threads=1),
    "sim_large": Sim(model=2, nprt_reduction="pfc", ns=(20000,), n_rep=20,
                     points=10, threads=2),
    "predict_csv": Cli(command="predict", n_train=100_000, n_test=500),
    "fit_loocv": Cli(command="fit", n_train=3000,
                     cv_grid=(0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5)),
}

# same shapes at tiny sizes; a run finishes in a few seconds
SMOKE = {
    "sim_small": Sim(model=1, nprt_reduction="pls", ns=(50, 100), n_rep=5,
                     points=3, threads=1),
    "sim_large": Sim(model=2, nprt_reduction="pfc", ns=(500,), n_rep=3,
                     points=3, threads=2),
    "predict_csv": Cli(command="predict", n_train=2000, n_test=40, sample_rows=20),
    "fit_loocv": Cli(command="fit", n_train=300, sample_rows=20,
                     cv_grid=(0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5)),
}


def catalogue(smoke: bool) -> dict:
    return SMOKE if smoke else FULL


# ------------------------------------------------------------------------ gate

def _floats(rows) -> np.ndarray:
    return np.array([[math.nan if v is None else v for v in row] for row in rows], dtype=float)


def _close(got: np.ndarray, ref: np.ndarray) -> bool:
    if got.shape != ref.shape or not np.array_equal(np.isnan(got), np.isnan(ref)):
        return False
    scale = np.nanmax(np.abs(ref), axis=0, initial=0.0) if ref.size else 0.0
    tol = RTOL * np.abs(ref) + 1e-4 * RTOL * scale
    return bool(np.all((np.abs(got - ref) <= tol) | np.isnan(ref)))


def compare(got: dict, ref: dict) -> list[str]:
    """Differences between a pass digest and its reference; empty if they agree."""
    problems = []
    if "cells" in ref:
        g, r = got["cells"], ref["cells"]
        if [c[:5] for c in g] != [c[:5] for c in r]:
            problems.append("cell keys or missing counts differ")
        elif not _close(_floats(c[5:] for c in g), _floats(c[5:] for c in r)):
            problems.append("cell statistics differ beyond the tolerance")
        return problems
    if got["failed"] != ref["failed"]:
        problems.append(f"failed rows differ: {len(got['failed'])} vs {len(ref['failed'])}")
    if got["sample"].keys() != ref["sample"].keys():
        problems.append("sampled rows differ")
    else:
        keys = list(ref["sample"])
        if not _close(_floats(got["sample"][k] for k in keys), _floats(ref["sample"][k] for k in keys)):
            problems.append("sampled estimates or intervals differ beyond the tolerance")
    for name in ("h", "sums"):
        if not _close(_floats([got[name]]), _floats([ref[name]])):
            problems.append(f"{name} differs: {got[name]} vs {ref[name]}")
    return problems


def reference_path(bench_dir: Path, name: str, smoke: bool) -> Path:
    return bench_dir / "reference" / f"{name}{'_smoke' if smoke else ''}.json"


def load_reference(bench_dir: Path, name: str, smoke: bool, seed: int) -> dict:
    data = json.loads(reference_path(bench_dir, name, smoke).read_text())
    return data["seeds"][str(input_seed(seed))]
