"""End-to-end tests for the command line interface."""

import copy
import csv
import errno
import functools
import io
import itertools
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rednw
from rednw import _blas, cli, simulate
from rednw.cli import main
from rednw.dataio import (
    cubic_fy,
    load_csv,
    recompute_cell_from_manifest,
    run_predict_workflow,
    simulation_plan_from_config,
    synthetic_shellfish,
    write_table,
)
from rednw.errors import ArgumentError, DataError
from rednw.reduction import fit, oracle_basis


def run_cli(argv, capsys):
    """Invoke main() in-process; argparse SystemExit is folded into the code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = int(exc.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def shellfish_csv(tmp_path):
    header, rows = synthetic_shellfish()
    path = tmp_path / "shellfish.csv"
    write_table(path, header, rows)
    return path


LOG_FLAGS = [
    "--transform", "length=log",
    "--transform", "width=log",
    "--transform", "height=log",
    "--transform", "shell_mass=log",
    "--transform", "muscle_mass=log",
]


class TestKernelCheck:
    def test_builtin_report(self, capsys):
        code, out, _ = run_cli(
            ["kernel-check", "--profile", "triweight_poly3", "--dim", "1"], capsys
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["norm_const"] == 1.09375
        assert all(c["pass"] for c in rep["checks"])

    def test_custom_polynomial(self, capsys):
        code, out, _ = run_cli(
            [
                "kernel-check", "--custom-poly", "1,0,-1",
                "--support-radius", "1.0", "--dim", "1",
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["norm_const"] - 0.75) <= 1e-10
        # a simple root at the edge: smoothness 0, derived with no flag
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["k3_twice_differentiable"] == {
            "name": "k3_twice_differentiable", "value": 0.0, "pass": False}
        assert by_name["k4_slope_bound"] == {"name": "k4_slope_bound", "value": 2.0,
                                             "pass": False}

    @pytest.mark.parametrize("coeffs,dim", [("2,-1", "3"), ("3,-1,-1", "4")])
    def test_custom_profile_with_step_edge(self, coeffs, dim, capsys):
        """A profile that jumps at its support edge gets the full report,
        and fails the two derived conditions: smoothness -1 for the jump, and
        an infinite slope bound since k'(0) = -1."""
        code, out, _ = run_cli(["kernel-check", "--custom-poly", coeffs, "--dim", dim], capsys)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [
            "bounded", "integral_one", "edge_decay", "first_moment_zero",
            "k3_odd_integral", "k3_twice_differentiable", "k4_slope_bound"]
        assert checks[5:] == [
            {"name": "k3_twice_differentiable", "value": -1.0, "pass": False},
            {"name": "k4_slope_bound", "value": math.inf, "pass": False}]
        assert "Infinity" in out

    def test_smoothness_order_is_not_an_option(self, capsys):
        """Smoothness is derived from the coefficients, never declared."""
        code, out, err = run_cli(["kernel-check", "--custom-poly", "2,-1",
                                  "--smoothness-order", "2"], capsys)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --smoothness-order 2" in err

    @pytest.mark.parametrize("argv, message", [
        (["--profile", "biweight", "--support-radius", "5"],
         "--support-radius is not used without --custom-poly"),
        (["--custom-poly", "1,0,-1", "--profile", "biweight"],
         "--profile is not used with --custom-poly"),
    ], ids=["support-radius", "profile"])
    def test_flag_the_mode_ignores_exits_2(self, argv, message, capsys):
        """A built-in profile does not read --support-radius, a custom one
        not --profile; the first once gave the radius-1 biweight report."""
        code, out, err = run_cli(["kernel-check", *argv], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_profile_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["kernel-check", "--profile", "cosine", "--dim", "1"], capsys
        )
        assert code == 2

    def test_report_written_to_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "kc"
        code, _, _ = run_cli(
            [
                "kernel-check", "--profile", "biweight", "--dim", "2",
                "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads((out_dir / "kernel_check.json").read_text())
        assert rep["checks"]


class TestReduce:
    def test_pls_outputs(self, shellfish_csv, tmp_path, capsys):
        out_dir = tmp_path / "red"
        code, out, _ = run_cli(
            [
                "reduce", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        meta = json.loads(out)
        assert meta["method"] == "pls" and meta["d"] == 1 and meta["p"] == 4
        basis = np.loadtxt(out_dir / "basis.csv", delimiter=",", ndmin=2)
        assert basis.shape == (1, 4)
        np.testing.assert_allclose(basis @ basis.T, [[1.0]], atol=1e-10)
        assert (out_dir / "basis_meta.json").exists()
        assert (out_dir / "manifest.json").exists()

    def test_basis_file_bytes(self, shellfish_csv, tmp_path, capsys):
        """basis.csv is the basis's rows as write_table writes them, without a
        header: shortest round-trip floats, commas and CRLF line ends. These
        are the bytes `fit --basis` reads back."""
        code, _, _ = run_cli(["reduce", "--input", str(shellfish_csv), "--response",
                              "muscle_mass", *LOG_FLAGS, "--d", "2", "--out", str(tmp_path)],
                             capsys)
        assert code == 0
        assert (tmp_path / "basis.csv").read_bytes() == (
            b"0.2122493288458518,0.2734840930408275,0.30608199622479465,0.8868317116821919\r\n"
            b"0.7572204832511049,-0.522796017099546,-0.37585132937753335,0.1097143675867266\r\n")

    def test_np_from_config_file_exits_2(self, shellfish_csv, tmp_path, capsys):
        # config lines go through the parser's choices; reduce has no identity "reduction"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = np\n")
        code, _, err = run_cli(
            [
                "reduce", "--input", str(shellfish_csv),
                "--response", "muscle_mass", "--config", str(cfg),
            ],
            capsys,
        )
        assert code == 2
        assert "invalid choice: 'np'" in err

    def test_missing_input_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "reduce", "--input", str(tmp_path / "nope.csv"),
                "--response", "y",
            ],
            capsys,
        )
        assert code == 3
        assert "error:" in err

    def test_singular_covariance_exits_4(self, tmp_path, capsys):
        rows = [[float(i), float(i), float(i % 3)] for i in range(30)]
        path = tmp_path / "collinear.csv"
        write_table(path, ["a", "b", "y"], rows)
        code, _, err = run_cli(
            [
                "reduce", "--input", str(path), "--response", "y",
                "--method", "sir", "--slices", "3",
            ],
            capsys,
        )
        assert code == 4
        assert "error:" in err


class TestFitPredict:
    @pytest.mark.parametrize("chain", ["a=log,a=log", "a=center,a=log"])
    def test_log_after_another_transform_exits_2(self, tmp_path, chain):
        """Rejected before any value is logged: one error line, no numpy
        warning on stderr (a child process, since pytest records warnings)."""
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1.0,2.0,1.0\n2.0,3.0,2.0\n0.5,1.0,3.0\n")
        root = str(Path(rednw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "rednw.cli", "fit", "--input", str(path), "--response", "y",
             "--transform", chain, "--bandwidth-kind", "fixed", "--h", "1.0"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "column 'a'" in proc.stderr

    def test_fit_in_sample_json(self, shellfish_csv, capsys):
        code, out, _ = run_cli(
            [
                "fit", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1",
            ],
            capsys,
        )
        assert code == 0
        points = json.loads(out)
        assert len(points) == 79
        assert {"x0", "eta_hat", "ci_lo", "ci_hi", "f_hat", "sigma2_hat", "h"} <= set(
            points[0]
        )

    def test_fit_out_dir_writes_manifest(self, shellfish_csv, tmp_path, capsys):
        """fit with --out snapshots its own options, and not predict-only
        flags like --test-csv."""
        out = tmp_path / "fitrun"
        code, stdout, _ = run_cli(
            [
                "fit", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert "test_csv" not in manifest["config"]["options"]
        code2, stdout2, _ = run_cli(
            [
                "fit", "--input", str(shellfish_csv),
                "--response", "muscle_mass",
                "--from-manifest", str(out / "manifest.json"),
                "--out", str(tmp_path / "replay"),
            ],
            capsys,
        )
        assert code2 == 0
        assert stdout2 == stdout

    def test_plot_data_columns(self, shellfish_csv, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        code, _, _ = run_cli(
            [
                "fit", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--plot-data", str(plot),
            ],
            capsys,
        )
        assert code == 0
        with open(plot) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fitted", "observed", "ci_lo", "ci_hi"]
        assert len(rows) == 80
        for row in rows[1:3]:
            lo, hi = float(row[2]), float(row[3])
            assert lo <= float(row[0]) <= hi

    def test_predict_with_test_csv_reordered_columns(
        self, shellfish_csv, tmp_path, capsys
    ):
        test_csv = tmp_path / "new.csv"
        test_csv.write_text("shell_mass,length,width,height\n30.0,205.0,70.0,40.0\n")
        code, out, _ = run_cli(
            [
                "predict", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--test-csv", str(test_csv),
            ],
            capsys,
        )
        assert code == 0
        points = json.loads(out)
        assert len(points) == 1
        # predictors are reassembled in training order and log-transformed
        np.testing.assert_allclose(points[0]["x0"][0], np.log(205.0), rtol=1e-12)

    def test_predict_nan_test_cell_exits_3(self, shellfish_csv, tmp_path, capsys):
        test_csv = tmp_path / "new.csv"
        test_csv.write_text("length,width,height,shell_mass\n205.0,70.0,nan,30.0\n")
        code, out, err = run_cli(
            [
                "predict", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--test-csv", str(test_csv),
            ],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert "row 1, column 'height': non-finite value 'nan'" in err

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_repeated_column_exits_3(self, shellfish_csv, tmp_path, capsys, command):
        """Like a missing column, a repeated one is a data error."""
        dup = tmp_path / "dup.csv"
        dup.write_text("a,a,y\n1,10,1\n2,20,2\n3,35,3.5\n4,41,4\n")
        argv = [command, "--input", str(dup), "--response", "y", "--method", "np"]
        if command == "predict":
            test_csv = tmp_path / "new.csv"
            test_csv.write_text("length,length,height,shell_mass\n205.0,70.0,20.0,30.0\n")
            argv = ["predict", "--input", str(shellfish_csv), "--response", "muscle_mass",
                    "--test-csv", str(test_csv)]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        name = "a" if command == "fit" else "length"
        assert f"column '{name}' appears more than once in the header" in err

    def test_predict_empty_test_set(self, shellfish_csv, tmp_path, capsys):
        test_csv = tmp_path / "empty.csv"
        test_csv.write_text("length,width,height,shell_mass\n")
        code, out, _ = run_cli(
            [
                "predict", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--test-csv", str(test_csv),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == []

    def test_predict_empty_test_set_loocv(self, shellfish_csv, tmp_path, capsys):
        """With no test rows the bandwidth search still runs; the run files
        are an empty list and a plot file with its header alone."""
        test_csv = tmp_path / "empty.csv"
        test_csv.write_text("length,width,height,shell_mass\n")
        plot = tmp_path / "plot.csv"
        argv = ["predict", "--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--test-csv", str(test_csv),
                "--bandwidth-kind", "loocv", "--plot-data", str(plot), "--out", str(tmp_path / "o")]
        code, out, err = run_cli([*argv, "--cv-grid", "0.1,0.2"], capsys)
        assert (code, out, err) == (0, "[]\n", "")
        assert (tmp_path / "o" / "predictions.json").read_text() == "[]\n"
        assert plot.read_bytes() == b"fitted,observed,ci_lo,ci_hi\r\n"
        # a grid whose every window is empty fails as it does with test rows
        code, out, err = run_cli([*argv, "--cv-grid", "1e-9", "--out", str(tmp_path / "o2")], capsys)
        assert (code, out) == (2, "")
        assert err == "error: every cv_grid bandwidth produced empty leave-one-out windows\n"

    def test_basis_file_reused(self, shellfish_csv, tmp_path, capsys):
        out_dir = tmp_path / "red"
        run_cli(
            [
                "reduce", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--method", "pls", "--d", "1", "--out", str(out_dir),
            ],
            capsys,
        )
        code, out, _ = run_cli(
            [
                "fit", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--basis", str(out_dir / "basis.csv"),
            ],
            capsys,
        )
        assert code == 0
        points = json.loads(out)
        assert len(points) == 79

    @pytest.mark.parametrize("text, message", [
        (None, "basis file not found: {path}"),
        ("a,b,c,d\n", "{path}: not a basis: could not convert string 'a' to float64 at row 0, "
                      "column 1."),
        ("nan,1,0,0\n", "{path}: not a basis: directions must be finite"),
        ("", "{path}: basis file is empty"),
        (b"\xff\xfe", "{path}: not UTF-8 text (invalid start byte)"),
    ], ids=["missing", "header", "nan", "empty", "binary"])
    def test_bad_basis_file_exits_3(self, shellfish_csv, tmp_path, capsys, text, message):
        path = tmp_path / "basis.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        code, out, err = run_cli(
            ["fit", "--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS,
             "--basis", str(path)],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == f"error: {message.format(path=path)}\n"

    def test_fixed_bandwidth_missing_h_exits_2(self, shellfish_csv, capsys):
        code, _, err = run_cli(
            [
                "fit", "--input", str(shellfish_csv),
                "--response", "muscle_mass", *LOG_FLAGS,
                "--bandwidth-kind", "fixed",
            ],
            capsys,
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("flags", [
        ["--h", "0.5"],
        ["--bandwidth-kind", "loocv", "--cv-grid", "0.3,0.6", "--h", "0.5"],
        ["--bandwidth-kind", "fixed", "--h", "0.5", "--cv-grid", "0.2,0.4"],
        ["--bandwidth-kind", "fixed", "--h", "0.5", "--bandwidth-constant", "2"],
        ["--bandwidth-kind", "loocv", "--cv-grid", "0.3", "--exponent", "0.3"],
        ["--bandwidth-kind", "loocv", "--cv-grid", "0.3", "--exponent-dim", "reduced_d"],
    ], ids=["h-power", "h-loocv", "grid-fixed", "constant-fixed", "exponent-loocv",
            "exponent-dim-loocv"])
    def test_flag_the_kind_ignores_exits_2(self, shellfish_csv, capsys, flags):
        code, out, err = run_cli(
            ["fit", "--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS,
             *flags],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"error: {flags[-2]} is not used by bandwidth kind" in err

    @pytest.mark.parametrize("flags", [
        ["--bandwidth-kind", "loocv", "--cv-grid", "nan"],
        ["--bandwidth-kind", "loocv", "--cv-grid", "0.3,inf"],
        ["--bandwidth-kind", "loocv", "--cv-grid", "0.3,-0.5"],
        ["--bandwidth-kind", "fixed", "--h", "inf"],
        ["--bandwidth-constant", "inf"],
    ], ids=["grid-nan", "grid-inf", "grid-negative", "h-inf", "constant-inf"])
    def test_non_finite_bandwidth_exits_2(self, shellfish_csv, capsys, flags):
        code, out, err = run_cli(
            ["fit", "--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS,
             *flags],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "must be finite" in err or "must be positive and finite" in err

    def test_simulate_infinite_h_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--model", "1", "--bandwidth-kind", "fixed", "--h", "inf",
             "--ns", "60", "--nrep", "2", "--points", "1", "--out", str(tmp_path / "sim")],
            capsys,
        )
        assert code == 2
        assert "bandwidth h_fixed must be finite" in err
        assert not (tmp_path / "sim").exists()

    def test_simulate_duplicate_sample_sizes_exits_2(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["simulate", "--model", "1", "--ns", "60,60", "--nrep", "2", "--points", "1",
             "--out", str(tmp_path / "sim")],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "duplicate sample sizes [60, 60]" in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("flag, what", [("--ns", "sample size"), ("--nrep", "n_rep"),
                                            ("--points", "m")], ids=["ns", "nrep", "points"])
    @pytest.mark.parametrize("size", [10 ** 30, 2 ** 62], ids=["1e30", "2^62"])
    def test_simulate_size_past_numpy_address_range_exits_2(self, tmp_path, capsys, flag, what,
                                                           size):
        """numpy rejects both sizes before it allocates; the run names the
        value in one line instead of ending in numpy's ValueError."""
        sizes = {"--ns": "60", "--nrep": "2", "--points": "1", flag: str(size)}
        code, out, err = run_cli(["simulate", "--model", "1", *itertools.chain(*sizes.items()),
                                  "--out", str(tmp_path / "sim")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {what} {size} is too large: ") and err.count("\n") == 1
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("h, f_hat", [("1e200", "0.000e+00"), ("1e-200", "inf")])
    def test_bandwidth_power_outside_float_range(self, shellfish_csv, capsys, h, f_hat):
        # with --method np, h**4 leaves the float range; each row says so
        code, out, _ = run_cli(
            ["fit", "--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS,
             "--method", "np", "--bandwidth-kind", "fixed", "--h", h],
            capsys,
        )
        assert code == 0
        points = json.loads(out)
        assert len(points) == 79
        assert all(pt["error"].startswith(f"degenerate density estimate {f_hat}")
                   for pt in points)

    @pytest.mark.parametrize("h", ["1e60", "1e-60"])
    def test_simulate_bandwidth_power_outside_float_range(self, tmp_path, capsys, h):
        # np's h**6 leaves the float range; its cells go missing, the run completes
        code, out, _ = run_cli(
            ["simulate", "--model", "1", "--methods", "np", "--bandwidth-kind", "fixed",
             "--h", h, "--ns", "60", "--nrep", "2", "--points", "1",
             "--out", str(tmp_path / "sim")],
            capsys,
        )
        assert code == 0
        assert "(missing rate 1.0000)" in out
        assert (tmp_path / "sim" / "emse.csv").exists()

    @pytest.mark.parametrize("method", ["np", "pls"])
    def test_tiny_bandwidth_warns_nothing(self, shellfish_csv, capsys, method):
        # at h = 1e-200 the radii pass the float range: np's d = 4 direct
        # norms, and pls's d = 1 radii once the kernel profile squares them
        code, out, err = run_cli(
            ["fit", "--input", str(shellfish_csv), "--response", "muscle_mass",
             "--method", method, "--bandwidth-kind", "fixed", "--h", "1e-200"],
            capsys,
        )
        assert code == 0
        assert err == ""
        points = json.loads(out)
        if method == "np":
            # h**4 underflows, so every density is degenerate
            assert all(pt["error"].startswith("degenerate density estimate inf")
                       for pt in points)
        else:
            # each window holds its own sample alone, and h**1 stays in range
            assert not any("error" in pt for pt in points)

    def test_simulate_pfc_d_above_feature_count_exits_2(self, tmp_path, capsys):
        # the harness gives pfc the features (y, |y|), so r = 2
        argv = ["simulate", "--model", "2", "--methods", "np,nprt", "--nprt-reduction", "pfc",
                "--ns", "60", "--nrep", "2", "--points", "1"]
        code, out, err = run_cli([*argv, "--d", "3", "--out", str(tmp_path / "d3")], capsys)
        assert code == 2
        assert out == ""
        assert "at most 2 directions, got d=3" in err
        assert not (tmp_path / "d3").exists()
        code, out, _ = run_cli([*argv, "--d", "2", "--out", str(tmp_path / "d2")], capsys)
        assert code == 0
        assert "(missing rate 0.0000)" in out

    def test_pfc_d_above_feature_count_exits_2(self, shellfish_csv, capsys):
        # the CLI's cubic feature map has r = 3
        argv = ["reduce", "--input", str(shellfish_csv), "--response", "muscle_mass",
                *LOG_FLAGS, "--method", "pfc"]
        assert run_cli([*argv, "--d", "3"], capsys)[0] == 0
        code, out, err = run_cli([*argv, "--d", "4"], capsys)
        assert code == 2
        assert out == ""
        assert "min(r, p)" in err

    @pytest.mark.parametrize("method", ["pls", "sir"])
    def test_reduce_d_above_p_exits_2(self, method, shellfish_csv, capsys):
        """A d past the 4 predictors is an argument error before any fit;
        pls once exited 4, its covariance vanished after 4 deflations."""
        argv = ["reduce", "--input", str(shellfish_csv), "--response", "muscle_mass",
                *LOG_FLAGS, "--method", method]
        assert run_cli([*argv, "--d", "4"], capsys)[0] == 0
        code, out, err = run_cli([*argv, "--d", "5"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: need 1 <= d <= p, got d=5") and err.count("\n") == 1

    @staticmethod
    def basis_file_and_fitted_predictions(command, method, d, shellfish_csv, tmp_path, capsys):
        """predictions.json of reduce then predict --basis, and of
        ``command`` (fit or predict) fitting the same basis itself."""
        data = ["--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS]
        fitted = [*data, "--method", method, "--d", str(d)]
        assert run_cli(["reduce", *fitted, "--out", str(tmp_path / "reduce")], capsys)[0] == 0
        basis = tmp_path / "reduce" / "basis.csv"
        assert run_cli(["predict", *data, "--basis", str(basis), "--out", str(tmp_path / "ref")],
                       capsys)[0] == 0
        assert run_cli([command, *fitted, "--out", str(tmp_path / "run")], capsys)[0] == 0
        return tuple((tmp_path / run / "predictions.json").read_bytes() for run in ("ref", "run"))

    @pytest.mark.parametrize("method", ["pls", "sir"])
    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_fit_predict_d_equal_p(self, command, method, shellfish_csv, tmp_path, capsys):
        """fit and predict follow the fits' d rule, as reduce does: at d = p
        = 4 they run the estimator of reduce --d 4 then predict --basis,
        byte for byte, since read_basis keeps the orthonormal rows it reads."""
        ref, run = self.basis_file_and_fitted_predictions(command, method, 4, shellfish_csv,
                                                          tmp_path, capsys)
        assert run == ref

    @pytest.mark.parametrize("method, d", [
        ("pls", 1), ("pls", 2), ("pls", 3), ("pls", 4), ("sir", 2), ("pfc", 2),
    ])
    def test_basis_file_is_the_fitted_basis(self, method, d, shellfish_csv, tmp_path, capsys):
        """reduce --d k then predict --basis gives fit --d k's predictions
        byte for byte: the basis file's rows are the basis, not re-fitted."""
        ref, run = self.basis_file_and_fitted_predictions("fit", method, d, shellfish_csv,
                                                          tmp_path, capsys)
        assert run == ref

    def test_hand_written_basis_is_orthonormalized(self, shellfish_csv, tmp_path, capsys):
        """Rows that are not orthonormal still load: they span the basis, as
        its orthonormalized rows, and predict as those rows do."""
        data = ["--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS]
        (tmp_path / "hand.csv").write_text("2,0,0,1\n0,3,0,0\n")
        write_table(tmp_path / "unit.csv", None, oracle_basis([[2, 0, 0, 1], [0, 3, 0, 0]]).matrix)
        for name in ("hand", "unit"):
            argv = ["predict", *data, "--basis", str(tmp_path / f"{name}.csv"),
                    "--out", str(tmp_path / f"run_{name}")]
            assert run_cli(argv, capsys)[0] == 0
        hand, unit = ((tmp_path / f"run_{name}" / "predictions.json").read_bytes()
                      for name in ("hand", "unit"))
        assert hand == unit

    @pytest.mark.parametrize("reduction", ["pls", "sir"])
    def test_simulate_d_above_p_exits_2(self, reduction, tmp_path, capsys):
        """A fitted NPRT reduction past model 1's p = 6 directions is
        rejected before any replication; it once ran with every cell missing."""
        argv = ["simulate", "--model", "1", "--ns", "100", "--nrep", "2", "--points", "1",
                "--methods", "nprt", "--nprt-reduction", reduction]
        code, out, err = run_cli([*argv, "--d", "7", "--out", str(tmp_path / "d7")], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {reduction} needs 1 <= d <= p, got d=7 for model 1 with p=6\n"
        assert not (tmp_path / "d7").exists()
        code, out, _ = run_cli([*argv, "--d", "6", "--out", str(tmp_path / "d6")], capsys)
        assert code == 0
        assert "(missing rate 0.0000)" in out

    def test_unknown_flag_exits_2(self, shellfish_csv, capsys):
        # --seed belongs to simulate, the only subcommand that draws numbers
        for flag in (["--wat"], ["--seed", "3"]):
            code, _, err = run_cli(
                ["fit", "--input", str(shellfish_csv), "--response", "muscle_mass",
                 *flag],
                capsys,
            )
            assert code == 2
            assert f"unrecognized arguments: {' '.join(flag)}" in err

    def test_config_file_with_cli_override(self, shellfish_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# prediction options\n"
            "method = pls\n"
            "d = 1\n"
            "bandwidth-kind = fixed\n"
            "h = 0.5\n"
        )
        base = [
            "fit", "--input", str(shellfish_csv),
            "--response", "muscle_mass", *LOG_FLAGS,
            "--config", str(cfg),
        ]
        code, out, _ = run_cli(base, capsys)
        assert code == 0
        h_from_config = json.loads(out)[0]["h"]
        assert h_from_config == 0.5
        code, out, _ = run_cli(base + ["--h", "0.9"], capsys)
        assert code == 0
        assert json.loads(out)[0]["h"] == 0.9

    def test_unknown_config_key_exits_2(self, shellfish_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methd = pls\n")
        code, _, _ = run_cli(
            [
                "fit", "--input", str(shellfish_csv),
                "--response", "muscle_mass", "--config", str(cfg),
            ],
            capsys,
        )
        assert code == 2


def run_files(wf):
    """The workflow's points JSON and plot CSV, each its chunks joined."""
    chunks = list(wf.run_file_chunks())
    return "".join(text for text, _ in chunks), "".join(rows for _, rows in chunks)


class TestBlasThreads:
    """reduce, fit and predict run OpenBLAS at one thread, as replication
    workers do, so their outputs do not depend on the host's core count;
    the count found comes back after the run."""

    @pytest.fixture
    def seen(self, monkeypatch):
        # one fake library whose thread count history is `seen`
        seen = [8]
        monkeypatch.setattr(_blas, "_openblas_controls", lambda: ((lambda: seen[-1], seen.append),))
        return seen

    @pytest.mark.parametrize("command", ["reduce", "fit", "predict"])
    def test_run_at_one_thread(self, command, seen, shellfish_csv, monkeypatch, capsys):
        counts = []
        fit_basis = cli.fit
        monkeypatch.setattr(cli, "fit", lambda *a, **kw: (counts.append(seen[-1]),
                                                          fit_basis(*a, **kw))[1])
        code, _, _ = run_cli([command, "--input", str(shellfish_csv), "--response",
                              "muscle_mass"], capsys)
        assert code == 0
        assert counts == [1]
        assert seen == [8, 1, 8]

    def test_restored_after_an_error(self, seen, tmp_path, capsys):
        code, _, err = run_cli(["fit", "--input", str(tmp_path / "missing.csv"),
                                "--response", "y"], capsys)
        assert code == 3 and "missing.csv" in err
        assert seen == [8, 1, 8]


class TestRunFiles:
    """stdout and the --out result file are one text; a manifest replays only
    under the subcommand that wrote it."""

    @pytest.mark.parametrize("command", ["kernel-check", "reduce", "fit", "predict"])
    def test_stdout_equals_out_file(self, command, shellfish_csv, tmp_path, capsys):
        test_csv = tmp_path / "new.csv"
        test_csv.write_text("length,width,height,shell_mass\n205.0,70.0,40.0,30.0\n")
        data = ["--input", str(shellfish_csv), "--response", "muscle_mass", *LOG_FLAGS]
        argv, name = {
            "kernel-check": (["--profile", "biweight", "--dim", "2"], "kernel_check.json"),
            "reduce": ([*data, "--method", "pfc"], "basis_meta.json"),
            "fit": ([*data, "--bandwidth-kind", "loocv", "--cv-grid", "0.2,0.4,0.8"],
                    "predictions.json"),
            "predict": ([*data, "--test-csv", str(test_csv)], "predictions.json"),
        }[command]
        out_dir = tmp_path / "run"
        code, out, _ = run_cli([command, *argv, "--out", str(out_dir)], capsys)
        assert code == 0
        assert out == (out_dir / name).read_text()

    def test_streamed_run_files_span_chunks(self, tmp_path, capsys):
        """2,500 rows, three chunks: stdout, predictions.json and --plot-data
        are the workflow's whole files, byte for byte."""
        header, rows = synthetic_shellfish(n=2500, seed=3)
        data = tmp_path / "big.csv"
        write_table(data, header, rows)
        out_dir, plot = tmp_path / "run", tmp_path / "plot.csv"
        code, out, _ = run_cli(["fit", "--input", str(data), "--response", "muscle_mass",
                                *LOG_FLAGS, "--plot-data", str(plot), "--out", str(out_dir)],
                               capsys)
        assert code == 0
        ds = load_csv(data, "muscle_mass", transforms=[(c, "log") for c in header])
        points, rows = run_files(run_predict_workflow(ds, fit("pls", ds.X, ds.Y, 1, fy=cubic_fy)))
        assert out == (out_dir / "predictions.json").read_text() == points
        assert plot.read_bytes() == rows.encode()
        assert json.loads((out_dir / "manifest.json").read_text())["outputs"] == [
            str(plot), "predictions.json"]

    def test_write_error_mid_run_leaves_no_manifest(self, tmp_path, monkeypatch):
        """A write that fails after the first chunk (a full disk, a closed
        pipe) ends the run with that error: the run files are cut short and
        no manifest.json is written."""
        header, rows = synthetic_shellfish(n=2500, seed=3)
        data = tmp_path / "big.csv"
        write_table(data, header, rows)
        out_dir, plot = tmp_path / "run", tmp_path / "plot.csv"

        class FullStdout(io.StringIO):
            def write(self, text):
                if self.tell():
                    raise OSError(errno.ENOSPC, "No space left on device")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", FullStdout())
        with pytest.raises(OSError):
            main(["fit", "--input", str(data), "--response", "muscle_mass", *LOG_FLAGS,
                  "--plot-data", str(plot), "--out", str(out_dir)])
        assert not (out_dir / "manifest.json").exists()
        ds = load_csv(data, "muscle_mass", transforms=[(c, "log") for c in header])
        points, rows = run_files(run_predict_workflow(ds, fit("pls", ds.X, ds.Y, 1, fy=cubic_fy)))
        for part, whole in [(sys.stdout.getvalue(), points),
                            ((out_dir / "predictions.json").read_text(), points),
                            (plot.read_bytes().decode(), rows)]:
            assert part and whole.startswith(part) and len(part) < len(whole)

    def _write_run(self, command, shellfish_csv, out_dir, capsys):
        code, _, _ = run_cli(
            [command, "--input", str(shellfish_csv), "--response", "muscle_mass",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        return out_dir / "manifest.json"

    def test_fit_manifest_under_reduce_exits_2(self, shellfish_csv, tmp_path, capsys):
        manifest = self._write_run("fit", shellfish_csv, tmp_path / "fit", capsys)
        code, _, err = run_cli(
            ["reduce", "--input", str(shellfish_csv), "--response", "muscle_mass",
             "--from-manifest", str(manifest)],
            capsys,
        )
        assert code == 2
        assert "manifest records a 'fit' run, not 'reduce'" in err

    def test_reduce_manifest_under_simulate_exits_2(self, shellfish_csv, tmp_path, capsys):
        manifest = self._write_run("reduce", shellfish_csv, tmp_path / "red", capsys)
        code, _, err = run_cli(
            ["simulate", "--from-manifest", str(manifest), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "manifest records a 'reduce' run, not 'simulate'" in err
        assert not (tmp_path / "x").exists()

    def test_recompute_cell_rejects_fit_manifest(self, shellfish_csv, tmp_path, capsys):
        manifest = self._write_run("fit", shellfish_csv, tmp_path / "fit", capsys)
        with pytest.raises(ArgumentError, match="'fit' run, not 'simulate'"):
            recompute_cell_from_manifest(manifest, point_id=0, n=60, method="np")

    def _replay_edited(self, shellfish_csv, tmp_path, capsys, command="reduce", **extra):
        """Replay into tmp_path / "wanted" a run recorded in tmp_path / "red",
        its manifest's options updated with extra."""
        manifest = self._write_run(command, shellfish_csv, tmp_path / "red", capsys)
        data = json.loads(manifest.read_text())
        data["config"]["options"].update(extra)
        manifest.write_text(json.dumps(data))
        return run_cli(
            [command, "--input", str(shellfish_csv), "--response", "muscle_mass",
             "--from-manifest", str(manifest), "--out", str(tmp_path / "wanted")],
            capsys,
        )

    def test_manifest_cannot_redirect_out(self, shellfish_csv, tmp_path, capsys):
        hijack = tmp_path / "hijack"
        code, _, err = self._replay_edited(shellfish_csv, tmp_path, capsys, out=str(hijack))
        assert code == 3
        assert "manifest option 'out' is not a reduce option" in err
        assert not hijack.exists()
        assert not (tmp_path / "wanted").exists()

    def test_legacy_seed_option_replays(self, shellfish_csv, tmp_path, capsys):
        # manifests of older versions record "seed" for every subcommand
        code, _, _ = self._replay_edited(shellfish_csv, tmp_path, capsys, seed=0)
        assert code == 0
        for name in ("basis.csv", "basis_meta.json"):
            assert (tmp_path / "wanted" / name).read_bytes() == \
                (tmp_path / "red" / name).read_bytes()

    @pytest.mark.parametrize("command", ["reduce", "fit", "predict"])
    def test_manifest_records_the_parsers_flags(self, command, shellfish_csv, tmp_path,
                                                capsys):
        """A manifest's options are its subcommand's every flag but --out,
        --config, --from-manifest and --threads."""
        manifest = self._write_run(command, shellfish_csv, tmp_path / "run", capsys)
        parser = cli._build_parser()._subparsers._group_actions[0].choices[command]
        flags = {a.dest for a in parser._actions} - {"help", "out", "config", "from_manifest",
                                                     "threads"}
        assert set(json.loads(manifest.read_text())["config"]["options"]) == flags

    def test_older_fit_manifest_replays(self, shellfish_csv, tmp_path, capsys):
        """Older versions recorded predict's test_csv, always null, for fit."""
        code, _, _ = self._replay_edited(shellfish_csv, tmp_path, capsys, "fit", test_csv=None)
        assert code == 0
        assert (tmp_path / "wanted" / "predictions.json").read_bytes() == \
            (tmp_path / "red" / "predictions.json").read_bytes()

    @pytest.mark.parametrize("command, extra", [
        ("fit", {"bogus": None}), ("fit", {"bogus": 1}), ("fit", {"test_csv": "new.csv"}),
        ("reduce", {"test_csv": None}), ("fit", {"threads": 2}),
    ], ids=["null", "value", "fit-test-csv", "reduce-null-test-csv", "threads"])
    def test_option_the_subcommand_does_not_record_exits_3(self, command, extra,
                                                           shellfish_csv, tmp_path, capsys):
        code, _, err = self._replay_edited(shellfish_csv, tmp_path, capsys, command, **extra)
        assert code == 3
        assert f"manifest option {next(iter(extra))!r} is not a {command} option" in err
        assert not (tmp_path / "wanted").exists()

    def test_changed_input_exits_3(self, shellfish_csv, tmp_path, capsys):
        manifest = self._write_run("fit", shellfish_csv, tmp_path / "fit", capsys)
        with open(shellfish_csv, "a") as fh:
            fh.write("200.0,70.0,40.0,30.0,12.0\n")
        code, out, err = run_cli(
            ["fit", "--input", str(shellfish_csv), "--response", "muscle_mass",
             "--from-manifest", str(manifest), "--out", str(tmp_path / "replay")], capsys)
        assert (code, out) == (3, "")
        assert err == (f"error: manifest input {shellfish_csv} has changed since the recorded "
                       "run (digest mismatch); outputs would not reproduce\n")
        assert not (tmp_path / "replay").exists()


class TestOptionSources:
    """argv, --config and --from-manifest go through the subcommand's own
    parser, so types and choices hold for each; argv comes last and wins."""

    def _data(self, shellfish_csv):
        return ["--input", str(shellfish_csv), "--response", "muscle_mass"]

    def test_abbreviated_flag_beats_config_file(self, shellfish_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method = sir\n")
        code, out, _ = run_cli(
            ["reduce", *self._data(shellfish_csv), "--meth", "pfc", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["method"] == "pfc"

    @pytest.mark.parametrize("line", ["d = 1.5", "h = abc", "skip_bad_rows = maybe",
                                      "threads = 0"])
    def test_config_value_of_wrong_type_exits_2(self, line, shellfish_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        code, _, err = run_cli(
            ["fit", *self._data(shellfish_csv), "--config", str(cfg)], capsys)
        assert code == 2
        assert f"argument --{line.split()[0].replace('_', '-')}:" in err

    def test_config_transform_yields_to_argv(self, shellfish_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("transform = length=log,width=log\n")
        base = ["reduce", *self._data(shellfish_csv), "--config", str(cfg)]
        code, out, _ = run_cli(base, capsys)
        assert code == 0
        assert json.loads(out)["diagnostics"]["transforms"] == [["length", "log"],
                                                                ["width", "log"]]
        code, out, _ = run_cli(base + ["--transform", "height=log"], capsys)
        assert code == 0
        assert json.loads(out)["diagnostics"]["transforms"] == [["height", "log"]]

    def test_comma_transform_on_argv(self, shellfish_csv, capsys):
        base = ["fit", *self._data(shellfish_csv)]
        code, joined, _ = run_cli(base + ["--transform", "length=log,width=log"], capsys)
        assert code == 0
        code, repeated, _ = run_cli(
            base + ["--transform", "length=log", "--transform", "width=log"], capsys)
        assert code == 0
        assert joined == repeated

    @pytest.mark.parametrize("argv", [
        ["simulate", "--model", "1", "--ns", "60,x"],
        ["fit", "--bandwidth-kind", "loocv", "--cv-grid", "0.2,zz"],
        ["kernel-check", "--custom-poly", "1,q"],
    ], ids=["ns", "cv-grid", "custom-poly"])
    def test_bad_comma_list_exits_2(self, argv, shellfish_csv, tmp_path, capsys):
        data = self._data(shellfish_csv) if argv[0] == "fit" else []
        code, _, err = run_cli([*argv, *data, "--out", str(tmp_path / "x")], capsys)
        assert code == 2
        assert "bad comma list" in err

    @pytest.mark.parametrize("argv, message", [
        (["reduce", "--input", "{csv}", "--response", "muscle_mass", "--transform", "length"],
         "transform must look like column=op, got 'length'"),
        (["simulate", "--model", "1"], "simulate requires --out <directory>"),
        (["simulate", "--out", "{out}"],
         "simulate requires --model 1 or --model 2 (or --from-manifest)"),
    ], ids=["transform-without-op", "simulate-without-out", "simulate-without-model"])
    def test_malformed_or_missing_argument_exits_2(self, argv, message, shellfish_csv, tmp_path,
                                                   capsys):
        argv = [a.format(csv=shellfish_csv, out=tmp_path / "x") for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_must_be_positive(self, value, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--model", "1", "--ns", "60", "--nrep", "2", "--points", "1",
             "--threads", value, "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "argument --threads: must be a positive integer" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["kernel-check", "reduce"])
    def test_threads_only_where_accepted(self, command, shellfish_csv, capsys):
        data = self._data(shellfish_csv) if command == "reduce" else []
        code, _, err = run_cli([command, *data, "--threads", "2"], capsys)
        assert code == 2
        assert "unrecognized arguments: --threads 2" in err

    def _reduce_run(self, shellfish_csv, out_dir, capsys, extra=()):
        code, out, _ = run_cli(
            ["reduce", *self._data(shellfish_csv), "--out", str(out_dir), *extra], capsys)
        assert code == 0
        return out, out_dir / "manifest.json"

    @pytest.mark.parametrize("flag", [["--method", "sir"], ["--meth", "pfc"],
                                      ["--ridge", "0.1"], ["--transform", "length=log"],
                                      ["--skip-bad-rows"]], ids=" ".join)
    def test_flag_conflicting_with_manifest_exits_2(self, flag, shellfish_csv, tmp_path,
                                                    capsys):
        _, manifest = self._reduce_run(shellfish_csv, tmp_path / "red", capsys)
        code, _, err = run_cli(
            ["reduce", *self._data(shellfish_csv), "--from-manifest", str(manifest),
             *flag, "--out", str(tmp_path / "replay")],
            capsys,
        )
        assert code == 2
        name = {"--meth": "--method"}.get(flag[0], flag[0])
        assert f"{name} conflicts with the manifest" in err
        assert not (tmp_path / "replay").exists()

    def test_flag_agreeing_with_manifest_replays(self, shellfish_csv, tmp_path, capsys):
        extra = ["--method", "pfc", "--transform", "length=log"]
        out, manifest = self._reduce_run(shellfish_csv, tmp_path / "red", capsys, extra)
        code, replay, _ = run_cli(
            ["reduce", *self._data(shellfish_csv), "--from-manifest", str(manifest), *extra],
            capsys,
        )
        assert code == 0
        assert replay == out

    def test_config_file_cannot_name_a_manifest(self, shellfish_csv, tmp_path, capsys):
        _, manifest = self._reduce_run(shellfish_csv, tmp_path / "red", capsys)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"from-manifest = {manifest}\n")
        code, _, err = run_cli(
            ["reduce", *self._data(shellfish_csv), "--config", str(cfg)], capsys)
        assert code == 2
        assert "--from-manifest must be given on the command line" in err

    def test_simulate_replay_rejects_plan_flags(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["simulate", "--model", "1", "--ns", "60", "--nrep", "2", "--points", "1",
             "--out", str(tmp_path / "sim")],
            capsys,
        )
        assert code == 0
        code, _, err = run_cli(
            ["simulate", "--from-manifest", str(tmp_path / "sim" / "manifest.json"),
             "--ns", "500", "--nrep", "50", "--out", str(tmp_path / "replay")],
            capsys,
        )
        assert code == 2
        assert "--nrep cannot change the plan" in err
        assert not (tmp_path / "replay").exists()

    def test_replay_of_every_value_type(self, shellfish_csv, tmp_path, capsys):
        plot = tmp_path / "plot.csv"
        first, second = tmp_path / "first", tmp_path / "second"
        code, out, _ = run_cli(
            ["fit", *self._data(shellfish_csv),
             "--transform", "length=log", "--transform", "muscle_mass=log",
             "--kernel", "epanechnikov", "--allow-nonsmooth-kernel",
             "--bandwidth-kind", "loocv", "--cv-grid", "0.2,0.4", "--ci-level", "0.9",
             "--plot-data", str(plot), "--out", str(first)],
            capsys,
        )
        assert code == 0
        options = json.loads((first / "manifest.json").read_text())["config"]["options"]
        assert options["transform"] == ["length=log", "muscle_mass=log"]
        assert options["allow_nonsmooth_kernel"] is True
        assert (options["h"], options["ci_level"]) == (None, 0.9)
        assert options["cv_grid"] == "0.2,0.4"
        assert options["exponent"] is None and options["basis"] is None
        plot_bytes = plot.read_bytes()
        code, replay, _ = run_cli(
            ["fit", *self._data(shellfish_csv), "--from-manifest",
             str(first / "manifest.json"), "--out", str(second)],
            capsys,
        )
        assert code == 0
        assert replay == out
        for name in ("predictions.json", "manifest.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes(), name
        assert plot.read_bytes() == plot_bytes


class TestSimulate:
    def run_small(self, out_dir, capsys, extra=()):
        return run_cli(
            [
                "simulate", "--model", "1", "--ns", "60,90", "--nrep", "12",
                "--points", "2", "--methods", "np,npr,nprt",
                "--nprt-reduction", "pls", "--seed", "5",
                "--out", str(out_dir), *extra,
            ],
            capsys,
        )

    def test_outputs_and_layout(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code, _, _ = self.run_small(
            out_dir, capsys, extra=["--equivalence", "--coverage"]
        )
        assert code == 0
        for name in (
            "emse.csv", "manifest.json", "density_0.csv", "density_1.csv",
            "equivalence.csv", "coverage.csv",
        ):
            assert (out_dir / name).exists(), name
        with open(out_dir / "emse.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 2 points x 2 ns x 3 methods
        assert len(rows) == 12
        assert {r["method"] for r in rows} == {"NP", "NPR", "NPRT"}
        assert all(r["true_mse"] != "" for r in rows)  # known truth for this model

    def test_columns_are_the_record_fields_in_order(self, tmp_path, capsys):
        """Each table's header is its record type's field list, and its rows
        lead with the same fields; DictReader would not see the order."""
        out_dir = tmp_path / "sim"
        code, _, _ = self.run_small(out_dir, capsys, extra=["--equivalence", "--coverage"])
        assert code == 0
        tables = {}
        for name in ("emse.csv", "equivalence.csv", "coverage.csv"):
            with open(out_dir / name, newline="") as fh:
                tables[name] = list(csv.reader(fh))
        assert tables["emse.csv"][0] == ["point_id", "n", "method", "emse", "variance",
                                         "mean_estimate", "true_mse", "n_rep", "n_missing"]
        assert tables["equivalence.csv"][0] == ["n", "h", "median_stat", "n_used", "n_missing"]
        assert tables["coverage.csv"][0] == ["n", "level", "coverage", "n_used", "n_excluded",
                                             "truth", "median_ci_width"]
        assert tables["emse.csv"][1][:3] + tables["emse.csv"][1][-2:] == ["0", "60", "NP", "12", "0"]
        assert [row[0] for row in tables["equivalence.csv"][1:]] == ["60", "90"]
        assert tables["coverage.csv"][1][:2] == ["90", "0.95"]

    def test_equivalence_runs_nprt_on_the_chosen_reduction(self, tmp_path, capsys):
        """equivalence.csv of a root_n_oracle run holds equivalence_view of the
        oracle columns fitted with root_n_oracle on the run's plan, not pls's."""
        rows = {}
        for reduction in ("pls", "root_n_oracle"):
            out_dir = tmp_path / reduction
            code, _, _ = run_cli(["simulate", "--model", "1", "--ns", "60,90", "--nrep", "12",
                                  "--points", "1", "--methods", "npr", "--seed", "5",
                                  "--nprt-reduction", reduction, "--equivalence",
                                  "--out", str(out_dir)], capsys)
            assert code == 0
            with open(out_dir / "equivalence.csv", newline="") as fh:
                rows[reduction] = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        manifest = json.loads((tmp_path / "root_n_oracle" / "manifest.json").read_text())
        plan = simulation_plan_from_config(manifest["config"])
        table = simulate.run_replications(plan.model_cfg, simulate.oracle_specs("root_n_oracle"),
                                          plan.ns, plan.test_points, plan.n_rep)
        assert rows["root_n_oracle"] == [list(astuple(r)) for r in simulate.equivalence_view(table)]
        assert rows["root_n_oracle"] != rows["pls"]

    @pytest.mark.parametrize("flags", [
        ["--h", "0.5"],
        ["--bandwidth-kind", "fixed", "--h", "0.5", "--exponent-dim", "reduced_d"],
        ["--bandwidth-kind", "power_rule", "--cv-grid", "0.2,0.4"],
    ], ids=["h-power", "exponent-dim-fixed", "grid-power"])
    def test_flag_the_kind_ignores_exits_2(self, tmp_path, capsys, flags):
        out_dir = tmp_path / "sim"
        code, _, err = self.run_small(out_dir, capsys, extra=flags)
        assert code == 2
        assert f"error: {flags[-2]} is not used by bandwidth kind" in err
        assert not out_dir.exists()

    def test_from_manifest_reproduces_bytes(self, tmp_path, capsys):
        first = tmp_path / "sim1"
        second = tmp_path / "sim2"
        code, _, _ = self.run_small(
            first, capsys, extra=["--equivalence", "--coverage", "--threads", "2"]
        )
        assert code == 0
        code, _, _ = run_cli(
            [
                "simulate", "--from-manifest", str(first / "manifest.json"),
                "--out", str(second), "--threads", "1",
            ],
            capsys,
        )
        assert code == 0
        for name in ("emse.csv", "density_0.csv", "density_1.csv",
                     "equivalence.csv", "coverage.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_one_replication_pass(self, tmp_path, capsys, monkeypatch):
        """The tables draw each (n, rep) dataset once and fit PLS once on it:
        12 reps at 2 sizes give 24 draws and 24 fits with both experiments."""
        counts = {"gen_model1": 0, "fit": 0}

        def counted(name):
            original = getattr(simulate, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(simulate, name, counted(name))
        code, _, _ = self.run_small(tmp_path / "sim", capsys,
                                    extra=["--equivalence", "--coverage"])
        assert code == 0
        assert counts == {"gen_model1": 24, "fit": 24}

    def test_experiments_leave_emse_outputs_alone(self, tmp_path, capsys):
        """emse.csv, the densities and the missing rate are the same with and
        without the experiments' columns, and every plan method's cell still
        recomputes from a manifest that has them."""
        runs = {}
        for name, extra in (("plain", []), ("both", ["--equivalence", "--coverage"])):
            code, out, _ = self.run_small(tmp_path / name, capsys, extra=extra)
            assert code == 0
            runs[name] = out[out.index("(missing rate"):]
        assert runs["plain"] == runs["both"]
        names = sorted(p.name for p in (tmp_path / "plain").iterdir()
                       if p.name == "emse.csv" or p.name.startswith("density_"))
        assert names == ["density_0.csv", "density_1.csv", "emse.csv"]
        for name in names:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "both" / name).read_bytes()
        manifest = tmp_path / "both" / "manifest.json"
        plan = simulation_plan_from_config(json.loads(manifest.read_text())["config"])
        assert [m.label for m in plan.methods] == ["NP", "NPR", "NPRT", "NPR@X0", "NPRT@X0"]
        assert all(m.label == m.label.upper() for m in plan.methods)
        with open(tmp_path / "both" / "emse.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["point_id"] != "1" or row["n"] != "90":
                continue
            cell = recompute_cell_from_manifest(manifest, point_id=1, n=90,
                                                method=row["method"].lower())
            assert cell.method == row["method"]
            assert (repr(cell.emse), repr(cell.mean_estimate)) == (row["emse"], row["mean_estimate"])

    def test_recompute_cell_matches_table(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        code, _, _ = self.run_small(out_dir, capsys)
        assert code == 0
        with open(out_dir / "emse.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in (rows[0], rows[-1]):
            cell = recompute_cell_from_manifest(
                out_dir / "manifest.json",
                point_id=int(row["point_id"]),
                n=int(row["n"]),
                method=row["method"],
            )
            assert repr(cell.emse) == row["emse"]
            assert repr(cell.mean_estimate) == row["mean_estimate"]

    def test_model2_table(self, tmp_path, capsys):
        out_dir = tmp_path / "sim2"
        code, _, _ = run_cli(
            [
                "simulate", "--model", "2", "--ns", "120", "--nrep", "6",
                "--points", "2", "--methods", "np,nprt",
                "--nprt-reduction", "pfc", "--seed", "8", "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        with open(out_dir / "emse.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["true_mse"] == "" for r in rows)  # no closed-form truth here
        # the default rule, recorded as asdict(BandwidthRule)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["bandwidth"] == {
            "kind": "power_rule", "constant": 10.0, "exponent_dim": "ambient_p",
            "h_fixed": None, "cv_grid": None, "exponent": None,
        }

    @pytest.mark.parametrize("flags,constant", [
        ([], 10.0),
        (["--exponent-dim", "ambient_p"], 10.0),
        (["--bandwidth-kind", "power_rule"], 10.0),
        (["--bandwidth-constant", "5"], 5.0),
    ], ids=["default", "restated-exponent-dim", "restated-kind", "constant-5"])
    def test_model2_power_rule_flags_keep_default_fields(self, tmp_path, capsys, flags,
                                                         constant):
        """Power-rule flags replace only their own fields of the model's
        default rule; restating a default records the default block."""
        out_dir = tmp_path / "sim2"
        code, _, _ = run_cli(
            [
                "simulate", "--model", "2", "--ns", "120", "--nrep", "2",
                "--points", "2", "--methods", "np", "--seed", "8",
                "--out", str(out_dir), *flags,
            ],
            capsys,
        )
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["bandwidth"] == {
            "kind": "power_rule", "constant": constant, "exponent_dim": "ambient_p",
            "h_fixed": None, "cv_grid": None, "exponent": None,
        }

    def _model2_manifest(self, out_dir, capsys):
        code, _, _ = run_cli(
            ["simulate", "--model", "2", "--ns", "40", "--nrep", "10", "--points", "1",
             "--methods", "np,nprt", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        return out_dir / "manifest.json"

    def test_older_model2_manifest_replays(self, tmp_path, capsys):
        """A manifest of an older version, which also recorded the test point
        count as "n_points", replays byte for byte, its digest checked."""
        manifest = self._model2_manifest(tmp_path / "first", capsys)
        data = json.loads(manifest.read_text())
        assert "n_points" not in data["config"]
        assert list(data["input_digests"]) == ["model2_s.csv"]
        data["config"]["n_points"] = 1
        manifest.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        second = tmp_path / "second"
        code, _, _ = run_cli(["simulate", "--from-manifest", str(manifest),
                              "--out", str(second)], capsys)
        assert code == 0
        for name in ("emse.csv", "density_0.csv", "manifest.json"):
            assert (second / name).read_bytes() == (tmp_path / "first" / name).read_bytes(), name

    def test_changed_package_data_exits_3(self, tmp_path, capsys):
        """Both simulate readers check the recorded digest of model 2's S
        before any work."""
        manifest = self._model2_manifest(tmp_path / "first", capsys)
        data = json.loads(manifest.read_text())
        data["input_digests"]["model2_s.csv"] = "0" * 64
        manifest.write_text(json.dumps(data))
        message = ("manifest input model2_s.csv has changed since the recorded run "
                   "(digest mismatch); outputs would not reproduce")
        code, out, err = run_cli(["simulate", "--from-manifest", str(manifest),
                                  "--out", str(tmp_path / "x")], capsys)
        assert (code, out, err) == (3, "", f"error: {message}\n")
        assert not (tmp_path / "x").exists()
        with pytest.raises(DataError, match=re.escape(message)):
            recompute_cell_from_manifest(manifest, point_id=0, n=40, method="np")

    def test_model2_rejects_model1_experiments(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "simulate", "--model", "2", "--ns", "120", "--nrep", "5",
                "--points", "2", "--methods", "np", "--seed", "8",
                "--equivalence", "--out", str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 2

    def test_model2_manifest_with_coverage_exits_2(self, tmp_path, capsys):
        """A replayed plan is checked as a fresh one is, before any file."""
        first = tmp_path / "sim2"
        code, _, _ = run_cli(
            ["simulate", "--model", "2", "--ns", "60", "--nrep", "2", "--points", "1",
             "--methods", "np", "--out", str(first)],
            capsys,
        )
        assert code == 0
        manifest = first / "manifest.json"
        data = json.loads(manifest.read_text())
        data["config"]["coverage"] = True
        manifest.write_text(json.dumps(data))
        code, _, err = run_cli(
            ["simulate", "--from-manifest", str(manifest), "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "need model 1 (known truth), got model 2" in err
        assert not (tmp_path / "x").exists()

    def test_coverage_level_outside_unit_interval_exits_2(self, tmp_path, capsys):
        out_dir = tmp_path / "x"
        code, _, err = self.run_small(out_dir, capsys,
                                      extra=["--coverage", "--coverage-level", "1.5"])
        assert code == 2
        assert "coverage level must lie in (0, 1), got 1.5" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("extra", [["--coverage-level", "nan"],
                                       ["--coverage", "--coverage-level", "inf"]])
    def test_non_finite_coverage_level_exits_2(self, tmp_path, capsys, extra):
        """The plan's coverage_level is a finite number, with or without --coverage."""
        out_dir = tmp_path / "x"
        code, _, err = self.run_small(out_dir, capsys, extra=extra)
        assert code == 2
        assert f"argument --coverage-level: must be a finite number, got {extra[-1]!r}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("methods", [["npr"],["nprt", "--nprt-reduction", "root_n_oracle"],
                                         ["nprt", "--nprt-reduction", "wrong_direction"]])
    def test_one_direction_with_d_2_exits_2(self, methods, tmp_path, capsys):
        code, _, err = run_cli(
            [
                "simulate", "--model", "1", "--ns", "60", "--nrep", "3",
                "--points", "2", "--methods", *methods, "--d", "2",
                "--out", str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 2
        assert "needs d=1" in err
        assert not (tmp_path / "x").exists()

    def test_bad_method_exits_2(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "simulate", "--model", "1", "--ns", "60", "--nrep", "3",
                "--points", "2", "--methods", "np,magic",
                "--out", str(tmp_path / "x"),
            ],
            capsys,
        )
        assert code == 2


class TestConsoleScript:
    def test_entry_point_runs(self):
        # the child imports the rednw under test, installed or not
        root = str(Path(rednw.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rednw.cli", "kernel-check",
             "--profile", "uniform", "--dim", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["norm_const"] == 0.5

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency (an independent quadrature oracle)
        root = str(Path(rednw.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rednw, rednw.cli\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


# each bad file's bytes, None for no file and "dir" for a directory; the
# non-numeric cell sits in a file of each flag's own layout
BAD_FILES = {
    "missing": None,
    "directory": "dir",
    "empty": b"",
    "not-utf8": b"\xff\xfe\x00\x01",
    "comment-only": b"# only a comment\n",
    "non-numeric": {"--input": b"a,b,y\n1.0,2.0,3.0\n1.0,x,3.0\n", "--test-csv": b"a,b\n1.0,x\n",
                    "--basis": b"1.0,x\n"},
}
# every input flag, by its command line; a manifest flag is named after its
# subcommand
GOOD = ["--input", "{good}", "--response", "y"]
INPUT_FLAGS = {
    "--input": ["fit", "--input", "{bad}", "--response", "y"],
    "--test-csv": ["predict", *GOOD, "--test-csv", "{bad}"],
    "--basis": ["fit", *GOOD, "--basis", "{bad}"],
    "--config": ["fit", *GOOD, "--config", "{bad}"],
    "--from-manifest-fit": ["fit", *GOOD, "--from-manifest", "{bad}"],
    "--from-manifest-reduce": ["reduce", *GOOD, "--from-manifest", "{bad}"],
    "--from-manifest-simulate": ["simulate", "--from-manifest", "{bad}", "--out", "{sim}"],
}
# an empty or comment-only option file holds no options, and only the CSV
# layouts hold numbers
NOT_FAULTS = {("empty", "--config"), ("comment-only", "--config"),
              *(("non-numeric", f) for f in INPUT_FLAGS if f not in BAD_FILES["non-numeric"])}
# one child process per fault, spread over the readers; comment-only --basis
# is the file numpy's loadtxt would warn on
CHILD_CASES = {"missing": "--config", "directory": "--from-manifest-simulate",
               "empty": "--from-manifest-fit", "not-utf8": "--config",
               "comment-only": "--basis", "non-numeric": "--input"}


def write_good_csv(path):
    write_table(path, ["a", "b", "y"], np.random.default_rng(0).standard_normal((20, 3)))
    return path


def bad_file_argv(tmp_path, kind, flag):
    """The command line of flag's case of the bad file kind, and the file."""
    good = write_good_csv(tmp_path / "good.csv")
    bad = tmp_path / "bad.csv"
    content = BAD_FILES[kind]
    if isinstance(content, dict):
        content = content[flag]
    if content == "dir":
        bad.mkdir()
    elif content is not None:
        bad.write_bytes(content)
    paths = {"good": good, "bad": bad, "sim": tmp_path / "sim"}
    return [a.format(**paths) for a in INPUT_FLAGS[flag]], bad


class TestBadInputFiles:
    @pytest.mark.parametrize("kind, flag", [
        pytest.param(kind, flag, id=f"{kind}-{flag}")
        for kind in BAD_FILES for flag in INPUT_FLAGS if (kind, flag) not in NOT_FAULTS])
    def test_one_error_line_naming_the_file(self, tmp_path, capsys, kind, flag):
        """Exit 3 with one `error:` line naming the file, and no output; a
        warning would raise here, since pytest makes every warning an error."""
        argv, bad = bad_file_argv(tmp_path, kind, flag)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad) in err
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("kind", list(CHILD_CASES))
    def test_no_traceback_or_warning_in_a_child(self, tmp_path, kind):
        """The same in a child process run as `python -W error -m rednw.cli`:
        stderr holds the one `error:` line, no traceback and no warning."""
        argv, bad = bad_file_argv(tmp_path, kind, CHILD_CASES[kind])
        root = str(Path(rednw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rednw.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert str(bad) in proc.stderr
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr

    @pytest.mark.parametrize("flag", ["--input", "--basis"])
    def test_recorded_input_now_a_directory(self, tmp_path, capsys, flag):
        """A manifest input that is now a directory fails its digest check as
        a DataError naming it."""
        data = write_good_csv(tmp_path / "data.csv")
        code, _, _ = run_cli(["reduce", "--input", str(data), "--response", "y",
                              "--out", str(tmp_path / "red")], capsys)
        assert code == 0
        replay = ["fit", "--input", str(data), "--response", "y",
                  "--basis", str(tmp_path / "red" / "basis.csv")]
        assert run_cli([*replay, "--out", str(tmp_path / "fit")], capsys)[0] == 0
        moved = data if flag == "--input" else tmp_path / "red" / "basis.csv"
        moved.unlink()
        moved.mkdir()
        code, out, err = run_cli([*replay, "--from-manifest", str(tmp_path / "fit" / "manifest.json")],
                                 capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {moved}: cannot read manifest input (Is a directory)\n"


def _no_work(*args, **kwargs):
    raise AssertionError("the command started its work")


# a small simulate plan: 2 replications, so no density files
SIM = ["--model", "1", "--ns", "60", "--nrep", "2", "--points", "2"]


# one fault of each class an argument check stops before numpy sees it, and
# the one line it gives
ARGUMENT_FAULTS = {
    "ridge-nan": (["reduce", *GOOD, "--method", "pfc", "--ridge", "nan"],
                  "ridge must be finite and >= 0, got nan"),
    "ridge-inf": (["reduce", *GOOD, "--method", "pfc", "--ridge", "inf"],
                  "ridge must be finite and >= 0, got inf"),
    "custom-poly-empty": (["kernel-check", "--custom-poly", ","],
                          "--custom-poly ',' holds no coefficient"),
    "custom-poly-blank": (["kernel-check", "--custom-poly", ""],
                          "--custom-poly '' holds no coefficient"),
    "dim-252": (["kernel-check", "--dim", "252"],
                "kernel dimension 252 is too large for support radius 1: the kernel's "
                "constants overflow a float"),
    "dim-1e30": (["kernel-check", "--dim", str(10 ** 30)],
                 f"kernel dimension {10 ** 30} is too large for support radius 1: the "
                 "kernel's constants overflow a float"),
    # a profile value past the float range: numpy warned and the run ended
    # in a traceback. The polynomial is bounded, so a constant that is not
    # finite is a range error naming R and d
    "poly-square-overflow": (["kernel-check", "--custom-poly", "1e200,-1e200"],
                             "kernel dimension 1 is too large for support radius 1: the "
                             "kernel's constants overflow a float"),
    "poly-value-overflow": (["kernel-check", "--custom-poly", "1e308,1e308"],
                            "kernel dimension 1 is too large for support radius 1: the "
                            "kernel's constants overflow a float"),
    "radius-1e300": (["kernel-check", "--custom-poly", "1,0,-1", "--support-radius", "1e300"],
                     "kernel dimension 1 is too large for support radius 1e+300: the "
                     "kernel's constants overflow a float"),
    "poly-nan": (["kernel-check", "--custom-poly", "1,nan"],
                 "profile coefficients must be finite and at least one, got (1.0, nan)"),
    # norm_const ** 2 overflows at the smallest dimension
    "radius-1e-300": (["kernel-check", "--custom-poly", "1,0,-1", "--support-radius", "1e-300"],
                      "kernel dimension 1 is too large for support radius 1e-300: the "
                      "kernel's constants overflow a float"),
}


class TestArgumentFaults:
    @pytest.mark.parametrize("fault", list(ARGUMENT_FAULTS))
    def test_one_error_line_in_a_child(self, tmp_path, fault):
        """Exit 2 under `python -W error -m rednw.cli`, with one `error:`
        line: no traceback, no numpy warning and no output."""
        argv, message = ARGUMENT_FAULTS[fault]
        argv = [a.format(good=write_good_csv(tmp_path / "good.csv")) for a in argv]
        root = str(Path(rednw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rednw.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == f"error: {message}\n"


class TestBadOutputPaths:
    """An --out that is a file or lies under one, and a --plot-data that is a
    directory or lies in none, exit 2 before any data file is read or any
    replication run, with one `error:` line naming the flag and the path."""

    @pytest.mark.parametrize("argv", [
        ["fit", *GOOD, "--out", "{file}"],
        ["reduce", *GOOD, "--out", "{file}"],
        ["simulate", "--model", "1", "--ns", "60", "--nrep", "2", "--points", "1",
         "--out", "{file}"],
        ["kernel-check", "--out", "{file}"],
        ["fit", *GOOD, "--out", "{file}/sub"],
        ["fit", *GOOD, "--plot-data", "{dir}"],
        ["predict", *GOOD, "--plot-data", "{dir}/none/plot.csv"],
    ], ids=["fit-out-file", "reduce-out-file", "simulate-out-file", "kernel-check-out-file",
            "out-under-a-file", "plot-data-directory", "plot-data-in-no-directory"])
    def test_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        for name in ("load_csv", "run_replications", "validate_conditions"):
            monkeypatch.setattr(cli, name, _no_work)
        (tmp_path / "file").write_text("x\n")
        (tmp_path / "dir").mkdir()
        argv = [a.format(good=tmp_path / "good.csv", file=tmp_path / "file", dir=tmp_path / "dir")
                for a in argv]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        # the last flag is the bad one
        assert err.startswith(f"error: {argv[-2]} {argv[-1]}: ") and err.count("\n") == 1
        assert (tmp_path / "file").read_text() == "x\n"

    @pytest.mark.parametrize("argv, name", [
        (["kernel-check"], "kernel_check.json"),
        (["reduce", *GOOD], "basis.csv"),
        (["reduce", *GOOD], "basis_meta.json"),
        (["reduce", *GOOD], "manifest.json"),
        (["fit", *GOOD, "--method", "np"], "predictions.json"),
        (["predict", *GOOD], "manifest.json"),
        (["simulate", *SIM], "emse.csv"),
        (["simulate", *SIM], "manifest.json"),
        (["simulate", *SIM, "--nrep", "10"], "density_1.csv"),
        (["simulate", *SIM, "--equivalence"], "equivalence.csv"),
        (["simulate", *SIM, "--coverage"], "coverage.csv"),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_directory_at_an_output_name_exits_2(self, tmp_path, capsys, monkeypatch, argv, name):
        """A directory where the run would write one of its files exits 2
        before any work, with one `error:` line naming it; simulate's names
        follow its plan."""
        for fn in ("load_csv", "run_replications", "validate_conditions"):
            monkeypatch.setattr(cli, fn, _no_work)
        write_good_csv(tmp_path / "good.csv")
        (tmp_path / "out" / name).mkdir(parents=True)
        argv = [a.format(good=tmp_path / "good.csv") for a in argv] + ["--out", str(tmp_path / "out")]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: --out {tmp_path / 'out'}: {tmp_path / 'out' / name} is a directory")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path / "out") == [name]

    @pytest.mark.parametrize("argv, name", [
        (["kernel-check"], "manifest.json"),
        (["simulate", *SIM], "density_0.csv"),
        (["simulate", *SIM], "coverage.csv"),
    ], ids=["kernel-check-manifest", "density-below-10-reps", "coverage-not-asked"])
    def test_directory_at_a_name_not_written_is_left_alone(self, tmp_path, capsys, argv, name):
        (tmp_path / "out" / name).mkdir(parents=True)
        code, _, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
        assert (code, err) == (0, "")
        assert (tmp_path / "out" / name).is_dir()


# each malformed manifest: the field named in the error, and the change to a
# good fit manifest's JSON tree
BAD_MANIFESTS = {
    "top-list": ("JSON", lambda m: []),
    "top-string": ("JSON", lambda m: "fit"),
    "config-list": ("field 'config'", lambda m: {**m, "config": []}),
    "config-string": ("field 'config'", lambda m: {**m, "config": "x"}),
    "options-list": ("field 'config.options'", lambda m: {**m, "config": {"options": []}}),
    "digests-list": ("field 'input_digests'", lambda m: {**m, "input_digests": []}),
    "digest-number": ("field 'input_digests'", lambda m: {**m, "input_digests": {"good.csv": 5}}),
    "seeds-list": ("field 'seeds'", lambda m: {**m, "seeds": []}),
    "outputs-string": ("field 'outputs'", lambda m: {**m, "outputs": "predictions.json"}),
    "outputs-number": ("field 'outputs'", lambda m: {**m, "outputs": [1]}),
}


class TestBadManifestShape:
    """A --from-manifest file that is valid JSON of the wrong shape exits 3
    with one `error:` line naming the file and the field."""

    @staticmethod
    def bad_manifest(tmp_path, capsys, kind):
        good = write_good_csv(tmp_path / "good.csv")
        argv = ["fit", "--input", str(good), "--response", "y"]
        assert run_cli([*argv, "--out", str(tmp_path / "run")], capsys)[0] == 0
        field, change = BAD_MANIFESTS[kind]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(change(json.loads((tmp_path / "run" / "manifest.json").read_text()))))
        return [*argv, "--from-manifest", str(bad)], bad, field

    @pytest.mark.parametrize("kind", list(BAD_MANIFESTS))
    def test_exits_3_naming_the_field(self, tmp_path, capsys, kind):
        argv, bad, field = self.bad_manifest(tmp_path, capsys, kind)
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {bad}: manifest {field} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["reduce", "simulate"])
    def test_every_reader_checks_the_shape(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tool_version": "0", "command": command, "config": [],
                                   "seeds": {}, "input_digests": {}}))
        argv = (["reduce", "--input", str(write_good_csv(tmp_path / "good.csv")), "--response", "y"]
                if command == "reduce" else ["simulate", "--out", str(tmp_path / "sim")])
        code, out, err = run_cli([*argv, "--from-manifest", str(bad)], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: {bad}: manifest field 'config' must be an object\n"
        assert not (tmp_path / "sim").exists()

    def test_no_traceback_or_warning_in_a_child(self, tmp_path, capsys):
        argv, bad, field = self.bad_manifest(tmp_path, capsys, "top-list")
        root = str(Path(rednw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rednw.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == f"error: {bad}: manifest JSON must be an object\n"


# each simulate plan field of the wrong JSON type: the field named in the
# error, and the change to a good simulate manifest's config
PLAN_FAULTS = {
    "seed-float": ("seed", lambda c: {**c, "seed": 1.5}),
    "seed-string": ("seed", lambda c: {**c, "seed": "1"}),
    "seed-bool": ("seed", lambda c: {**c, "seed": True}),
    "n_rep-float": ("n_rep", lambda c: {**c, "n_rep": 3.7}),
    "model-float": ("model", lambda c: {**c, "model": 1.0}),
    "ns-float": ("ns", lambda c: {**c, "ns": [60.9]}),
    "ns-string": ("ns", lambda c: {**c, "ns": "60"}),
    "d-bool": ("d", lambda c: {**c, "d": True}),
    "methods-string": ("methods", lambda c: {**c, "methods": "np"}),
    "nprt_reduction-list": ("nprt_reduction", lambda c: {**c, "nprt_reduction": ["pls"]}),
    "equivalence-string": ("equivalence", lambda c: {**c, "equivalence": "yes"}),
    "level-string": ("coverage_level", lambda c: {**c, "coverage_level": "0.9"}),
    "level-huge-int": ("coverage_level",
                       lambda c: {**c, "coverage": True, "coverage_level": 10 ** 400}),
    "point-nan": ("test_points", lambda c: {**c, "test_points": [[math.nan] + [0.0] * 5]}),
    "point-inf": ("test_points", lambda c: {**c, "test_points": [[math.inf] + [0.0] * 5]}),
    "point-huge-int": ("test_points", lambda c: {**c, "test_points": [[10 ** 400] + [0.0] * 5]}),
}

# a small value of each JSON type, for the node swap
JSON_VALUES = {type(None): st.none(), bool: st.booleans(), int: st.integers(-3, 3),
               float: st.floats(-3.0, 3.0), str: st.text(max_size=3), list: st.just([]),
               dict: st.just({})}


def json_paths(node, path=()):
    """The path of every node below the root of a JSON tree."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


class TestSimulatePlanTypes:
    """Each simulate plan field has one JSON type: a replayed manifest whose
    field is of another exits 3 with one `error:` line naming the field."""

    @pytest.fixture(scope="class")
    def good_manifest(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sim") / "run"
        assert main(["simulate", "--model", "1", "--ns", "20", "--nrep", "2", "--points", "1",
                     "--methods", "np", "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())

    @staticmethod
    def replay_argv(tmp_path, manifest):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(manifest))
        return ["simulate", "--from-manifest", str(path), "--out", str(tmp_path / "out")]

    @pytest.mark.parametrize("kind", list(PLAN_FAULTS))
    def test_exits_3_naming_the_field(self, good_manifest, tmp_path, capsys, kind):
        field, change = PLAN_FAULTS[kind]
        manifest = {**good_manifest, "config": change(good_manifest["config"])}
        code, out, err = run_cli(self.replay_argv(tmp_path, manifest), capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: manifest config is incomplete or malformed: "
                              f"field {field!r} must be ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_huge_bandwidth_constant_exits_2(self, good_manifest, tmp_path, capsys):
        bandwidth = {**good_manifest["config"]["bandwidth"], "constant": 10 ** 400}
        manifest = {**good_manifest, "config": {**good_manifest["config"], "bandwidth": bandwidth}}
        code, out, err = run_cli(self.replay_argv(tmp_path, manifest), capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: bandwidth constant must be finite") and err.count("\n") == 1

    def test_bandwidth_field_the_kind_does_not_read_exits_2(self, good_manifest, tmp_path,
                                                               capsys):
        """A fixed rule's cv_grid and exponent were once dropped on replay."""
        bandwidth = {"kind": "fixed", "h_fixed": 0.9, "cv_grid": [0.1, 0.2], "exponent": 0.5}
        manifest = {**good_manifest, "config": {**good_manifest["config"], "bandwidth": bandwidth}}
        code, out, err = run_cli(self.replay_argv(tmp_path, manifest), capsys)
        assert (code, out) == (2, "")
        assert err == ("error: bandwidth kind 'fixed' does not read cv_grid; it must keep its "
                       "default None, got (0.1, 0.2)\n")
        assert not (tmp_path / "out").exists()

    def test_no_traceback_or_warning_in_a_child(self, good_manifest, tmp_path):
        """An int too large for a float once ended in an OverflowError traceback."""
        change = PLAN_FAULTS["point-huge-int"][1]
        manifest = {**good_manifest, "config": change(good_manifest["config"])}
        root = str(Path(rednw.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "rednw.cli",
                               *self.replay_argv(tmp_path, manifest)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == ("error: manifest config is incomplete or malformed: field "
                               "'test_points' must be a list of lists of finite numbers\n")

    @pytest.mark.parametrize("size", [10 ** 30, 2 ** 62], ids=["1e30", "2^62"])
    def test_size_past_numpy_address_range_exits_2(self, good_manifest, tmp_path, capsys, size):
        manifest = {**good_manifest, "config": {**good_manifest["config"], "ns": [size]}}
        code, out, err = run_cli(self.replay_argv(tmp_path, manifest), capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: sample size {size} is too large") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_any_one_node_swapped(self, good_manifest, data):
        """One node of a good manifest, anywhere in its tree, swapped for a
        small value of another JSON type: the replay exits 0, 2 or 3, and an
        exit 0 writes every output its manifest names."""
        path = data.draw(st.sampled_from(list(json_paths(good_manifest))), label="path")
        old = functools.reduce(operator.getitem, path, good_manifest)
        new = data.draw(st.one_of(*[values for kind, values in JSON_VALUES.items()
                                    if kind is not type(old)]), label="new")
        manifest = copy.deepcopy(good_manifest)
        functools.reduce(operator.getitem, path[:-1], manifest)[path[-1]] = new
        with tempfile.TemporaryDirectory() as tmp:
            argv = self.replay_argv(Path(tmp), manifest)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2
            assert code in (0, 2, 3)
            if code == 0:
                out = Path(argv[-1])
                written = json.loads((out / "manifest.json").read_text())["outputs"]
                assert written and all((out / name).is_file() for name in written)
