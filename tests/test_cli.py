"""End-to-end tests for the command line interface."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rednw
from rednw.cli import main
from rednw.dataio import recompute_cell_from_manifest, synthetic_shellfish, write_table


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
                "--support-radius", "1.0", "--smoothness-order", "0",
                "--dim", "1",
            ],
            capsys,
        )
        assert code == 0
        rep = json.loads(out)
        assert abs(rep["norm_const"] - 0.75) <= 1e-10

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

    def test_np_from_config_file_exits_2(self, shellfish_csv, tmp_path, capsys):
        # config files bypass argparse choices; reduce has no identity "reduction"
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
        assert "unknown reduction method 'np'" in err

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
        """fit with --out must snapshot its options even though it lacks
        predict-only flags like --test-csv."""
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
        assert manifest["config"]["options"]["test_csv"] is None
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

    def test_unknown_flag_exits_2(self, shellfish_csv, capsys):
        code, _, _ = run_cli(
            ["fit", "--input", str(shellfish_csv), "--wat"], capsys
        )
        assert code == 2

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
