"""The benchmark's correctness gate on the d > 1 and d = 1 NW paths, at smoke size."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def test_sim_large_smoke_matches_reference():
    """sim_large's full-space NP column (p = 20) runs the Gram-form radii;
    every pass is checked against the recorded reference outputs."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "sim_large", "--smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


def test_fit_loocv_smoke_matches_reference():
    """fit_loocv runs the d = 1 leave-one-out bandwidth search and the
    in-sample fits; every pass is checked against the recorded outputs."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "fit_loocv", "--smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
