"""The benchmark's correctness gate on every workload, at smoke size."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"


# sim_small: small unsorted batches at d = 1; sim_large: the d > 1
# Gram-form radii (p = 20); predict_csv: a sorted batch with empty windows;
# fit_loocv: the d = 1 leave-one-out bandwidth search and the in-sample fits
@pytest.mark.parametrize("workload", ["sim_small", "sim_large", "predict_csv", "fit_loocv"])
def test_smoke_matches_reference(workload):
    """Every pass is checked against the recorded reference outputs."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--smoke", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
