"""The benchmark's correctness gate on every workload, at smoke size."""

import importlib
import importlib.util
import json
import re
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


# the rebinding tracer's targets that no longer exist; their time counts to
# the caller. A target that joins this list, nw_batch above all, leaves its
# layer's metrics reading 0 without failing the run.
UNTRACED = sorted(["simulate.pls_fit", "simulate.pfc_fit", "simulate.sir_fit",
                   "dataio.pls_fit", "dataio.pfc_fit", "dataio.sir_fit", "dataio.oracle_basis",
                   "kernels.RadialKernel.weights"])


def test_traced_fit_loocv_sees_the_batch_and_the_bandwidth_search():
    """The traced run of fit_loocv still wraps nw_batch and reads the
    leave-one-out search, and misses exactly the known targets."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "fit_loocv", "--smoke", "--seed", "0",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["npregress.points"]["value"] > 0
    assert metrics["npregress.loocv_s"]["value"] > 0
    missing = re.findall(r"trace: rednw\.(\S+) not found", proc.stdout + proc.stderr)
    assert sorted(missing) == UNTRACED


def test_tracer_targets_still_resolve(monkeypatch):
    """Every target of the rebinding tracer but the known-missing ones is a
    module-level name it can rebind (simulate.gen_model1, nw_batch,
    make_kernel, oracle_basis, ...), so a refactor that renames or hides
    one fails here instead of leaving its layer's metrics at 0."""
    spec = importlib.util.spec_from_file_location("bench_tracing", RUN.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    for _, path, _, _ in tracing.TARGETS:
        importlib.import_module(f"rednw.{path.split('.')[0]}")  # as the runs do
    unresolved = [f"{path}.{attr}" for _, path, attr, _ in tracing.TARGETS
                  if attr not in vars(tracing._owner(path) or object)]
    assert sorted(unresolved) == UNTRACED
    assert sorted(t[len("rednw."):] for t in tracing.missing_targets()) == UNTRACED
