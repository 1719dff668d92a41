"""The benchmark's correctness gate on every workload, at smoke size."""

import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rednw import BandwidthRule, NWConfig, builtin_profile, make_kernel, nw_batch, oracle_basis

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


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", RUN.parent / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_still_resolve(monkeypatch):
    """Every target of the rebinding tracer but the known-missing ones is a
    module-level name it can rebind (simulate.gen_model1, nw_batch,
    make_kernel, oracle_basis, ...), so a refactor that renames or hides
    one fails here instead of leaving its layer's metrics at 0."""
    tracing = _load_tracing(monkeypatch)
    for _, path, _, _ in tracing.TARGETS:
        importlib.import_module(f"rednw.{path.split('.')[0]}")  # as the runs do
    unresolved = [f"{path}.{attr}" for _, path, attr, _ in tracing.TARGETS
                  if attr not in vars(tracing._owner(path) or object)]
    assert sorted(unresolved) == UNTRACED
    assert sorted(t[len("rednw."):] for t in tracing.missing_targets()) == UNTRACED


def test_after_batch_counts_the_failed_rows(monkeypatch):
    """The tracer's batch hook iterates nw_batch's result row by row; the
    empty windows it counts are the batch's failed rows."""
    tracing = _load_tracing(monkeypatch)
    rng = np.random.default_rng(5)
    X = rng.uniform(-1.0, 1.0, size=(60, 2))
    X0 = rng.uniform(-1.0, 1.0, size=(40, 2))
    X0[::3] += 50.0  # empty windows
    config = NWConfig(kernel=make_kernel(builtin_profile("triweight_poly3"), 1),
                      bandwidth=BandwidthRule(kind="fixed", h_fixed=0.3))
    args = (config, oracle_basis([[0.6, 0.8]]), X, rng.standard_normal(60), X0)
    batch = nw_batch(*args)
    tracer = tracing.Tracer()
    tracing._after_batch(tracer, args, {}, batch)
    counts = tracer.counts[tracer.pass_id]
    assert counts["npregress.empty_windows"] == np.count_nonzero(~batch.ok) == 14
    assert counts["npregress.points"] == len(X0)
