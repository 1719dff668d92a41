"""Self-test of the benchmark at smoke sizes.

    python3 -m pytest bench/test_bench.py

Kept out of the package's test suite (pytest collects `tests/` by default).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


def test_smoke_run_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "all",
                           "--seed", "3", "--seconds", "0.5", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    lines = set(proc.stdout.splitlines())
    for name in run.WORKLOADS:
        for metric, unit in {**run.END_TO_END, **run.PER_LAYER}.items():
            assert result["metrics"][f"{name}/{metric}"]["unit"] == unit
            value = result["metrics"][f"{name}/{metric}"]["value"]
            assert f"  {metric} {value:.6g} {unit}" in lines
    assert proc.stdout.count("correctness gate: PASS") == 2 * len(run.WORKLOADS)


def _perturbed(reference: dict, factor: float) -> dict:
    ref = json.loads(json.dumps(reference))
    if "cells" in ref:
        ref["cells"][0][5] *= factor  # the first cell's emse
    else:
        first = next(iter(ref["sample"]))
        ref["sample"][first][0] *= factor  # the first sampled estimate
    return ref


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("factor, passes", [(1 + 1e-6, False), (1 + 1e-12, True)])
def test_gate_rejects_a_perturbed_reference(name, factor, passes, monkeypatch, capsys):
    original = workloads.load_reference

    def load(*args):
        return _perturbed(original(*args), factor)

    monkeypatch.setattr(workloads, "load_reference", load)
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.1", "--smoke"])
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] is passes
    assert code == (0 if passes else 1)
    assert result["failed"] == (0 if passes else result["attempted"])


def test_refuses_to_run_without_the_program():
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sim_small",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
