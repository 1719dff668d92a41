"""Benchmark of rednw: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

NAME is one of sim_small, sim_large, predict_csv, fit_loocv, or "all", which
runs every workload untraced and traced in one process. The program is
imported from `src/` of the checkout this file sits in.

--trace 0 measures the end-to-end metrics with nothing wrapped. --trace 1 is
the traced run: it times untraced passes at 1 and 2 threads and passes with
every layer wrapped (see tracing.py), and reports the per-layer metrics.
Every pass is checked against the reference recorded from the program as it
was when the benchmark was added; the run exits 1 on any mismatch. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sim_small", "sim_large", "predict_csv", "fit_loocv")
THREAD_COUNTS = (1, 2)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "wall_s": "s", "items_per_s": "1/s", "cpu_s": "s", "peak_mb": "MB",
    "answered_frac": "frac", "setup_s": "s",
}
PER_LAYER = {
    "simulate.generate_s": "s", "simulate.generate_calls": "count",
    "simulate.harness_self_s": "s", "simulate.thread_speedup": "x",
    "reduction.fit_s": "s", "reduction.fit_calls": "count", "reduction.fit_failures": "count",
    "npregress.batch_s": "s", "npregress.points": "count", "npregress.us_per_point": "us",
    "npregress.window_fill": "frac", "npregress.empty_windows": "count",
    "npregress.loocv_s": "s", "npregress.loocv_peak_mb": "MB",
    "kernels.weights_s": "s", "kernels.weights_evals": "count",
    "kernels.make_kernel_s": "s", "kernels.make_kernel_calls": "count",
    "dataio.load_csv_s": "s", "dataio.load_csv_rows_per_s": "rows/s",
    "dataio.load_test_rows_s": "s", "dataio.sha256_s": "s",
    "dataio.workflow_self_s": "s", "dataio.write_table_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "bytes",
    "trace.overhead_s": "s", "trace.accounted_frac": "frac",
}


def import_program():
    """Put this checkout's src/ first on the path and import rednw from it."""
    if not (SRC / "rednw" / "__init__.py").is_file():
        raise SystemExit(f"error: no rednw package under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import rednw
    if SRC not in Path(rednw.__file__).resolve().parents:
        raise SystemExit(f"error: imported rednw from {rednw.__file__}, not from {SRC}")


def environment(workload) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_thread_vars": {v: os.environ.get(v) for v in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "harness_threads": workload.threads,
        "thread_counts_compared": list(THREAD_COUNTS),
    }


def timed_loop(seconds: float, step, min_steps: int) -> None:
    """Call step() until the next call would end past `seconds`."""
    start = time.perf_counter()
    done = 0
    while True:
        t0 = time.perf_counter()
        step()
        done += 1
        spent = time.perf_counter() - start
        if done >= min_steps and spent + (time.perf_counter() - t0) > seconds:
            return


def percentile_note(samples: list[float]) -> str:
    n = len(samples)
    note = (f"median {statistics.median(samples):.6g} over {n} samples "
            f"(min {min(samples):.6g}, max {max(samples):.6g})")
    if n >= 20:
        # the highest percentile that still has ten samples beyond it
        pct = 100 * (n - 10) // n
        note += f", p{pct} {sorted(samples)[n - 11]:.6g}"
    return note


class Runner:
    """Runs one workload's passes and checks each against the reference."""

    def __init__(self, name: str, seed: int, smoke: bool, work_dir: Path):
        import workloads
        self.compare = workloads.compare
        self.name, self.seed, self.smoke = name, seed, smoke
        self.workload = workloads.catalogue(smoke)[name]
        self.reference = workloads.load_reference(BENCH, name, smoke, seed)
        self.inputs = self.workload.prepare(work_dir, seed)
        self.checked = 0
        self.problems: list[str] = []

    def run(self, threads: int | None = None, span=contextlib.nullcontext):
        """One pass inside `span()`; returns (pass, wall seconds, cpu seconds)."""
        threads = self.workload.threads if threads is None else threads
        t0, c0 = time.perf_counter(), time.process_time()
        with span():
            result = self.workload.execute(self.inputs, threads)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        problems = self.compare(self.workload.finish(self.inputs, result), self.reference)
        self.checked += 1
        if problems:
            self.problems.append(f"pass {self.checked}: " + "; ".join(problems))
        return result, wall, cpu

    def verdict(self) -> dict:
        return {"correct": not self.problems, "attempted": self.checked,
                "failed": len(self.problems)}


def setup_seconds(name: str, seed: int, smoke: bool, probes: int) -> float:
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed)]
    if smoke:
        cmd.append("--smoke")
    times = [float(subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                                  text=True, timeout=120).stdout.split()[-1])
             for _ in range(probes)]
    return statistics.median(times)


def end_to_end(r: Runner, seconds: float) -> dict:
    probes = 1 if r.smoke else 5
    setup = setup_seconds(r.name, r.seed, r.smoke, probes)
    # the warm-up pass runs under tracemalloc: it fills caches, gives the
    # peak and is checked like every other pass
    tracemalloc.start()
    try:
        run, warm, _ = r.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"  setup_s: median of {probes} fresh interpreters; "
          f"warm-up pass under tracemalloc {warm:.3g} s")
    walls, cpus = [], []

    def step():
        nonlocal run
        run, wall, cpu = r.run()
        walls.append(wall)
        cpus.append(cpu)

    timed_loop(seconds, step, min_steps=3)
    produced = run.attempted - run.missing
    wall = statistics.median(walls)
    print(f"  wall_s: {percentile_note(walls)}")
    return {"wall_s": wall, "items_per_s": produced / wall,
            "cpu_s": statistics.median(cpus), "peak_mb": peak / 1e6,
            "answered_frac": produced / run.attempted, "setup_s": setup}


def per_layer(r: Runner, seconds: float) -> dict:
    import rednw
    import tracing

    tracer = tracing.Tracer()

    def traced(count_windows: bool = False):
        tracer.pass_id += 1
        tracer.count_windows = count_windows
        with tracing.installed(tracer):
            run, wall, _ = r.run(span=lambda: tracer.span(r.workload.root, root=True))
        tracer.count_windows = False
        return run, wall

    first, _ = traced(count_windows=True)
    counted = tracer.counts[tracer.pass_id]
    plain = {t: [] for t in THREAD_COUNTS}
    exact = {}
    traced_walls = {}

    def cycle():
        for t in THREAD_COUNTS:
            run, wall, _ = r.run(threads=t)
            plain[t].append(wall)
            exact[t] = r.workload.exact(run)
        _, wall = traced()
        traced_walls[tracer.pass_id] = wall

    timed_loop(seconds, cycle, min_steps=1)
    if len(set(exact.values())) != 1:
        r.problems.append(f"outputs differ between {THREAD_COUNTS} threads")

    loocv_s = loocv_peak = 0.0
    args = tracer.last_batch_args
    if args is not None and args[0].bandwidth.kind == "loocv":
        config, basis, X, Y = args[:4]
        W = rednw.reduce(basis, X)

        def loocv():
            return rednw.bandwidth(config.bandwidth, n=W.shape[0], p=basis.p, d=config.d,
                                   kernel=config.kernel, W=W, Y=Y)
        t0 = time.perf_counter()
        loocv()
        loocv_s = time.perf_counter() - t0
        tracemalloc.start()
        try:
            loocv()
            loocv_peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    per_pass = []
    for pid, wall in traced_walls.items():
        times = tracing.pass_times([s for s in tracer.spans if s.pass_id == pid])
        counts = tracer.counts[pid]

        def t(name, key="self"):
            return times[name][key] if name in times else 0.0
        points = counts["npregress.points"]
        load_total = t("dataio.load_csv", "total")
        per_pass.append({
            "simulate.generate_s": t("simulate.generate"),
            "simulate.generate_calls": t("simulate.generate", "calls"),
            "simulate.harness_self_s": t("simulate.run_replications"),
            "reduction.fit_s": t("reduction.fit"),
            "reduction.fit_calls": t("reduction.fit", "calls"),
            "reduction.fit_failures": t("reduction.fit", "failed"),
            "npregress.batch_s": t("npregress.nw_batch"),
            "npregress.points": points,
            "npregress.us_per_point": 1e6 * t("npregress.nw_batch", "total") / points if points else 0.0,
            "npregress.empty_windows": counts["npregress.empty_windows"],
            "kernels.weights_s": t("kernels.weights"),
            "kernels.weights_evals": counts["kernels.weights_evals"],
            "kernels.make_kernel_s": t("kernels.make_kernel"),
            "kernels.make_kernel_calls": t("kernels.make_kernel", "calls"),
            "dataio.load_csv_s": t("dataio.load_csv"),
            "dataio.load_csv_rows_per_s": counts["dataio.load_csv_rows"] / load_total if load_total else 0.0,
            "dataio.load_test_rows_s": t("dataio.load_test_rows"),
            "dataio.sha256_s": t("dataio.sha256_file"),
            "dataio.workflow_self_s": t("dataio.run_predict_workflow"),
            "dataio.write_table_s": t("dataio.write_table"),
            "cli.self_s": t("cli.main"),
            "trace.accounted_frac": sum(v["self"] for v in times.values()) / wall,
        })
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    metrics.update({
        "simulate.thread_speedup": statistics.median(plain[1]) / statistics.median(plain[2]),
        "npregress.window_fill": counted["window.fill_sum"] / counted["window.queries"]
        if counted["window.queries"] else 0.0,
        "npregress.loocv_s": loocv_s,
        "npregress.loocv_peak_mb": loocv_peak,
        "cli.bytes_out": first.bytes_out,
        "trace.overhead_s": (statistics.median(traced_walls.values())
                             - statistics.median(plain[r.workload.threads])),
    })
    spans = BENCH / "_traces" / f"{r.name}{'_smoke' if r.smoke else ''}_seed{r.seed}.jsonl.gz"
    spans.parent.mkdir(exist_ok=True)
    tracer.write(spans)
    print(f"  spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")
    for missing in tracing.missing_targets():
        print(f"  trace: {missing} not found; its time counts to its caller")
    print(f"  untraced wall_s at {THREAD_COUNTS} threads: "
          + ", ".join(percentile_note(plain[t]) for t in THREAD_COUNTS))
    print(f"  traced wall_s: {percentile_note(list(traced_walls.values()))}")
    return {k: int(round(metrics[k])) if PER_LAYER[k] in ("count", "bytes") else metrics[k]
            for k in PER_LAYER}


def run_workload(name: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    import workloads
    with workloads.work_dir(BENCH, str(os.getpid())) as work:
        r = Runner(name, seed, smoke, work)
        print(f"workload {name}: {r.workload.describe()}; seed {seed} "
              f"(input seed {workloads.input_seed(seed)}), trace {trace}")
        print(f"  env {json.dumps(environment(r.workload), sort_keys=True)}")
        values = per_layer(r, seconds) if trace else end_to_end(r, seconds)
    units = PER_LAYER if trace else END_TO_END
    for metric, value in values.items():
        print(f"  {metric} {value:.6g} {units[metric]}")
    verdict = r.verdict()
    print(f"  correctness gate: {'PASS' if verdict['correct'] else 'FAIL'} "
          f"({verdict['attempted']} passes checked)")
    for problem in r.problems:
        print(f"    {problem}")
    verdict["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return verdict


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; a few seconds")
    args = parser.parse_args(argv)
    import_program()

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (0, 1):
                part = run_workload(name, args.seed, args.seconds, trace, args.smoke)
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update({f"{name}/{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
