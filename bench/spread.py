"""Run the benchmark several times with different seeds and report spreads.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 0]
                            [--trace 0|1] [--json FILE]

For each metric prints the median over the runs, the quartiles and the
spread (q3 - q1) / median, as `statistics.quantiles(values, n=4)` gives
them, and flags end-to-end metrics whose spread exceeds a third of their
bound in BENCHMARK.json. With --json, writes the per-metric summary there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    elapsed = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: {elapsed[-1]:.1f} s, correct={result['correct']}", flush=True)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = f"  <-- above a third of the bound {bound}"
        print(f"{name:28s} median {med:12.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}{flag}")
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "values": vals}
    print(f"run time: median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "trace": args.trace, "runs": args.runs,
             "first_seed": args.first_seed, "run_seconds": spec["run_seconds"],
             "metrics": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
