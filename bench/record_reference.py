"""Record the correctness gate's references from the program in this checkout.

    python3 bench/record_reference.py [WORKLOAD ...]

Runs one pass of each workload for every input seed, at full and smoke
sizes, and writes the digests to bench/reference/. The references in the
repository were recorded from the program at the commit that added the
benchmark; re-record them only when an intended change of the program's
outputs has been reviewed.
"""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import rednw  # noqa: E402
import workloads  # noqa: E402


def record(name: str, smoke: bool) -> dict:
    workload = workloads.catalogue(smoke)[name]
    seeds = {}
    with workloads.work_dir(BENCH, f"record-{os.getpid()}") as work:
        for seed in range(workloads.INPUT_SEEDS):
            inputs = workload.prepare(work, seed)
            seeds[str(seed)] = workload.finish(inputs, workload.execute(inputs, workload.threads))
    return {"workload": name, "sizes": workload.describe(),
            "rednw_version": rednw.__version__, "seeds": seeds}


def main() -> None:
    names = sys.argv[1:] or list(workloads.FULL)
    (BENCH / "reference").mkdir(exist_ok=True)
    for name in names:
        for smoke in (False, True):
            path = workloads.reference_path(BENCH, name, smoke)
            path.write_text(json.dumps(record(name, smoke), separators=(",", ":")) + "\n")
            print(f"wrote {path.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    main()
