"""Print the seconds a fresh interpreter takes to import rednw and build a
workload's fixed objects (model config, kernels, test points).

Usage: python3 bench/setup_probe.py WORKLOAD SEED [--smoke]
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    bench = Path(__file__).resolve().parent
    sys.path[:0] = [str(bench.parent / "src"), str(bench)]
    import workloads  # imports numpy and rednw

    workload = workloads.catalogue("--smoke" in sys.argv)[sys.argv[1]]
    workload.fixed_objects(int(sys.argv[2]))
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
