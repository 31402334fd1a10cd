"""One set-up sample: import the library and build a workload's netlists.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.  Prints
the seconds from the start of this script, before ``import repro``,
until the engine is registered and the seeded netlists are built.
"""

import time

START = time.perf_counter()

import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.api import get_engine  # noqa: E402
from workloads import WORKLOADS, build_netlists  # noqa: E402


def main(workload_name: str, seed: int) -> None:
    workload = WORKLOADS[workload_name]
    get_engine(workload.engine)
    build_netlists(workload, seed)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
