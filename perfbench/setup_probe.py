"""Time one set-up of a workload in a fresh interpreter.

Prints ``{"setup_s": ...}``: the seconds from interpreter start-up to a
built scenario, which covers importing bsradar, numpy and scipy.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

from time import perf_counter

_T0 = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    bsradar = workloads.import_bsradar(Path(__file__).resolve().parent.parent)
    workloads.build_scenario(bsradar, workload, seed)
    print(json.dumps({"setup_s": perf_counter() - _T0}))


if __name__ == "__main__":
    main()
