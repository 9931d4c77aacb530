"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload a1-scene --seeds 1-10 [--trace 0] [--out FILE]

Runs ``run.py`` once per seed, one run at a time, and prints for every
metric the median, the quartiles (``statistics.quantiles(n=4)``) and the
quartile distance as a share of the median.  ``--out`` also writes those
figures and every run's result line as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct {result['correct']}, {result['failed']}/"
              f"{result['attempted']} failed; {values}", flush=True)

    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        summary[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "min": min(values), "max": max(values)}
        print(f"{name:34s} median {median:12.6g} {first['unit']:6s} "
              f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
             "trace": args.trace, "metrics": summary, "runs": runs}, indent=1) + "\n")
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
