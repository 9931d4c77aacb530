"""Write the output references the benchmark checks against.

    python3 perfbench/make_refs.py 0 1 2 ...

For each seed this runs every operation of every workload once and writes
``refs/seed-<n>.json``: per-target scores and detection digests for the
``a1``, ``e2-antenna`` and ``e2-bs4x8`` operations, and the per-antenna
power of the E2 cube.  ``refs/stage_mults.json`` holds the tallies, which
depend on dimensions only; it is written when absent and must agree with
every seed's run.  Regenerate references only from a commit whose outputs
are known good.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent


def reference(bsradar, seed: int) -> tuple[dict, dict]:
    a1 = workloads.Workload(
        bsradar, "a1-scene", workloads.build_scenario(bsradar, "a1-scene", seed), HERE
    )
    e2 = workloads.Workload(
        bsradar, "e2-methods", workloads.build_scenario(bsradar, "e2-methods", seed), HERE
    )
    e2.prepare()
    per_seed, mults = {}, {}
    for wl, kind in ((a1, "a1"), (e2, "e2-antenna"), (e2, "e2-bs4x8")):
        result = wl.run(kind)
        per_seed[kind] = checks.pipeline_reference(result)
        mults[kind] = dict(sorted(result.complexity.stage_mults.items()))
    per_seed["e2-cube"] = {"antenna_power": checks.antenna_power(e2.cube)}
    return per_seed, mults


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    bsradar = workloads.import_bsradar(HERE.parent)
    checks.REFS.mkdir(exist_ok=True)
    mults_path = checks.REFS / "stage_mults.json"
    for seed in map(int, argv):
        per_seed, mults = reference(bsradar, seed)
        if not mults_path.is_file():
            mults_path.write_text(json.dumps(mults, indent=1, sort_keys=True) + "\n")
        stored = json.loads(mults_path.read_text())
        if stored != mults:
            print(f"seed {seed}: tallies {mults} differ from {stored}", file=sys.stderr)
            return 1
        path = checks.REFS / f"seed-{seed}.json"
        path.write_text(json.dumps(per_seed, indent=1) + "\n")
        detected = {k: sum(t[0] for t in v["targets"]) for k, v in per_seed.items() if "targets" in v}
        print(f"seed {seed}: wrote {path.name}, targets detected {detected}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
