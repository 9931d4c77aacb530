"""Show that the output checks accept roundoff and reject perturbed results.

    python3 perfbench/selftest.py

Builds a synthetic pipeline result (the stored A1 tallies, 20 targets,
~16k detections) and a small cube, derives references from them the way
``make_refs.py`` does, and runs ``checks.py`` on the unchanged outputs, on
roundoff-sized changes, and on perturbed ones.  Needs no bsradar run and
takes about a second.  Exits 1 if any case is judged wrongly.
"""

from __future__ import annotations

import copy
import sys
from collections import namedtuple
from types import SimpleNamespace

import numpy as np

import checks


# stand-in for bsradar.detection.Detection
Det = namedtuple("Det", "range_bin velocity_bin power_db_over_floor")


def fake_result(rng) -> SimpleNamespace:
    mults = checks.load_refs(0)[0]["a1"]
    detections = []
    for _ in range(20):
        n = int(rng.integers(150, 1200))
        bins = sorted(set(zip(rng.integers(0, 4096, n).tolist(), rng.integers(0, 64, n).tolist())))
        margins = 10.0 + rng.exponential(3.0, len(bins))
        detections.append([Det(r, v, float(m)) for (r, v), m in zip(bins, margins)])
    scores = [
        SimpleNamespace(detected=True, range_error_bins=0, velocity_error_bins=int(k % 2))
        for k in range(20)
    ]
    return SimpleNamespace(
        complexity=SimpleNamespace(stage_mults=dict(mults)),
        scores=scores,
        detections=detections,
    )


def shift_margins(result, fn):
    out = copy.deepcopy(result)
    out.detections = [[Det(d[0], d[1], fn(d[2])) for d in dets] for dets in out.detections]
    return out


def main() -> int:
    rng = np.random.default_rng(7)
    base = fake_result(rng)
    mults = {"a1": dict(sorted(base.complexity.stage_mults.items()))}
    per_seed = {"a1": checks.pipeline_reference(base)}

    def perturbed(edit):
        out = copy.deepcopy(base)
        edit(out)
        return out

    def flip_flag(r):
        r.scores[3].detected = False

    def bump_tally(r):
        r.complexity.stage_mults["apply"] += 1

    def move_bin(r):
        d = r.detections[5][10]
        r.detections[5][10] = Det(d[0] + 1, d[1], d[2])

    def drop_detection(r):
        del r.detections[7][0]

    def nudge_one_margin(r):
        d = r.detections[2][3]
        r.detections[2][3] = Det(d[0], d[1], d[2] + 3 * checks.MARGIN_STEP_DB / 4)

    noise = rng.uniform(-1, 1, 10**6) * checks.MARGIN_STEP_DB / 4 * 0.999
    noise_iter = iter(noise)
    cases = [
        ("unchanged result", base, True),
        ("relative 1e-12 roundoff on every margin",
         shift_margins(base, lambda m: m * (1 + 1e-12)), True),
        ("every margin moved by up to 1e-6 dB",
         shift_margins(base, lambda m: m + next(noise_iter)), True),
        ("a flipped detection flag", perturbed(flip_flag), False),
        ("a changed tally", perturbed(bump_tally), False),
        ("a moved detection", perturbed(move_bin), False),
        ("a dropped detection", perturbed(drop_detection), False),
        ("one margin off by 3e-6 dB", perturbed(nudge_one_margin), False),
    ]

    wrong = 0
    for label, result, should_pass in cases:
        errors = checks.check_pipeline("a1", result, mults, per_seed)
        wrong += report(label, errors, should_pass)
    # without a per-seed reference only the tallies are checked
    wrong += report("flipped flag, seed without references",
                    checks.check_pipeline("a1", perturbed(flip_flag), mults, None), True)
    wrong += report("changed tally, seed without references",
                    checks.check_pipeline("a1", perturbed(bump_tally), mults, None), False)

    def quantized(samples):
        return samples.real.astype(np.float32) + 1j * samples.imag.astype(np.float32)

    samples = rng.standard_normal((4, 64, 8)) + 1j * rng.standard_normal((4, 64, 8))
    flipped = quantized(samples).astype(complex)
    flipped.real.view(np.uint64)[2, 10, 3] ^= np.uint64(1 << 40)
    cube_ref = {"e2-cube": {"antenna_power": checks.antenna_power(SimpleNamespace(samples=samples))}}
    scaled = samples * (1 + 1e-6)
    cube_cases = [
        ("loaded cube is the float32 cube", samples, quantized(samples), True),
        ("loaded cube has one flipped bit", samples, flipped, False),
        ("loaded cube was not quantized", samples, samples, False),
        ("cube power off by 2e-6 relative", scaled, quantized(scaled), False),
    ]
    for label, src, loaded, should_pass in cube_cases:
        errors = checks.check_cube(
            SimpleNamespace(samples=src), SimpleNamespace(samples=loaded), cube_ref
        )
        wrong += report(label, errors, should_pass)

    print("all cases judged as expected" if not wrong else f"{wrong} cases judged wrongly")
    return 1 if wrong else 0


def report(label: str, errors: list[str], should_pass: bool) -> int:
    passed = not errors
    verdict = "accepted" if passed else "rejected"
    mark = "ok " if passed == should_pass else "BAD"
    detail = f" ({errors[0]})" if errors else ""
    print(f"{mark} {label}: {verdict}{detail}")
    return int(passed != should_pass)


if __name__ == "__main__":
    sys.exit(main())
