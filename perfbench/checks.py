"""Output checks: every timed operation is compared with stored references.

Seed-independent checks run for any seed:

* the exact ``stage_mults`` tallies of each processing operation (they
  depend on dimensions only);
* on ``e2-cube``, the loaded cube equals the float32 quantization of the
  synthesized cube bit for bit.

Seeds with a file ``refs/seed-<n>.json`` (written by ``make_refs.py``) also
get the per-seed checks:

* per-target detected flag and range/velocity error bins, exactly;
* per target, the count and the (range, velocity) bins of every CFAR
  detection, exactly, and every ``power_db_over_floor`` within roundoff
  (see ``MARGIN_STEP_DB``);
* on ``e2-cube``, the per-antenna mean power within ``POWER_RTOL``.

A run detects ~16k detections per operation, so the references store
digests, not the lists.  Margins are quantized on a grid of
``MARGIN_STEP_DB`` whose offset (0 or half a step) is chosen per reference
value so that the value sits at least a quarter step from a grid boundary.
A margin within a quarter step (1e-6 dB) of its reference therefore always
matches, and one off by three quarters of a step (3e-6 dB) or more never
does.  A 5e-16 relative change of the cube moves margins by ~1e-10 dB,
far inside that tolerance.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"
MARGIN_STEP_DB = 4e-6
POWER_RTOL = 1e-9


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def _margin_indices(margins: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    return np.floor(margins / MARGIN_STEP_DB + 0.5 * offsets).astype(np.int64)


def detection_digest(detections) -> dict:
    """Reference digest of one target's CFAR detections."""
    margins = np.array([d.power_db_over_floor for d in detections], dtype=float)
    frac = margins / MARGIN_STEP_DB - np.floor(margins / MARGIN_STEP_DB)
    offsets = ((frac < 0.25) | (frac >= 0.75)).astype(np.uint8)
    return {
        "n": len(detections),
        "bins": _sha([v for d in detections for v in (d.range_bin, d.velocity_bin)]),
        "offsets": base64.b64encode(np.packbits(offsets).tobytes()).decode(),
        "margins": _sha(_margin_indices(margins, offsets)),
        "margin_sum_db": float(margins.sum()),
    }


def _detection_errors(target: int, detections, ref: dict) -> list[str]:
    if len(detections) != ref["n"]:
        return [f"target {target}: {len(detections)} detections, reference {ref['n']}"]
    bins = [v for d in detections for v in (d.range_bin, d.velocity_bin)]
    if _sha(bins) != ref["bins"]:
        return [f"target {target}: detection bins differ from the reference"]
    margins = np.array([d.power_db_over_floor for d in detections], dtype=float)
    packed = np.frombuffer(base64.b64decode(ref["offsets"]), dtype=np.uint8)
    offsets = np.unpackbits(packed)[: len(margins)]
    if _sha(_margin_indices(margins, offsets)) != ref["margins"]:
        delta = float(margins.sum()) - ref["margin_sum_db"]
        return [
            f"target {target}: a detection margin is off by more than "
            f"{MARGIN_STEP_DB / 4:g} dB (sum differs by {delta:.3g} dB)"
        ]
    return []


def target_rows(result) -> list[list]:
    return [
        [int(s.detected), s.range_error_bins, s.velocity_error_bins]
        for s in result.scores
    ]


def pipeline_reference(result) -> dict:
    return {
        "targets": target_rows(result),
        "detections": [detection_digest(dets) for dets in result.detections],
    }


def antenna_power(cube) -> list[float]:
    return [float(np.vdot(row, row).real) / row.size for row in cube.samples]


def load_refs(seed: int) -> tuple[dict, dict | None]:
    """(seed-independent tallies, per-seed reference or None)."""
    mults = json.loads((REFS / "stage_mults.json").read_text())
    path = REFS / f"seed-{seed}.json"
    per_seed = json.loads(path.read_text()) if path.is_file() else None
    return mults, per_seed


def check_pipeline(kind: str, result, mults: dict, per_seed: dict | None) -> list[str]:
    """Errors of one process_cube / run_pipeline result against the references."""
    errors = []
    got, ref_mults = result.complexity.stage_mults, mults[kind]
    for stage in sorted(set(got) | set(ref_mults)):
        if got.get(stage) != ref_mults.get(stage):
            errors.append(
                f"stage_mults[{stage!r}] {got.get(stage)} != reference {ref_mults.get(stage)}"
            )
    if per_seed is None:
        return errors
    ref = per_seed[kind]
    rows = target_rows(result)
    for k, (row, want) in enumerate(zip(rows, ref["targets"])):
        if row != want:
            errors.append(f"target {k}: [detected, range bins, velocity bins] {row} != {want}")
    if len(rows) != len(ref["targets"]):
        errors.append(f"{len(rows)} targets scored, reference {len(ref['targets'])}")
    for k, (dets, want) in enumerate(zip(result.detections, ref["detections"])):
        errors.extend(_detection_errors(k, dets, want))
    return errors


def check_roundtrip(cube, loaded) -> list[str]:
    """The loaded cube must be the float32 quantization of ``cube``, bit for bit."""
    if loaded.samples.shape != cube.samples.shape:
        return [f"loaded shape {loaded.samples.shape} != {cube.samples.shape}"]
    for i, (row, back) in enumerate(zip(cube.samples, loaded.samples)):
        for part in ("real", "imag"):
            want = getattr(row, part).astype(np.float32).astype(np.float64)
            if not np.array_equal(getattr(back, part), want):
                return [f"antenna {i}: loaded {part} part is not the float32 cube"]
    return []


def check_cube(cube, loaded, per_seed: dict | None) -> list[str]:
    errors = check_roundtrip(cube, loaded)
    if per_seed is None:
        return errors
    got = np.array(antenna_power(cube))
    want = np.array(per_seed["e2-cube"]["antenna_power"])
    if got.shape != want.shape or not np.allclose(got, want, rtol=POWER_RTOL, atol=0.0):
        worst = float(np.max(np.abs(got / want - 1.0))) if got.shape == want.shape else None
        errors.append(f"per-antenna power differs from the reference (worst rel {worst})")
    return errors


def check(kind: str, output, mults: dict, per_seed: dict | None) -> list[str]:
    if kind == "e2-cube":
        cube, loaded, _size = output
        return check_cube(cube, loaded, per_seed)
    return check_pipeline(kind, output, mults, per_seed)
