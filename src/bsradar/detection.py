"""Range-Doppler processing, CFAR detection, and truth scoring.

The matched filter is circular in fast time, consistent with the
simulator's integer-sample delay model, so a target at delay d peaks in
range bin d exactly.  The slow-time DFT is FFT-shifted so zero velocity
sits in the center column and closing targets land above it.

The CFAR runs down each velocity column: the noise floor for a cell is the
median of that column excluding the cell itself and ``guard`` cells on each
side, and a cell fires when its power reaches the floor plus the threshold
in dB.  Firing cells are then thinned to 3x3 local maxima so one physical
target yields one detection.

The exact median floor of a whole map comes from one sort per column and
no per-column Python loop: with each cell's guard-band ranks known, the
k-th remaining order statistic is the sorted position j that solves
``j = k + #{excluded ranks <= j}``, a fixed point reached for all cells
together in at most 2*guard + 2 vectorized passes (two or three in
practice).  The median, an order statistic, keeps the floor robust when
targets or interference share a column with the cell under test.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.ndimage import maximum_filter

from . import counters
from .counters import OpCounter
from .simulate import ChirpParams

# detections.csv columns; the sweep report adds a status column
REPORT_COLUMNS = (
    "scenario",
    "target_id",
    "method",
    "w_z",
    "w_x",
    "m_z",
    "m_x",
    "detected",
    "range_error_m",
    "velocity_error_mps",
)


@dataclass
class RangeDopplerMap:
    """Power map over (range bin, velocity bin) with its grid metadata."""

    power: np.ndarray
    range_resolution: float
    velocity_resolution: float

    @property
    def zero_velocity_bin(self) -> int:
        return self.power.shape[1] // 2


class Detection(NamedTuple):
    range_bin: int
    velocity_bin: int
    power_db_over_floor: float


@dataclass
class DetectionScore:
    """Grid-quantized range/velocity error for one target; misses carry inf."""

    target_id: int
    detected: bool
    range_error: float = float("inf")
    velocity_error: float = float("inf")
    range_error_bins: int | None = None
    velocity_error_bins: int | None = None


def range_doppler_map(
    output: np.ndarray,
    chirp_replica: np.ndarray,
    chirp: ChirpParams,
    ops: OpCounter | None = None,
) -> RangeDopplerMap:
    """Matched-filter each pulse, then DFT across pulses per range bin."""
    series = np.asarray(output)
    if series.ndim != 2:
        raise ValueError("expected (pulse_samples, num_pulses) beamformer output")
    n_fast, n_pulses = series.shape
    replica = np.asarray(chirp_replica)
    if replica.shape[0] != n_fast:
        raise ValueError(f"replica length {replica.shape[0]} != fast-time length {n_fast}")

    matched = np.fft.ifft(
        np.fft.fft(series, axis=0) * np.conj(np.fft.fft(replica))[:, None], axis=0
    )
    doppler = np.fft.fftshift(np.fft.fft(matched, axis=1), axes=1)
    if ops is not None:
        ops.add("range_doppler", counters.range_doppler_mults(n_fast, n_pulses))
    return RangeDopplerMap(
        np.abs(doppler) ** 2, chirp.range_resolution, chirp.velocity_resolution
    )


def _median_excluding_window(values: np.ndarray, guard: int) -> np.ndarray:
    """Exact per-cell median down axis 0 of ``values``, less the cell and its guard.

    ``values`` is one column or a (rows, cols) map.  Every column is sorted
    once; for each cell the k-th order statistic of what remains is the
    sorted position j solving ``j = k + #{excluded ranks <= j}``, found for
    all cells at once by iterating from j = k until no cell moves (at most
    2*guard + 2 passes).  It is the same value a brute-force delete-and-median
    would produce.  The floor is a value of the remaining multiset, so how
    the sort orders ties cannot change it.
    """
    arr = np.asarray(values)
    n = arr.shape[0]
    width = 2 * guard + 1
    cols = np.ascontiguousarray(arr.reshape(n, -1).T)
    m = cols.shape[0]
    order = np.argsort(cols, axis=1)
    srt = np.take_along_axis(cols, order, axis=1)
    # ranks padded by ``guard`` on each side with a sentinel no j reaches, so
    # slice d of ``padded`` holds the rank of every cell's neighbor at d - guard
    padded = np.full((m, n + 2 * guard), np.iinfo(np.int32).max, dtype=np.int32)
    ranks = np.arange(n, dtype=np.int32)[None, :]
    np.put_along_axis(padded[:, guard : guard + n], order, ranks, axis=1)
    idx = np.arange(n)
    remaining = n - (np.minimum(idx + guard, n - 1) - np.maximum(idx - guard, 0) + 1)

    def order_stat(k: np.ndarray) -> np.ndarray:
        k = k.astype(np.int32)
        j = np.broadcast_to(k, (m, n))
        for _ in range(width + 1):
            excluded_below = np.zeros((m, n), dtype=np.int32)
            for d in range(width):
                excluded_below += padded[:, d : d + n] <= j
            step = k + excluded_below
            if np.array_equal(step, j):
                break
            j = step
        return np.take_along_axis(srt, j, axis=1)

    lo = order_stat((remaining - 1) // 2)
    hi = order_stat(remaining // 2)
    return (0.5 * (lo + hi)).T.reshape(arr.shape)


def cfar_noise_floor(power: np.ndarray, guard_cells: int = 4) -> np.ndarray:
    """Per-cell median noise floor for every velocity column of a power map.

    Each column needs more than ``2 * guard_cells + 1`` rows, so that every
    cell keeps at least one cell outside its guard band.
    """
    if guard_cells < 0:
        raise ValueError(f"guard_cells: {guard_cells} must be >= 0")
    power = np.asarray(power)
    if power.ndim != 2:
        raise ValueError(f"expected a (range, velocity) power map, got {power.shape}")
    if power.shape[0] <= 2 * guard_cells + 1:
        raise ValueError(
            f"guard_cells: a guard band of {guard_cells} leaves no reference cells "
            f"in {power.shape[0]} rows (needs more than {2 * guard_cells + 1})"
        )
    return np.ascontiguousarray(_median_excluding_window(power, guard_cells), dtype=float)


def cfar_detect(
    rd_map: RangeDopplerMap,
    threshold_db: float = 10.0,
    guard_cells: int = 4,
) -> list[Detection]:
    """Threshold against the per-column floor, then keep 3x3 local maxima.

    Scaling the whole map by a positive constant leaves the detection set
    unchanged (the median floor is scale-equivariant).
    """
    power = rd_map.power
    if power.size == 0:
        raise ValueError("empty range-Doppler map")
    floor = cfar_noise_floor(power, guard_cells)
    factor = 10.0 ** (threshold_db / 10.0)
    above = (power >= floor * factor) & (power > 0)

    local_max = power >= maximum_filter(power, size=3, mode="constant", cval=-np.inf)
    hits = np.argwhere(above & local_max)
    with np.errstate(divide="ignore"):
        margins = 10.0 * np.log10(power / np.where(floor > 0, floor, np.inf))
    return [
        Detection(int(r), int(v), float(margins[r, v]))
        for r, v in sorted(map(tuple, hits))
    ]


def score_detections(
    detections: Sequence[Detection],
    truth_range_bin: int,
    truth_velocity_bin: int,
    rd_map: RangeDopplerMap,
    target_id: int = 0,
    gate_range_bins: int = 5,
    gate_velocity_bins: int = 3,
) -> DetectionScore:
    """Match the nearest in-gate detection to the truth bins.

    Errors are grid-quantized (integer bins times the map resolution); with
    no detection inside the gate the target is scored as a miss with
    symbolic infinite errors.
    """
    best = None
    for det in detections:
        dr = det.range_bin - truth_range_bin
        dv = det.velocity_bin - truth_velocity_bin
        if abs(dr) > gate_range_bins or abs(dv) > gate_velocity_bins:
            continue
        key = (dr * dr + dv * dv, -det.power_db_over_floor)
        if best is None or key < best[0]:
            best = (key, dr, dv)
    if best is None:
        return DetectionScore(target_id, False)
    _, dr, dv = best
    return DetectionScore(
        target_id,
        True,
        abs(dr) * rd_map.range_resolution,
        abs(dv) * rd_map.velocity_resolution,
        abs(dr),
        abs(dv),
    )


def write_detection_report(
    path,
    rows: Sequence[dict],
    columns: Sequence[str] = REPORT_COLUMNS,
    kind: str = "detection",
) -> None:
    """Report CSV under a ``# bsradar <kind> report v1`` line; one row per
    (scenario, target, configuration), keys outside ``columns`` dropped."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# bsradar {kind} report v1\n")
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
