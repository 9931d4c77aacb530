"""Range-Doppler processing, CFAR detection, and truth scoring.

The matched filter is circular in fast time, consistent with the
simulator's integer-sample delay model, so a target at delay d peaks in
range bin d exactly.  The slow-time DFT is FFT-shifted so zero velocity
sits in the center column, :attr:`RangeDopplerMap.zero_velocity_bin`, and
closing targets land above it.

The CFAR runs down each velocity column: a cell's noise floor is the
median of its column without the cell itself and ``guard`` cells on each
side, and a cell fires when its power reaches the floor plus the threshold
in dB and it is a 3x3 local maximum, so one physical target yields one
detection.  The median, an order statistic, keeps the floor robust when
targets or interference share a column with the cell under test.

No floor is computed for the whole map, only at the cells that can fire.
Each column is sorted once.  Removing a guard band never lowers an order
statistic, so the column's sorted value at the smallest median rank bounds
every floor in it from below; only positive 3x3 local maxima that clear
that bound times the threshold are candidates, a few hundred of a map's
quarter million, and the exact floor is computed at those cells alone.  At
a candidate whose band holds ``w`` cells, the k-th smallest of the rest is
the sorted value at the smallest position ``p`` in ``k ... k + w`` with
``p - #{band <= sorted[p]} >= k``, which is exact under ties.

The CFAR's two dials have one rule each, stated here: :func:`check_guard`
(a guard band leaves reference cells) and :func:`check_threshold` (a finite
threshold in dB).  :func:`cfar_detect` applies both to every call, and
``PipelineConfig.validate`` asks both of a run's config, so a bad value
reads the same, naming the config field, from a run and from a direct call.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import is_count, is_finite
from .simulate import ChirpParams

#: A detection scores its target within this many range and velocity bins.
GATE_RANGE_BINS = 5
GATE_VELOCITY_BINS = 3

# detections.csv columns; the sweep report adds point and status columns
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
# a report kind's format version: sweep v2 added the point column
REPORT_VERSIONS = {"detection": 1, "sweep": 2}


@dataclass
class RangeDopplerMap:
    """Power map over (range bin, velocity bin) with its grid metadata."""

    power: np.ndarray
    range_resolution: float
    velocity_resolution: float

    @property
    def zero_velocity_bin(self) -> int:
        """The column of zero radial velocity, where fftshift puts it."""
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
    output: np.ndarray, chirp_replica: np.ndarray, chirp: ChirpParams
) -> RangeDopplerMap:
    """Matched-filter each pulse, then DFT across pulses per range bin."""
    series = np.asarray(output)
    if series.ndim != 2:
        raise ValueError("expected (pulse_samples, num_pulses) beamformer output")
    n_fast = series.shape[0]
    replica = np.asarray(chirp_replica)
    if replica.shape[0] != n_fast:
        raise ValueError(f"replica length {replica.shape[0]} != fast-time length {n_fast}")

    matched = np.fft.ifft(
        np.fft.fft(series, axis=0) * np.conj(np.fft.fft(replica))[:, None], axis=0
    )
    doppler = np.fft.fftshift(np.fft.fft(matched, axis=1), axes=1)
    return RangeDopplerMap(
        np.abs(doppler) ** 2, chirp.range_resolution, chirp.velocity_resolution
    )


def check_guard(guard_cells: int, pulse_samples: int) -> None:
    """Reject a guard band the CFAR cannot run: an int of at least 0 cells,
    and a column of ``pulse_samples`` range bins keeps a reference cell
    outside every band, i.e. more than ``2 * guard_cells + 1`` rows."""
    if not is_count(guard_cells):
        raise ValueError(f"cfar_guard_cells: {guard_cells!r} is not an integer")
    if guard_cells < 0:
        raise ValueError(f"cfar_guard_cells: {guard_cells} must be >= 0")
    if pulse_samples <= 2 * guard_cells + 1:
        raise ValueError(
            f"cfar_guard_cells: a guard band of {guard_cells} leaves no reference cells "
            f"in pulse_samples {pulse_samples} (needs more than {2 * guard_cells + 1})"
        )


def check_threshold(threshold_db: float) -> None:
    """Reject a CFAR threshold that is not a finite real number of dB."""
    if not is_finite(threshold_db):
        raise ValueError(f"cfar_threshold_db: {threshold_db!r} is not a finite number")


def _check_map(power: np.ndarray, guard_cells: int) -> np.ndarray:
    """A 2-D power map whose range columns pass :func:`check_guard`."""
    power = np.asarray(power)
    if power.ndim != 2:
        raise ValueError(f"expected a (range, velocity) power map, got {power.shape}")
    check_guard(guard_cells, power.shape[0])
    return power


def _median_ranks(rows: np.ndarray, n: int, guard: int):
    """Ranks (lo, hi) of the median of what a row's guard band leaves of n."""
    band = np.minimum(rows + guard, n - 1) - np.maximum(rows - guard, 0) + 1
    remaining = n - band
    return (remaining - 1) // 2, remaining // 2


def _floor_at(
    power: np.ndarray, columns: np.ndarray, rows: np.ndarray, cols: np.ndarray, guard: int
) -> np.ndarray:
    """Exact median floor at the cells ``(rows[i], cols[i])`` of ``power``.

    ``columns[c]`` is column c of ``power`` sorted.  The k-th smallest value
    x (from 0) left by a guard band of ``b`` cells is ``columns[c, p]`` for
    the smallest p with ``p - #{band <= columns[c, p]} >= k``: such a p has
    at least k + 1 remaining values at or below ``columns[c, p]``, so that
    value is no smaller than x, while ``p = k + #{band <= x}``, which lies
    in ``k ... k + b``, holds x and passes.  Ties are counted by value, so
    how the sort orders them cannot change the floor.
    """
    n = power.shape[0]
    k_lo, k_hi = _median_ranks(rows, n, guard)
    # both searches end by k_hi + b <= k_lo + 2 * guard + 2; a position
    # clipped to the last row comes after the one that passes
    positions = np.minimum(k_lo[:, None] + np.arange(2 * guard + 3), n - 1)
    values = columns[cols[:, None], positions]
    in_band_below = np.zeros(values.shape, dtype=np.intp)
    for d in range(-guard, guard + 1):
        r = rows + d
        inside = (r >= 0) & (r < n)
        neighbor = power[np.clip(r, 0, n - 1), cols]
        in_band_below += inside[:, None] & (neighbor[:, None] <= values)
    slack = positions - in_band_below
    cell = np.arange(len(rows))
    lo = values[cell, np.argmax(slack >= k_lo[:, None], axis=1)]
    hi = values[cell, np.argmax(slack >= k_hi[:, None], axis=1)]
    return 0.5 * (lo + hi)


def _sorted_columns(power: np.ndarray) -> np.ndarray:
    """Row c holds column c of ``power`` in ascending order."""
    columns = power.T.copy()
    columns.sort(axis=1)
    return columns


def _local_maxima(power: np.ndarray) -> np.ndarray:
    """Cells that reach every 3x3 neighbor inside the map, compared through
    shifted views, so no padded copy of the map is made."""
    n, n_v = power.shape
    keep = np.ones(power.shape, dtype=bool)
    for dr, dc in ((0, 1), (1, -1), (1, 0), (1, 1)):
        # every pair of neighbors (a, a + (dr, dc)), compared both ways
        a = (slice(0, n - dr), slice(max(0, -dc), n_v - max(0, dc)))
        b = (slice(dr, n), slice(max(0, dc), n_v - max(0, -dc)))
        keep[a] &= power[a] >= power[b]
        keep[b] &= power[b] >= power[a]
    return keep


def cfar_detect(
    rd_map: RangeDopplerMap,
    threshold_db: float = 10.0,
    guard_cells: int = 4,
) -> list[Detection]:
    """Threshold against the per-column floor, then keep 3x3 local maxima.

    The floor is exact but computed only at positive local maxima that
    reach their column's lowest possible floor times the threshold; no
    other cell can fire.  Scaling the whole map by a positive constant
    leaves the detection set unchanged (the median floor is
    scale-equivariant).  A threshold or guard band that
    :func:`check_threshold` or :func:`check_guard` rejects raises its
    ``ValueError``.
    """
    power = rd_map.power
    if power.size == 0:
        raise ValueError("empty range-Doppler map")
    check_threshold(threshold_db)
    power = _check_map(power, guard_cells)
    columns = _sorted_columns(power)
    k_lo, _ = _median_ranks(np.arange(power.shape[0]), power.shape[0], guard_cells)
    # no floor in a column lies below its sorted value at the smallest rank
    lowest = columns[:, k_lo.min()]
    factor = 10.0 ** (threshold_db / 10.0)

    rows, cols = np.nonzero(_local_maxima(power) & (power > 0) & (power >= lowest * factor))
    floor = _floor_at(power, columns, rows, cols, guard_cells)
    peak = power[rows, cols]
    fires = peak >= floor * factor
    with np.errstate(divide="ignore"):
        margins = 10.0 * np.log10(peak / np.where(floor > 0, floor, np.inf))
    return [
        Detection(int(r), int(v), float(m))
        for r, v, m in zip(rows[fires], cols[fires], margins[fires])
    ]


def score_detections(
    detections: Sequence[Detection],
    truth_range_bin: int,
    truth_velocity_bin: int,
    rd_map: RangeDopplerMap,
    target_id: int = 0,
) -> DetectionScore:
    """Match the nearest in-gate detection to the truth bins.

    The gate is ``GATE_RANGE_BINS`` range and ``GATE_VELOCITY_BINS``
    velocity bins either side of the truth.  Errors are grid-quantized
    (integer bins times the map resolution); with no detection inside the
    gate the target is scored as a miss with symbolic infinite errors.
    """
    best = None
    for det in detections:
        dr = det.range_bin - truth_range_bin
        dv = det.velocity_bin - truth_velocity_bin
        if abs(dr) > GATE_RANGE_BINS or abs(dv) > GATE_VELOCITY_BINS:
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
    """Report CSV under a ``# bsradar <kind> report v<N>`` line (N from
    ``REPORT_VERSIONS``); one row per (scenario, target, configuration), keys
    outside ``columns`` dropped."""
    with open(path, "w", newline="") as handle:
        handle.write(f"# bsradar {kind} report v{REPORT_VERSIONS[kind]}\n")
        writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
