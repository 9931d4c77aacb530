"""End-to-end processing harness for the per-target beamforming pipelines.

One run takes the config's scene (one :class:`Scenario`, e.g. from
``scenario_preset``), simulates the cube, channelizes it, trains and applies
a beamformer per (target, subband) pair, resynthesizes the wideband
per-target series, and scores median-floor CFAR detections against the
simulator truth.

A run is pure: :func:`process_cube` and :func:`run_pipeline` return a
:class:`PipelineResult` holding every output (subband and wideband series,
range-Doppler maps, detections, scores, center-subband correlators and the
complexity report) and write no file.  :func:`write_reports` writes
``detections.csv`` and ``complexity.json`` from a result.  Each result also
carries ``timings``: per stage (simulate, channelize, beamform, synthesize,
range_doppler, cfar, score) its wall seconds and the process's peak RSS in
MB at the stage's end.

A run makes at most one cube-sized buffer and holds it only until
beamforming returns.  The channelizer writes the subbands over the samples
of a cube the pipeline made itself (in :func:`run_pipeline`, and the one
cube a window or FFT-size :func:`sweep` shares, channelized once for all
its points), so the subband cube is a strided view of that buffer.  A
caller's cube given to :func:`process_cube` is never written: it is
channelized into a fresh buffer.  Beamforming is the subband cube's last
reader: the beamspace transform reads each subband's strided view in place,
and neither :func:`run_pipeline` nor :func:`process_cube` keeps a name for
the subband cube or the simulated cube, so the buffer is freed the moment
beamforming returns and synthesis and detection run beside the outputs
alone.  Only a :func:`sweep` keeps its shared buffer, across all its points.

All three methods run one beamforming routine.  A method only chooses the
**basis** a subband's snapshots are expressed in (the antennas, or the
zero-padded beamspace FFT), the **selector** of each target's rows of that
basis (every row, or the bins of a fixed window centered on the target's
beam at that subband's center frequency) and the **rule** that turns a
target's training rows and steering into weights (MVDR, or the
non-adaptive distortionless a/||a||^2):

==================  =========  ================  ============
method              basis      selector          rule
==================  =========  ================  ============
``antenna-mvdr``    antennas   every row         MVDR
``beamspace-mvdr``  beamspace  window w_z x w_x  MVDR
``conventional``    antennas   every row         conventional
==================  =========  ================  ============

Training is per target: each target accumulates its own covariance over
its selected rows.  Application is one matrix product per group of targets
that share their rows (all targets for the antenna basis, coinciding
windows in beamspace).

Every numeric kernel adds its complex-multiply tally to a shared counter;
the resulting report carries per-stage totals plus the derived per-pair
training and per-snapshot application costs used for method comparisons.
The channelizer and the beamspace transform run once per subband and are
tallied once (shared front end); each target's adaptive training is tallied
in full, including its own covariance accumulation, and each target's
application is tallied as its own W-by-snapshots product.
"""

from __future__ import annotations

import json
import numbers
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .beamspace import (
    BeamspacePlan,
    WindowSpec,
    beamspace_transform,
    window_for,
    window_rows,
    windowed_steering,
)
from .channelizer import SubbandCube, bin_center_frequencies, channelize, synthesize
from .counters import OpCounter
from .detection import (
    REPORT_COLUMNS,
    Detection,
    DetectionScore,
    RangeDopplerMap,
    cfar_detect,
    range_doppler_map,
    score_detections,
    write_detection_report,
)
from .geometry import ArrayGeometry, SpatialFrequencies, spatial_frequencies, steering_matrix
from .mvdr import (
    ANTENNA_SPACE,
    BEAMSPACE_WINDOWED,
    Correlator,
    apply_correlator,
    conventional_correlator,
    estimate_covariance,
    mvdr_correlator,
)
from .simulate import (
    DEFAULT_GEOMETRY,
    ChirpParams,
    DataCube,
    Scenario,
    generate_chirp,
    synthesize_datacube,
)

METHOD_ANTENNA = "antenna-mvdr"
METHOD_BEAMSPACE = "beamspace-mvdr"
METHOD_CONVENTIONAL = "conventional"
METHODS = (METHOD_ANTENNA, METHOD_BEAMSPACE, METHOD_CONVENTIONAL)
CENTER_BIN = 0  # subband l = 0, nearest the carrier from below


@dataclass(frozen=True)
class PipelineConfig:
    """Validated bundle of every knob one processing run needs."""

    scenario: Scenario | None = None
    method: str = METHOD_BEAMSPACE
    subbands: int = 128
    fft_size: tuple[int, int] | None = None
    window: tuple[int, int] = (2, 4)
    loading: float = 1e-3
    train_pulses: int = 8
    cfar_threshold_db: float = 10.0
    cfar_guard_cells: int = 4
    geometry: ArrayGeometry = DEFAULT_GEOMETRY
    chirp: ChirpParams = field(default_factory=ChirpParams)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method: {self.method!r} not one of {METHODS}")
        _require_scenario(self.scenario)
        for name in ("window", "fft_size"):
            value = getattr(self, name)
            ints = isinstance(value, tuple) and all(type(v) is int for v in value)
            if not ((ints and len(value) == 2) or (name == "fft_size" and value is None)):
                raise ValueError(f"{name}: {value!r} is not a pair of ints")
        for name in ("subbands", "train_pulses", "cfar_guard_cells"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name}: {getattr(self, name)!r} is not an int")
        for name in ("loading", "cfar_threshold_db"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and np.isfinite(value)):
                raise ValueError(f"{name}: {value!r} is not a finite number")
        if self.subbands < 1:
            raise ValueError(f"subbands: {self.subbands} must be >= 1")
        if self.chirp.pulse_samples % self.subbands != 0:
            raise ValueError(
                f"subbands: {self.subbands} does not divide "
                f"pulse_samples {self.chirp.pulse_samples}"
            )
        if self.subbands != 1 and self.subbands % 2 != 0:
            raise ValueError(f"subbands: {self.subbands} must be even (or 1)")
        if not 1 <= self.train_pulses <= self.chirp.num_pulses:
            raise ValueError(
                f"train_pulses: {self.train_pulses} outside "
                f"[1, {self.chirp.num_pulses}]"
            )
        if self.loading < 0:
            raise ValueError("loading: must be >= 0")
        if self.cfar_guard_cells < 0:
            raise ValueError(f"cfar_guard_cells: {self.cfar_guard_cells} must be >= 0")
        if self.chirp.pulse_samples <= 2 * self.cfar_guard_cells + 1:
            raise ValueError(
                f"cfar_guard_cells: a guard band of {self.cfar_guard_cells} leaves no "
                f"reference cells in pulse_samples {self.chirp.pulse_samples}"
            )
        plan = self.beamspace_plan()
        w_z, w_x = self.window
        if not (1 <= w_z <= plan.m_z and 1 <= w_x <= plan.m_x):
            raise ValueError(
                f"window: ({w_z}, {w_x}) must fit the beam grid "
                f"({plan.m_z}, {plan.m_x})"
            )

    def beamspace_plan(self) -> BeamspacePlan:
        return BeamspacePlan.for_geometry(self.geometry, *(self.fft_size or ()))


def _require_scenario(scenario) -> None:
    if not isinstance(scenario, Scenario):
        raise ValueError(f"scenario: expected a Scenario, got {type(scenario).__name__}")


@dataclass
class ComplexityReport:
    """Per-stage complex-multiply tallies plus the derived comparison figures."""

    method: str
    n_antennas: int
    beam_points: int
    window_dim: int
    n_targets: int
    n_subbands: int
    n_train_snapshots: int
    n_apply_snapshots: int
    stage_mults: dict[str, int]
    training_mults_per_pair: int = field(init=False)
    application_mults_per_snapshot: int = field(init=False)

    def __post_init__(self) -> None:
        pairs = max(self.n_targets * self.n_subbands, 1)
        training = (
            self.stage_mults.get("covariance", 0)
            + self.stage_mults.get("solve", 0)
            + self.stage_mults.get("windowed_steering", 0)
        )
        self.training_mults_per_pair = training // pairs
        snaps = max(self.n_subbands * self.n_apply_snapshots, 1)
        per_target_apply = self.stage_mults.get("apply", 0) // max(
            self.n_targets * snaps, 1
        )
        shared_fft = self.stage_mults.get("beamspace_fft", 0) // snaps
        self.application_mults_per_snapshot = shared_fft + per_target_apply

    @property
    def total_mults(self) -> int:
        return sum(self.stage_mults.values())

    def as_dict(self) -> dict:
        return {**asdict(self), "total_mults": self.total_mults}


@dataclass
class PipelineResult:
    config: PipelineConfig
    scores: list[DetectionScore]
    complexity: ComplexityReport
    detections: list[list[Detection]]
    wideband_outputs: np.ndarray
    subband_outputs: np.ndarray
    maps: list[RangeDopplerMap]
    center_correlators: list[Correlator]
    center_windows: list[WindowSpec | None]
    timings: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def detection_count(self) -> int:
        return sum(1 for s in self.scores if s.detected)


class StageError(RuntimeError):
    """Wraps a failure with the pipeline stage where it happened."""


@contextmanager
def _stage(name: str, timings: dict):
    """Run one stage: name it in any failure, and record into ``timings`` its
    wall seconds and the peak RSS of this process so far (``ru_maxrss``, KiB
    on Linux) in MB."""
    start = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(f"stage '{name}': {exc}") from exc
    timings[name] = {
        "wall_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _train_window_columns(snapshots_per_pulse: int, n_pulses: int, train_pulses: int) -> np.ndarray:
    """Column indices of the training snapshots inside the (S*P)-wide matrix."""
    s_idx = np.arange(snapshots_per_pulse)[:, None] * n_pulses
    return (s_idx + np.arange(train_pulses)[None, :]).ravel()


def _check_inputs(cube: DataCube, scenario: Scenario, cfg: PipelineConfig) -> None:
    """Reject a cube or scenario the config does not describe.

    The beam plan and ``validate`` read the config's geometry and chirp;
    channelization, steering and detection read the cube's.  The scenario
    must be ``cfg.scenario`` or equal to it.
    """
    if cube.geometry != cfg.geometry:
        raise ValueError(
            f"geometry: cube {cube.geometry} does not match config {cfg.geometry}"
        )
    if cube.chirp != cfg.chirp:
        raise ValueError(f"chirp: cube {cube.chirp} does not match config {cfg.chirp}")
    if scenario is not cfg.scenario and scenario != cfg.scenario:
        given, own = scenario, cfg.scenario
        raise ValueError(
            f"scenario: the given scenario ({given.label or 'custom'!r}, seed {given.seed}) "
            f"is not the config's ({own.label or 'custom'!r}, seed {own.seed})"
        )


def _simulate(cfg: PipelineConfig, timings: dict) -> DataCube:
    """The configured scene's cube, timed as the simulate stage."""
    with _stage("simulate", timings):
        return synthesize_datacube(cfg.scenario, cfg.geometry, cfg.chirp)


def _front_end(
    cube: DataCube, scenario: Scenario, cfg: PipelineConfig, timings: dict, overwrite: bool
) -> tuple[SubbandCube, np.ndarray, dict[str, int]]:
    """Check the inputs, then channelize: the subbands, their center
    frequencies and the channelizer's tallies.  ``overwrite`` gives the
    cube's samples up to the channelizer as the subband buffer."""
    cfg.validate()
    _check_inputs(cube, scenario, cfg)
    ops = OpCounter()
    with _stage("channelize", timings):
        sub = channelize(cube, cfg.subbands, ops, _overwrite=overwrite)
        freqs = bin_center_frequencies(cfg.subbands, cube.chirp)
    return sub, freqs, ops.counts


def _beamform(
    front: tuple[SubbandCube, np.ndarray, dict[str, int]],
    scenario: Scenario,
    cfg: PipelineConfig,
    timings: dict,
) -> tuple[np.ndarray, list[tuple[Correlator, WindowSpec | None]], OpCounter]:
    """Train and apply every target's beamformer, one subband at a time.

    ``front`` is what :func:`_front_end` returned.  Returns the outputs
    (target, subband, snapshot, pulse), each target's correlator and window
    in the center subband, and the run's tally counter.  This is the subband
    cube's last reader and keeps no reference to it, so a caller that passes
    ``front`` without naming it frees the subband buffer when this returns.
    """
    sub, freqs, front_mults = front
    geom = sub.geometry
    plan = cfg.beamspace_plan()
    ops = OpCounter()
    ops.counts.update(front_mults)
    s_per_pulse, n_pulses = sub.snapshots_per_pulse, sub.chirp.num_pulses
    n_snap = s_per_pulse * n_pulses
    train_cols = _train_window_columns(s_per_pulse, n_pulses, cfg.train_pulses)
    targets = scenario.targets
    outputs = np.empty((len(targets), cfg.subbands, s_per_pulse, n_pulses), dtype=complex)
    with _stage("beamform", timings):
        # (target, axis, subband): each target's spatial frequencies at every subband center
        omegas = np.array([spatial_frequencies(t.direction, freqs, geom) for t in targets])
        omegas = omegas.reshape(len(targets), 2, len(freqs))

        # basis and selector: the rows a target beamforms on, with its steering there
        if cfg.method == METHOD_BEAMSPACE:
            space = BEAMSPACE_WINDOWED

            def to_basis(snap):
                # reads the strided subband view in place
                return beamspace_transform(snap, plan, ops).reshape(plan.m, n_snap)

            def select(k, b, steering):
                win = window_for(SpatialFrequencies(*omegas[k, :, b]), plan, *cfg.window)
                return win, window_rows(win, plan), windowed_steering(steering, plan, win, ops)

        else:
            space = ANTENNA_SPACE

            def to_basis(snap):
                # a copy: the strided view has no (antennas, snapshots) view for zgemm
                return snap.reshape(geom.n, n_snap)

            def select(k, b, steering):
                return None, slice(None), steering

        # rule
        if cfg.method == METHOD_CONVENTIONAL:

            def train(training, steering):
                return conventional_correlator(steering, space)

        else:

            def train(training, steering):
                cov = estimate_covariance(training, cfg.loading, ops)
                return mvdr_correlator(cov, steering, ops, space)

        center: list = [None] * len(targets)
        for b in range(cfg.subbands):
            basis = to_basis(sub.samples[:, b])
            training = basis[:, train_cols]
            steer = steering_matrix(*omegas[:, :, b].T, geom)
            groups: dict = {}  # selector -> (rows, target ids, correlators)
            for k in range(len(targets)):
                win, rows, steering = select(k, b, steer[:, k])
                corr = train(training[rows], steering)
                ids, corrs = groups.setdefault(win, (rows, [], []))[1:]
                ids.append(k)
                corrs.append(corr)
                if b == CENTER_BIN:
                    center[k] = (corr, win)
            # one product per group of targets that share their rows
            for rows, ids, corrs in groups.values():
                out = apply_correlator(corrs, basis[rows], ops)
                outputs[ids, b] = out.reshape(len(ids), s_per_pulse, n_pulses)
    return outputs, center, ops


def _back_end(
    beams: tuple[np.ndarray, list[tuple[Correlator, WindowSpec | None]], OpCounter],
    scenario: Scenario,
    cfg: PipelineConfig,
    timings: dict,
) -> PipelineResult:
    """Synthesize, detect and score what :func:`_beamform` returned."""
    outputs, center, ops = beams
    geom, chirp = cfg.geometry, cfg.chirp
    plan = cfg.beamspace_plan()
    n_targets = len(scenario.targets)
    s_per_pulse = outputs.shape[2]

    with _stage("synthesize", timings):
        wideband = synthesize(outputs, ops)

    replica = generate_chirp(chirp)
    with _stage("range_doppler", timings):
        maps = [range_doppler_map(wideband[k], replica, chirp, ops) for k in range(n_targets)]
    with _stage("cfar", timings):
        detections_per_target = [
            cfar_detect(rd, cfg.cfar_threshold_db, cfg.cfar_guard_cells) for rd in maps
        ]
    scores: list[DetectionScore] = []
    with _stage("score", timings):
        for k, target in enumerate(scenario.targets):
            truth_r = target.delay_samples(chirp)
            truth_v = (
                int(round(target.radial_velocity / chirp.velocity_resolution))
                + chirp.num_pulses // 2
            ) % chirp.num_pulses
            scores.append(
                score_detections(detections_per_target[k], truth_r, truth_v, maps[k], k)
            )

    w_z, w_x = cfg.window
    report = ComplexityReport(
        method=cfg.method,
        n_antennas=geom.n,
        beam_points=plan.m,
        window_dim=w_z * w_x,
        n_targets=n_targets,
        n_subbands=cfg.subbands,
        n_train_snapshots=s_per_pulse * cfg.train_pulses,
        n_apply_snapshots=s_per_pulse * chirp.num_pulses,
        stage_mults=dict(ops.counts),
    )

    return PipelineResult(
        config=cfg,
        scores=scores,
        complexity=report,
        detections=detections_per_target,
        wideband_outputs=wideband,
        subband_outputs=outputs,
        maps=maps,
        center_correlators=[corr for corr, _ in center],
        center_windows=[win for _, win in center],
        timings=timings,
    )


def process_cube(cube: DataCube, scenario: Scenario, cfg: PipelineConfig) -> PipelineResult:
    """Run channelization, beamforming, synthesis, and detection on a cube.

    Returns every output of the run and writes nothing; see
    :func:`write_reports` for the report files.  The cube is left as it was:
    it is channelized into a fresh buffer, which is freed once beamforming
    returns.
    """
    timings: dict = {}
    # the subbands are never named here, so _beamform's return frees them
    beams = _beamform(
        _front_end(cube, scenario, cfg, timings, overwrite=False), scenario, cfg, timings
    )
    return _back_end(beams, scenario, cfg, timings)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Simulate the configured scene and process it; see :func:`process_cube`.

    The simulated cube is the run's own, so it is channelized in place, and
    neither the cube nor its subbands outlive beamforming.
    """
    cfg.validate()
    timings: dict = {}
    # neither the cube nor its subbands is named here, so _beamform's return frees them
    beams = _beamform(
        _front_end(_simulate(cfg, timings), cfg.scenario, cfg, timings, overwrite=True),
        cfg.scenario, cfg, timings,
    )
    return _back_end(beams, cfg.scenario, cfg, timings)


def _score_row(cfg: PipelineConfig, score: DetectionScore) -> dict:
    w_z, w_x = cfg.window
    plan = cfg.beamspace_plan()
    beamspace = cfg.method == METHOD_BEAMSPACE
    return {
        "scenario": cfg.scenario.label or "custom",
        "target_id": score.target_id,
        "method": cfg.method,
        "w_z": w_z if beamspace else "",
        "w_x": w_x if beamspace else "",
        "m_z": plan.m_z if beamspace else "",
        "m_x": plan.m_x if beamspace else "",
        "detected": int(score.detected),
        "range_error_m": f"{score.range_error:.6f}" if score.detected else "inf",
        "velocity_error_mps": (
            f"{score.velocity_error:.6f}" if score.detected else "inf"
        ),
    }


def write_reports(result: PipelineResult, out_dir) -> list[Path]:
    """Write ``detections.csv`` and ``complexity.json`` into ``out_dir``.

    Creates the directory if needed and returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "detections.csv"
    rows = [_score_row(result.config, score) for score in result.scores]
    write_detection_report(report_path, rows)
    complexity_path = out_dir / "complexity.json"
    complexity_path.write_text(
        json.dumps(result.complexity.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    return [report_path, complexity_path]


SWEEP_AXES = {"window": "window", "fft-size": "fft_size", "scenario": "scenario"}
SWEEP_COLUMNS = REPORT_COLUMNS + ("status",)


def sweep(cfg: PipelineConfig, axis: str, values: Sequence, out_path=None) -> list[dict]:
    """Run the pipeline across one axis and aggregate per-target rows.

    ``axis`` names the config field each point replaces: window / fft-size
    take (v, h) int pairs and share one simulated cube, channelized once (in
    place) for every point; scenario takes :class:`Scenario` values.  A
    failed point is recorded and the sweep goes on.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis {axis!r} not one of {tuple(SWEEP_AXES)}")
    field_name = SWEEP_AXES[axis]
    for scenario in values if field_name == "scenario" else [cfg.scenario]:
        _require_scenario(scenario)
    shared_cube = front = None
    if field_name != "scenario":
        shared_cube = synthesize_datacube(cfg.scenario, cfg.geometry, cfg.chirp)

    rows: list[dict] = []
    for value in values:
        case = replace(cfg, **{field_name: value})
        try:
            if shared_cube is None:
                result = run_pipeline(case)
            else:
                case.validate()
                # the axis never changes the subbands, so the first valid point's
                # channelization serves every point
                if front is None:
                    front = _front_end(shared_cube, case.scenario, case, {}, overwrite=True)
                timings: dict = {}
                beams = _beamform(front, case.scenario, case, timings)
                result = _back_end(beams, case.scenario, case, timings)
            rows += [{**_score_row(case, score), "status": "ok"} for score in result.scores]
        except Exception as exc:  # record the failed cell, keep sweeping
            label = case.scenario.label or "custom"
            point = label if field_name == "scenario" else value
            row = dict(scenario=label, method=case.method, status=f"failed[{point!r}]: {exc}")
            rows.append({**dict.fromkeys(SWEEP_COLUMNS, ""), **row})

    if out_path is not None:
        write_detection_report(out_path, rows, SWEEP_COLUMNS, kind="sweep")
    return rows
