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

A run checks its config once, where it enters (:func:`run_pipeline`,
:func:`process_cube`, or each point of a :func:`sweep`, before any point
runs); past channelization every stage reads the geometry, chirp, subband
count and scene from the config alone, so :func:`process_cube` first
checks that its cube and scenario are the config's.

A run makes at most one cube-sized buffer and holds it only until
beamforming returns.  The channelizer hands beamforming a plain
(antennas, subbands, snapshots, pulses) array: it writes the subbands over
the samples of a cube the pipeline made itself (in :func:`run_pipeline`,
and in a :func:`sweep`, whose consecutive points share one cube while the
scenario, geometry, chirp and subband count are unchanged), so that array
is a strided view of the cube's buffer.  A caller's cube given to
:func:`process_cube` is never written: it is channelized into a fresh
buffer.  Beamforming is the subbands' last reader: the beamspace transform
reads each subband's strided view in place, and no entry point keeps a
name for the subbands or the simulated cube past its last reader's
beamforming, so the buffer is freed then, and synthesis and detection run
beside the outputs alone.  A sweep keeps a buffer only between points
that share it, and drops each point's result once its rows are made.

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

The kernels only compute; the pipeline tallies their complex multiplies.
Beside each kernel call it adds that call's closed form from
:mod:`counters`, taken at the call's own dimensions, to the stage's total,
so the tallies follow the calls actually made.  The accounting rule, which
the report's per-pair training and per-snapshot application figures rest
on:

* the channelizer runs once per cube and the beamspace FFT once per
  subband, shared by every target, and each call is tallied once;
* each target's training is tallied in full: its own covariance over its
  rows, its own solve, and, in beamspace, its windowed steering, which
  costs one full beamspace transform of the steering vector;
* a group's application product is tallied per target, as that target's
  own W-by-snapshots product;
* a single subband is the cube itself: channelize and synthesize pass it
  through, and neither is tallied.
"""

from __future__ import annotations

import json
import numbers
import resource
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import counters
from .beamspace import (
    BeamspacePlan,
    WindowSpec,
    beamspace_transform,
    window_for,
    window_rows,
    windowed_steering,
)
from .channelizer import bin_center_frequencies, channelize, synthesize
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
        try:
            plan = self.beamspace_plan()
        except ValueError as exc:
            raise ValueError(f"fft_size: {exc}") from None
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


def _check_inputs(cube: DataCube, scenario: Scenario, cfg: PipelineConfig) -> None:
    """Reject a cube or scenario the config does not describe.

    Channelization reads the cube; everything after it reads the config's
    geometry, chirp and scene.  So the cube's geometry and chirp must be
    the config's, and the scenario must be ``cfg.scenario`` or equal to it.
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


def _channelize(
    cube: DataCube, cfg: PipelineConfig, timings: dict, overwrite: bool
) -> tuple[np.ndarray, Counter]:
    """The cube's subbands and the run's tallies so far.  ``overwrite``
    gives the cube's samples up to the channelizer as the subband buffer."""
    with _stage("channelize", timings):
        subbands = channelize(cube, cfg.subbands, _overwrite=overwrite)
    mults: Counter = Counter()
    n_ant, n_sub, n_snap, n_pulses = subbands.shape
    if n_sub > 1:
        mults["channelize"] += counters.channelize_mults(n_ant, n_snap * n_pulses, n_sub)
    return subbands, mults


def _beamform(
    front: tuple[np.ndarray, Counter], cfg: PipelineConfig, timings: dict
) -> tuple[np.ndarray, list[tuple[Correlator, WindowSpec | None]], Counter]:
    """Train and apply every target's beamformer, one subband at a time.

    ``front`` is what :func:`_channelize` returned.  Returns the outputs
    (target, subband, snapshot, pulse), each target's correlator and window
    in the center subband, and the run's tallies so far.  This is the
    subbands' last reader and keeps no reference to them, so a caller that
    passes ``front`` without naming it frees the subband buffer when this
    returns.
    """
    subbands, front_mults = front
    mults = Counter(front_mults)  # a sweep's points share one front end
    geom, targets = cfg.geometry, cfg.scenario.targets
    freqs = bin_center_frequencies(cfg.subbands, cfg.chirp)
    plan = cfg.beamspace_plan()
    outputs = np.empty((len(targets), *subbands.shape[1:]), dtype=complex)
    with _stage("beamform", timings):
        # (target, axis, subband): each target's spatial frequencies at every subband center
        omegas = np.array([spatial_frequencies(t.direction, freqs, geom) for t in targets])
        omegas = omegas.reshape(len(targets), 2, len(freqs))

        # basis and selector: the rows a target beamforms on, with its steering there
        if cfg.method == METHOD_BEAMSPACE:
            space = BEAMSPACE_WINDOWED
            transform_mults = counters.beamspace_fft_mults(plan.n_x, plan.m_z, plan.m_x)

            def to_basis(snap):
                # reads the strided subband view in place
                mults["beamspace_fft"] += snap[0].size * transform_mults
                return beamspace_transform(snap, plan)

            def select(k, b, steering):
                win = window_for(SpatialFrequencies(*omegas[k, :, b]), plan, *cfg.window)
                mults["windowed_steering"] += transform_mults
                return win, window_rows(win, plan), windowed_steering(steering, plan, win)

        else:
            space = ANTENNA_SPACE

            def to_basis(snap):
                return snap

            def select(k, b, steering):
                return None, slice(None), steering

        # rule
        if cfg.method == METHOD_CONVENTIONAL:

            def train(training, steering):
                return conventional_correlator(steering, space)

        else:

            def train(training, steering):
                cov = estimate_covariance(training, cfg.loading)
                mults["covariance"] += counters.outer_product_mults(cov.dim, cov.n_t)
                mults["solve"] += counters.mvdr_solve_mults(cov.dim)
                return mvdr_correlator(cov, steering, space)

        center: list = [None] * len(targets)
        for b in range(cfg.subbands):
            basis = to_basis(subbands[:, b])  # (rows, snapshots, pulses)
            training = basis[:, :, : cfg.train_pulses].reshape(len(basis), -1)
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
            # one product per group of targets that share their rows; on the
            # antenna basis this gathers the strided subband for zgemm
            for rows, ids, corrs in groups.values():
                outputs[ids, b] = apply_correlator(corrs, basis[rows])
                n_apply = basis[0].size
                mults["apply"] += len(corrs) * counters.matvec_mults(corrs[0].dim, n_apply)
    return outputs, center, mults


def _back_end(
    beams: tuple[np.ndarray, list[tuple[Correlator, WindowSpec | None]], Counter],
    cfg: PipelineConfig,
    timings: dict,
) -> PipelineResult:
    """Synthesize, detect and score what :func:`_beamform` returned."""
    outputs, center, mults = beams
    geom, chirp, targets = cfg.geometry, cfg.chirp, cfg.scenario.targets
    n_targets, n_sub, s_per_pulse, n_pulses = outputs.shape

    with _stage("synthesize", timings):
        wideband = synthesize(outputs)
    if n_sub > 1:
        mults["synthesize"] += n_targets * counters.synthesize_mults(
            s_per_pulse * n_pulses, n_sub
        )

    replica = generate_chirp(chirp)
    with _stage("range_doppler", timings):
        maps = [range_doppler_map(series, replica, chirp) for series in wideband]
    for series in wideband:
        mults["range_doppler"] += counters.range_doppler_mults(*series.shape)
    with _stage("cfar", timings):
        detections_per_target = [
            cfar_detect(rd, cfg.cfar_threshold_db, cfg.cfar_guard_cells) for rd in maps
        ]
    scores: list[DetectionScore] = []
    with _stage("score", timings):
        for k, target in enumerate(targets):
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
        beam_points=cfg.beamspace_plan().m,
        window_dim=w_z * w_x,
        n_targets=len(targets),
        n_subbands=cfg.subbands,
        n_train_snapshots=s_per_pulse * cfg.train_pulses,
        n_apply_snapshots=s_per_pulse * chirp.num_pulses,
        stage_mults=dict(mults),
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
    cfg.validate()
    _check_inputs(cube, scenario, cfg)
    timings: dict = {}
    # the subbands are never named here, so _beamform's return frees them
    beams = _beamform(_channelize(cube, cfg, timings, overwrite=False), cfg, timings)
    return _back_end(beams, cfg, timings)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Simulate the configured scene and process it; see :func:`process_cube`.

    The simulated cube is the run's own, so it is channelized in place, and
    neither the cube nor its subbands outlive beamforming.
    """
    cfg.validate()
    timings: dict = {}
    # neither the cube nor its subbands is named here, so _beamform's return frees them
    beams = _beamform(
        _channelize(_simulate(cfg, timings), cfg, timings, overwrite=True), cfg, timings
    )
    return _back_end(beams, cfg, timings)


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


SWEEP_COLUMNS = REPORT_COLUMNS + ("point", "status")


def _cube_key(cfg: PipelineConfig) -> tuple:
    """What a point's channelized cube depends on."""
    return (cfg.scenario, cfg.geometry, cfg.chirp, cfg.subbands)


def sweep(cfg: PipelineConfig, axis: str, values: Sequence, out_path=None) -> list[dict]:
    """Run the pipeline across one axis and aggregate per-target rows.

    ``axis`` names the :class:`PipelineConfig` field each point replaces
    with one of ``values``.  Consecutive points whose scenario, geometry,
    chirp and subband count agree share one simulated cube, channelized once
    in place; the last point that reads it takes the buffer, so it is freed
    before that point's synthesis, and a point's result is freed once its
    rows are made.  So a sweep holds at most one cube and one result.  Each
    row names its point (``loading=0.001``, ``scenario=A1``); a point that
    fails is one ``failed: <message>`` row and the sweep goes on.
    """
    names = tuple(f.name for f in fields(PipelineConfig))
    if axis not in names:
        raise ValueError(f"axis {axis!r} not one of {names}")
    cases = [replace(cfg, **{axis: value}) for value in values]
    failed: dict[int, Exception] = {}
    for i, case in enumerate(cases):
        _require_scenario(case.scenario)
        try:
            case.validate()
        except Exception as exc:  # recorded as the point's row below
            failed[i] = exc
    ran = [i for i in range(len(cases)) if i not in failed]
    last = {i for i, j in zip(ran, ran[1:]) if _cube_key(cases[i]) != _cube_key(cases[j])}
    last.update(ran[-1:])

    rows: list[dict] = []
    held: list = []  # the current cube's channelized buffer, until its last reader
    for i, (value, case) in enumerate(zip(values, cases)):
        label = case.scenario.label or "custom"
        point = f"{axis}={label if axis == 'scenario' else value}"
        try:
            if i in failed:
                raise failed[i]
            timings: dict = {}
            if not held:
                held.append(_channelize(_simulate(case, timings), case, timings, overwrite=True))
            # neither the buffer its last reader takes nor the result is named,
            # so the buffer goes before synthesis and the result with its rows
            scores = _back_end(
                _beamform(held.pop() if i in last else held[0], case, timings), case, timings
            ).scores
            rows += [{**_score_row(case, s), "point": point, "status": "ok"} for s in scores]
        except Exception as exc:  # record the failed point, keep sweeping
            row = dict(scenario=label, method=case.method, point=point, status=f"failed: {exc}")
            rows.append({**dict.fromkeys(SWEEP_COLUMNS, ""), **row})

    if out_path is not None:
        write_detection_report(out_path, rows, SWEEP_COLUMNS, kind="sweep")
    return rows
