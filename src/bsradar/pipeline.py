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
MB at the stage's end.  A cube channelized in blocks interleaves the two
stages: ``channelize`` sums the blocks' channelizations and ``beamform`` is
the rest.  A stage that fails raises :class:`StageError` naming it, and a
floating-point overflow, underflow, division by zero or invalid operation
fails its stage whatever the caller's warning filter, so no run returns
scores computed on infinite, NaN or flushed-to-zero values.  A training
failure also names its subband (bin and center frequency) and the targets
it was training.

A run checks its config once, where it enters (:func:`run_pipeline`,
:func:`process_cube`, or each point of a :func:`sweep`, before any point
runs); past channelization every stage reads the geometry, chirp, subband
count and scene from the config alone, so :func:`process_cube` first
checks that its cube and scenario are the config's.  The check holds the
pipeline's own rules (the method, the scene, the pairs, the number
contract and the training pulses) and asks each kernel for the rule on its
one dial: the channelizer for ``subbands``, the CFAR for
``cfar_guard_cells`` and ``cfar_threshold_db``, and the covariance
estimator for ``loading``, as it asks :class:`BeamspacePlan` and
:class:`WindowSpec` for ``fft_size`` and ``window``.  A kernel rejects a
bad value with the same message whether a run or a direct call gives it.

A run holds at most one cube and one block of subbands while it beamforms.
One generator makes every block: it hands beamforming plain (antennas,
subbands, snapshots, pulses) arrays, one per block of consecutive pulses
from pulse 0, and beamforming trains every target on block 0 and applies
the weights to each block in turn.  It alone knows who owns the cube.  A
cube the pipeline made itself (in :func:`run_pipeline`, and in a
:func:`sweep`, whose consecutive points share one cube while the scenario,
geometry, chirp and subband count are unchanged) is one block of every
pulse: the subbands are written over its own samples, so the array is a
strided view of the cube's buffer; quarter blocks written in place
measured slower in both channelize and beamform.  A caller's cube given to
:func:`process_cube` is never written: it is channelized a block at a time
into one reused buffer of a block's size.  A block is a quarter of the
pulses, rounded up, or the training pulses if they are more, so block 0
holds them all and the buffer is a quarter of the cube unless training
needs more; with a single subband each block is a view of the cube and no
buffer is made.  Beamforming is the subbands' last reader: on block 0
every method gathers each subband's training columns once, into an
(antennas, snapshots) matrix that beamspace alone then transforms, and
each block's subband is gathered once for its product.
No entry point keeps a name for the subbands or the simulated cube past its
last reader's beamforming, so the buffer is freed then, and synthesis and
detection run beside the outputs alone.  A sweep keeps a buffer only
between points that share it, and drops each point's result once its rows
are made.  Blocks change no number: every fast-time DFT, training column
and product column reads the same samples whichever block holds them.

All three methods run one beamforming routine.  A method only chooses the
**basis** a subband's training snapshots are expressed in (the antennas,
or the zero-padded beamspace FFT), the **selector** of each target's rows
of that basis (every row, or the bins of a fixed window centered on the
target's beam at that subband's center frequency) and the **rule** that
turns a target's training rows and steering into weights (MVDR, or the
non-adaptive distortionless a/||a||^2):

==================  =========  ================  ============
method              basis      selector          rule
==================  =========  ================  ============
``antenna-mvdr``    antennas   every row         MVDR
``beamspace-mvdr``  beamspace  window w_z x w_x  MVDR
``conventional``    antennas   every row         conventional
==================  =========  ================  ============

Targets are grouped by selector before they are trained: in each subband,
the targets on the same rows (all targets for the antenna basis,
coinciding windows in beamspace) form one group, and in beamspace every
target's steering vector is put on the beam grid in one transform.  MVDR
computes the covariance of a group's rows of the training columns and its
Cholesky factor once per group, and every target of the group solves its
own steering against that factor, one column at a time, getting the bits
it would get from a covariance of its own.  A group's covariance and
factor live only while its subband is trained; only the correlators are
kept.

Groups matter only in training.  Every subband is trained on block 0
before any is applied, and each subband's beamspace correlators are then
lifted to the antennas in one :func:`lift_correlator` call (the adjoint of
transform-then-window), where antenna and conventional weights already
are.  So only the training columns and steering vectors are ever
transformed, and every method applies all targets of a (block, subband) in
one matrix product on the antenna snapshots.  Lifting
moves beamspace outputs at roundoff only: against each target's windowed
product they differ by at most ``1e-12 * max|output|`` (measured 4e-14 to
1.1e-13 on the A1 and E2 presets, with the same detection cells), while
antenna and conventional outputs are unchanged bit for bit.  A result's
center correlators are the windowed ones as trained, with their windows.

The stages only compute.  The complexity report is the paper's cost model,
a function of the config alone: each stage's closed form from
:mod:`counters` at the run's dimensions.  Channelize and the beamspace FFT
are tallied once per cube snapshot; each target's covariance, solve,
windowed steering (one full beamspace transform) and application are
tallied in full, as are its synthesis and range-Doppler map.  A stage is in
the report exactly when the method runs it; channelize and synthesize only
with more than one subband.  So blocks, shared covariances and factors, and
lifted weights applied on the antennas change the computation, never the
report: it tallies the paper's architecture, a beamspace FFT of every
snapshot, then a W-dim product per target.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import channelizer, counters, detection, mvdr
from .beamspace import (
    BeamspacePlan,
    WindowSpec,
    beamspace_transform,
    window_for,
    window_rows,
)
from .channelizer import bin_center_frequencies, channelize_into, synthesize
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
from .geometry import check_count, is_count  # the number contract
from .mvdr import (
    Correlator,
    apply_correlator,
    conventional_correlator,
    estimate_covariance,
    lift_correlator,
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
            pair = isinstance(value, tuple) and len(value) == 2 and all(map(is_count, value))
            if not (pair or (name == "fft_size" and value is None)):
                raise ValueError(f"{name}: {value!r} is not a pair of ints")
        check_count(self, "train_pulses")
        # each kernel's own rule, so a run rejects what a direct call would
        mvdr.check_loading(self.loading)
        detection.check_threshold(self.cfar_threshold_db)
        channelizer.check_subbands(self.subbands, self.chirp.pulse_samples)
        if not 1 <= self.train_pulses <= self.chirp.num_pulses:
            raise ValueError(
                f"train_pulses: {self.train_pulses} outside "
                f"[1, {self.chirp.num_pulses}]"
            )
        detection.check_guard(self.cfar_guard_cells, self.chirp.pulse_samples)
        try:
            plan = self.beamspace_plan()
        except ValueError as exc:
            raise ValueError(f"fft_size: {exc}") from None
        try:
            WindowSpec(plan, *self.window, 0, 0)
        except ValueError as exc:
            raise ValueError(f"window: {exc}") from None

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
    timings: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def detection_count(self) -> int:
        return sum(1 for s in self.scores if s.detected)


class StageError(RuntimeError):
    """Wraps a failure with the pipeline stage where it happened."""


@contextmanager
def _stage(name: str, timings: dict):
    """Run one stage, or one piece of a stage that runs in pieces: name it in
    any failure, add its wall seconds to ``timings[name]``, and record there
    the peak RSS of this process so far (``ru_maxrss``, KiB on Linux) in MB.

    A floating-point overflow, underflow, division by zero or invalid
    operation in a numpy operation of the stage raises (and so fails the
    stage) whatever the caller's warning filter."""
    start = time.perf_counter()
    try:
        with np.errstate(all="raise"):
            yield
    except Exception as exc:
        raise StageError(f"stage '{name}': {exc}") from exc
    record = timings.setdefault(name, {"wall_s": 0.0})
    record["wall_s"] += time.perf_counter() - start
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


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
            f"scenario: the given scenario ({given.name!r}, seed {given.seed}) "
            f"is not the config's ({own.name!r}, seed {own.seed})"
        )


def _simulate(cfg: PipelineConfig, timings: dict) -> DataCube:
    """The configured scene's cube, timed as the simulate stage."""
    with _stage("simulate", timings):
        return synthesize_datacube(cfg.scenario, cfg.geometry, cfg.chirp)


def _channelize(
    cube: DataCube, cfg: PipelineConfig, timings: dict, owned: bool
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield the cube a block of pulses at a time, as ``(first pulse,
    subbands)``.  An ``owned`` cube, one the pipeline made itself, is one
    block of every pulse, channelized over its own samples, which nothing
    reads again.  A caller's cube is never written: a block is a quarter of the
    pulses, rounded up, or the training pulses if they are more, so block 0
    holds them all, and each is channelized into one reused buffer of a
    block's size, so it is read before the next is asked for.  With a
    single subband each block is a view of the cube's samples and no buffer
    is made."""
    samples = cube.samples
    n_ant, n_fast, n_pulses = samples.shape
    size = n_pulses if owned else max(cfg.train_pulses, -(-n_pulses // 4))
    buffer = None
    if not owned and cfg.subbands > 1:
        buffer = np.empty(n_ant * n_fast * size, dtype=complex)
    for first in range(0, n_pulses, size):
        block = samples[:, :, first : first + size]
        out = block if buffer is None else buffer[: block.size].reshape(block.shape)
        with _stage("channelize", timings):
            subbands = channelize_into(block, cfg.subbands, out)
        yield first, subbands


def _train(
    training: np.ndarray, omegas: np.ndarray, cfg: PipelineConfig, plan: BeamspacePlan
) -> list[Correlator]:
    """Train every target in one subband, grouped by selector.

    ``training`` is the subband's training columns gathered on the antennas
    (antennas, snapshots) and ``omegas`` each target's (omega_z, omega_x) at
    the subband's center.  In beamspace the columns and the targets'
    steering vectors are put on the beam grid, and nothing else is
    transformed.  A target's selector is its window in beamspace, or None
    for every antenna; the targets of one selector form a group, taken
    in first-target order, and an MVDR group's targets solve against one
    covariance of its rows, which is dropped on return.  Returns each
    target's correlator in the basis, in target order.
    """
    steer = steering_matrix(*omegas.T, cfg.geometry)
    beamspace = cfg.method == METHOD_BEAMSPACE
    if beamspace:  # the columns, then every target's steering, each in one transform
        training, steer = beamspace_transform(training, plan), beamspace_transform(steer, plan)
    selectors = [
        window_for(SpatialFrequencies(*omega), plan, *cfg.window) if beamspace else None
        for omega in omegas
    ]
    trained: list = [None] * len(selectors)
    for win in dict.fromkeys(selectors):
        ids = [k for k, selector in enumerate(selectors) if selector == win]
        rows = slice(None) if win is None else window_rows(win)
        steerings = [steer[rows, k] for k in ids]
        try:
            if cfg.method == METHOD_CONVENTIONAL:
                corrs = [conventional_correlator(a, win) for a in steerings]
            else:
                cov = estimate_covariance(training[rows], cfg.loading)
                corrs = [mvdr_correlator(cov, a, win) for a in steerings]
        except (ArithmeticError, ValueError) as exc:
            raise type(exc)(f"targets {ids}: {exc}") from exc
        for k, corr in zip(ids, corrs):
            trained[k] = corr
    return trained


def _beamform(
    blocks: Iterable[tuple[int, np.ndarray]], cfg: PipelineConfig, timings: dict
) -> tuple[np.ndarray, list[Correlator]]:
    """Train every target's beamformer on block 0 and apply it to every block.

    ``blocks`` yields ``(first pulse, subbands)``: consecutive ranges of the
    cube's pulses from pulse 0, each channelized to (antennas, subbands,
    snapshots, pulses).  Block 0 holds the training pulses: on it each
    subband's training columns are gathered once and :func:`_train` trains
    its targets on them, every subband before any is applied.  A beamspace
    correlator is then lifted to the antennas, where the others already
    are, so each subband of each block is applied to every target in one
    product.  Returns the outputs (target, subband, snapshot, pulse) and
    each target's correlator in the center subband as trained, which
    carries its window in beamspace.  This is the subbands' last reader and
    keeps no reference to them, so a caller that passes ``blocks`` without
    naming them frees the subband buffer when this returns.
    """
    geom, chirp, targets = cfg.geometry, cfg.chirp, cfg.scenario.targets
    freqs = bin_center_frequencies(cfg.subbands, chirp)
    plan = cfg.beamspace_plan()
    beamspace = cfg.method == METHOD_BEAMSPACE
    n_snap = chirp.pulse_samples // cfg.subbands
    outputs = np.empty((len(targets), cfg.subbands, n_snap, chirp.num_pulses), dtype=complex)
    # (target, axis, subband): each target's spatial frequencies at every subband center
    omegas = np.array([spatial_frequencies(t.direction, freqs, geom) for t in targets])
    omegas = omegas.reshape(len(targets), 2, len(freqs))

    weights: list[list[Correlator]] = []  # per subband: every target's, on the antennas
    center: list[Correlator] = []
    for first, subbands in blocks:
        with _stage("beamform", timings):
            if first == 0:
                # all training runs before the first product: Python work
                # between products keeps the idle BLAS threads spinning
                trained = []
                for b in range(cfg.subbands):
                    # every method gathers the training columns once
                    training = subbands[:, b, :, : cfg.train_pulses].reshape(geom.n, -1)
                    try:
                        trained.append(_train(training, omegas[:, :, b], cfg, plan))
                    except (ArithmeticError, ValueError) as exc:
                        raise type(exc)(f"subband {b} ({freqs[b]:.0f} Hz): {exc}") from exc
                center = trained[CENTER_BIN]
                weights = [lift_correlator(corrs) if beamspace else corrs for corrs in trained]
            n_block = subbands.shape[-1]
            for b, corrs in enumerate(weights):
                outputs[:, b, :, first : first + n_block] = apply_correlator(
                    corrs, subbands[:, b]
                )
    return outputs, center


def _complexity(cfg: PipelineConfig) -> ComplexityReport:
    """The run's cost model: each stage's closed form from :mod:`counters` at
    the config's dimensions, for the stages the method runs (see the module
    docstring)."""
    geom, chirp, n_sub = cfg.geometry, cfg.chirp, cfg.subbands
    n_targets = len(cfg.scenario.targets)
    pairs = n_targets * n_sub
    n_fast, n_pulses = chirp.pulse_samples, chirp.num_pulses
    n_train, n_apply = n_fast // n_sub * cfg.train_pulses, n_fast // n_sub * n_pulses
    plan, (w_z, w_x) = cfg.beamspace_plan(), cfg.window
    beamspace, adaptive = cfg.method == METHOD_BEAMSPACE, cfg.method != METHOD_CONVENTIONAL
    dim = w_z * w_x if beamspace else geom.n  # the rows a target trains and applies on
    transform = counters.beamspace_fft_mults(plan.n_x, plan.m_z, plan.m_x)
    stages = {  # stage: (whether the method runs it, its tally)
        "channelize": (n_sub > 1, counters.channelize_mults(geom.n, n_apply, n_sub)),
        "beamspace_fft": (beamspace, n_sub * n_apply * transform),
        "windowed_steering": (beamspace, pairs * transform),
        "covariance": (adaptive, pairs * counters.outer_product_mults(dim, n_train)),
        "solve": (adaptive, pairs * counters.mvdr_solve_mults(dim)),
        "apply": (True, pairs * counters.matvec_mults(dim, n_apply)),
        "synthesize": (n_sub > 1, n_targets * counters.synthesize_mults(n_apply, n_sub)),
        "range_doppler": (True, n_targets * counters.range_doppler_mults(n_fast, n_pulses)),
    }
    return ComplexityReport(
        method=cfg.method,
        n_antennas=geom.n,
        beam_points=plan.m,
        window_dim=w_z * w_x,
        n_targets=n_targets,
        n_subbands=n_sub,
        n_train_snapshots=n_train,
        n_apply_snapshots=n_apply,
        stage_mults={stage: n for stage, (runs, n) in stages.items() if runs},
    )


def _back_end(
    beams: tuple[np.ndarray, list[Correlator]], cfg: PipelineConfig, timings: dict
) -> PipelineResult:
    """Synthesize, detect and score what :func:`_beamform` returned."""
    outputs, center = beams
    chirp, targets = cfg.chirp, cfg.scenario.targets
    with _stage("synthesize", timings):
        wideband = synthesize(outputs)
    replica = generate_chirp(chirp)
    with _stage("range_doppler", timings):
        maps = [range_doppler_map(series, replica, chirp) for series in wideband]
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
                + maps[k].zero_velocity_bin
            ) % chirp.num_pulses
            scores.append(
                score_detections(detections_per_target[k], truth_r, truth_v, maps[k], k)
            )

    return PipelineResult(
        config=cfg,
        scores=scores,
        complexity=_complexity(cfg),
        detections=detections_per_target,
        wideband_outputs=wideband,
        subband_outputs=outputs,
        maps=maps,
        center_correlators=center,
        timings=timings,
    )


def process_cube(cube: DataCube, scenario: Scenario, cfg: PipelineConfig) -> PipelineResult:
    """Run channelization, beamforming, synthesis, and detection on a cube.

    Returns every output of the run and writes nothing; see
    :func:`write_reports` for the report files.  The cube is left as it was:
    it is channelized a block of pulses at a time into one buffer of a
    block's size, which is freed once beamforming returns.
    """
    cfg.validate()
    _check_inputs(cube, scenario, cfg)
    timings: dict = {}
    beams = _beamform(_channelize(cube, cfg, timings, owned=False), cfg, timings)
    return _back_end(beams, cfg, timings)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Simulate the configured scene and process it; see :func:`process_cube`.

    The simulated cube is the run's own, so it is channelized in place, as
    one block, and neither the cube nor its subbands outlive beamforming.
    """
    cfg.validate()
    timings: dict = {}
    # neither the cube nor its subbands is named here, so _beamform's return frees them
    beams = _beamform(_channelize(_simulate(cfg, timings), cfg, timings, owned=True), cfg, timings)
    return _back_end(beams, cfg, timings)


def _score_row(cfg: PipelineConfig, score: DetectionScore) -> dict:
    w_z, w_x = cfg.window
    plan = cfg.beamspace_plan()
    beamspace = cfg.method == METHOD_BEAMSPACE
    return {
        "scenario": cfg.scenario.name,
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
    row names its point (``loading=0.001``; a scene by its label and seed,
    ``scenario=A1 seed=1``, since seeds of one preset share its label); a
    point that fails is one ``failed: <message>`` row and the sweep goes on.
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
        label = case.scenario.name
        point = f"{axis}={value}"
        if axis == "scenario":
            point = f"scenario={label} seed={case.scenario.seed}"
        try:
            if i in failed:
                raise failed[i]
            timings: dict = {}
            if not held:
                held += _channelize(_simulate(case, timings), case, timings, owned=True)
            # neither the buffer its last reader takes nor the result is named,
            # so the buffer goes before synthesis and the result with its rows
            scores = _back_end(
                _beamform([held.pop() if i in last else held[0]], case, timings), case, timings
            ).scores
            rows += [{**_score_row(case, s), "point": point, "status": "ok"} for s in scores]
        except Exception as exc:  # record the failed point, keep sweeping
            row = dict(scenario=label, method=case.method, point=point, status=f"failed: {exc}")
            rows.append({**dict.fromkeys(SWEEP_COLUMNS, ""), **row})

    if out_path is not None:
        write_detection_report(out_path, rows, SWEEP_COLUMNS, kind="sweep")
    return rows
