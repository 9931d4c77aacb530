"""Command-line entry point: simulate / run / sweep / beampattern."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import cubeio
from .mvdr import ANTENNA_SPACE, beam_pattern, lift_correlator, write_beam_pattern_csv
from .pipeline import (
    METHODS,
    PipelineConfig,
    PipelineResult,
    run_pipeline,
    sweep,
    write_reports,
)
from .simulate import DEFAULT_SEED, PRESET_NAMES, Scenario, scenario_preset, synthesize_datacube

# `run --export-patterns` grid, degrees: (azimuth span, elevation span, step)
RUN_PATTERN_GRID = ((-60.0, 60.0), (-45.0, 45.0), 2.0)


def _pair(text: str) -> tuple[int, int]:
    """Parse '4x32' or '4,32' into an int pair."""
    sep = "x" if "x" in text else ","
    parts = text.split(sep)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected VxH, got {text!r}")
    return int(parts[0]), int(parts[1])


def _preset(name: str, args) -> Scenario:
    """The named preset at ``--seed`` and ``--snr-db``."""
    return scenario_preset(name, DEFAULT_SEED if args.seed is None else args.seed, args.snr_db)


def _build_config(args, needs_scene: bool = True) -> PipelineConfig:
    """The config file's sections, overlaid by each flag given (its dest is the field);
    the scene is ``--preset`` or the file's scenario with ``--seed`` applied."""
    fields = cubeio.load_config(args.config) if args.config else {}
    names = {f.name for f in dataclasses.fields(PipelineConfig)}
    fields.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    scenario = fields.get("scenario")
    if (args.preset is None) == (scenario is None) and (needs_scene or scenario is not None):
        raise ValueError("preset/scenario: exactly one of the two must be given")
    if args.preset is not None:
        fields["scenario"] = _preset(args.preset, args)
    elif scenario is not None and args.snr_db is not None:
        raise ValueError("snr_db: shapes preset targets only, not a file scenario")
    elif scenario is not None and args.seed is not None:
        fields["scenario"] = dataclasses.replace(scenario, seed=args.seed)
    return PipelineConfig(**fields)


def _cmd_simulate(args) -> int:
    cfg = _build_config(args)
    cube = synthesize_datacube(cfg.scenario, cfg.geometry, cfg.chirp)
    cubeio.save_cube(args.cube_out, cube)
    print(f"wrote cube {cube.samples.shape} to {args.cube_out}")
    if args.scenario_out:
        cubeio.save_scenario(args.scenario_out, cfg.scenario)
        print(f"wrote scenario to {args.scenario_out}")
    return 0


def _write_beam_pattern(
    result: PipelineResult, target: int, path, grid
) -> tuple[int, int]:
    """Lift a target's center-subband correlator and write its pattern CSV.

    ``grid`` is ((az_start, az_stop), (el_start, el_stop), step) in degrees,
    both stops included; returns the pattern's (elevations, azimuths) shape.
    """
    (az_start, az_stop), (el_start, el_stop), step = grid
    cfg = result.config
    corr = result.center_correlators[target]
    if corr.space != ANTENNA_SPACE:
        corr = lift_correlator(corr, cfg.beamspace_plan(), result.center_windows[target])
    azimuths = np.deg2rad(np.arange(az_start, az_stop + 1e-9, step))
    elevations = np.deg2rad(np.arange(el_start, el_stop + 1e-9, step))
    pattern = beam_pattern(corr, azimuths, elevations, cfg.geometry, cfg.chirp.carrier_freq)
    write_beam_pattern_csv(path, pattern, azimuths, elevations)
    return pattern.shape


def _cmd_run(args) -> int:
    if (args.export_maps or args.export_patterns) and not args.out:
        raise ValueError("--export-maps and --export-patterns need --out DIR")
    cfg = _build_config(args)
    result = run_pipeline(cfg)
    detected = result.detection_count
    total = len(result.scores)
    print(f"method={cfg.method} scenario={cfg.scenario.label or 'custom'}")
    print(f"detected {detected}/{total} targets")
    for score in result.scores:
        if score.detected:
            print(
                f"  target {score.target_id:2d}: range err {score.range_error:8.2f} m, "
                f"velocity err {score.velocity_error:6.2f} m/s"
            )
        else:
            print(f"  target {score.target_id:2d}: MISS")
    report = result.complexity
    print(
        f"training mults/pair: {report.training_mults_per_pair}, "
        f"application mults/snapshot: {report.application_mults_per_snapshot}"
    )
    if not args.out:
        return 0
    written = write_reports(result, args.out)
    out_dir = Path(args.out)
    if args.export_maps:
        for k, rd in enumerate(result.maps):
            path = out_dir / f"rdmap_target{k:02d}.bin"
            cubeio.save_map(path, rd.power, cfg.chirp.sample_rate)
            written.append(path)
    if args.export_patterns:
        for k in range(len(result.center_correlators)):
            path = out_dir / f"beampattern_target{k:02d}.csv"
            _write_beam_pattern(result, k, path, RUN_PATTERN_GRID)
            written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _build_config(args, needs_scene=args.axis != "scenario")
    if args.axis == "scenario" and cfg.scenario is not None:
        raise ValueError(
            "scenario: --axis scenario takes its scenes from --values, "
            "not from --preset or a config file's scenario"
        )
    # every item is converted before any point runs; a scenario is a preset name
    convert = args.axes[args.axis] or (lambda name: _preset(name, args))
    values = [convert(item) for item in args.values.split(",") if item]
    rows = sweep(cfg, args.axis, values, args.sweep_out)
    ok = sum(1 for r in rows if r.get("status") == "ok")
    print(f"sweep over {args.axis}: {len(values)} points, {ok} result rows ok")
    print(f"wrote {args.sweep_out}")
    return 0


def _cmd_beampattern(args) -> int:
    result = run_pipeline(_build_config(args))
    grid = ((args.az_start, args.az_stop), (args.el_start, args.el_stop), args.step)
    n_el, n_az = _write_beam_pattern(result, args.target, args.pattern_out, grid)
    print(f"wrote beam pattern ({n_el}x{n_az}) to {args.pattern_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsradar",
        description="Windowed beamspace MVDR processing for wideband planar-array radar",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scene_args(p):
        p.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
        p.add_argument("--config", help="JSON config file (scenario/geometry/chirp/pipeline)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--snr-db", type=float, default=None, dest="snr_db")

    def add_pipeline_args(p):
        """Add the pipeline flags, each with its field as dest, and return them."""
        return [
            p.add_argument("--method", choices=METHODS),
            p.add_argument("--subbands", type=int),
            p.add_argument("--fft", type=_pair, metavar="MZxMX", dest="fft_size"),
            p.add_argument("--window", type=_pair, metavar="WZxWX"),
            p.add_argument("--loading", type=float),
            p.add_argument("--train-pulses", type=int, dest="train_pulses"),
            p.add_argument("--cfar-db", type=float, metavar="CFAR_DB", dest="cfar_threshold_db"),
            p.add_argument("--guard", type=int, metavar="GUARD", dest="cfar_guard_cells"),
        ]

    p_sim = sub.add_parser("simulate", help="synthesize a scene into a binary cube")
    add_scene_args(p_sim)
    p_sim.add_argument("--out", required=True, dest="cube_out", help="cube file path")
    p_sim.add_argument("--scenario-out", dest="scenario_out", help="also dump scenario JSON")
    p_sim.set_defaults(func=_cmd_simulate)

    p_run = sub.add_parser("run", help="run one pipeline configuration")
    add_scene_args(p_run)
    add_pipeline_args(p_run)
    p_run.add_argument("--out", help="output directory for reports")
    p_run.add_argument("--export-maps", action="store_true", dest="export_maps")
    p_run.add_argument("--export-patterns", action="store_true", dest="export_patterns")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one config field, or the scenario")
    add_scene_args(p_sweep)
    # an axis is a pipeline flag's field, its values read by that flag's type
    axes = {"scenario": None, **{f.dest: f.type or str for f in add_pipeline_args(p_sweep)}}
    p_sweep.add_argument("--axis", required=True, choices=tuple(axes))
    p_sweep.add_argument("--values", default="", help="comma list, e.g. 2x4,4x4,4x8")
    p_sweep.add_argument("--out", required=True, dest="sweep_out", help="CSV path")
    p_sweep.set_defaults(func=_cmd_sweep, axes=axes)

    p_bp = sub.add_parser("beampattern", help="export a correlator's beam pattern")
    add_scene_args(p_bp)
    add_pipeline_args(p_bp)
    p_bp.add_argument("--target", type=int, default=0)
    p_bp.add_argument("--az-start", type=float, default=-60.0)
    p_bp.add_argument("--az-stop", type=float, default=60.0)
    p_bp.add_argument("--el-start", type=float, default=-45.0)
    p_bp.add_argument("--el-stop", type=float, default=45.0)
    p_bp.add_argument("--step", type=float, default=1.0)
    p_bp.add_argument("--out", required=True, dest="pattern_out", help="CSV path")
    p_bp.set_defaults(func=_cmd_beampattern)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
