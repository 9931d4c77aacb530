import argparse
import csv
import json
from dataclasses import replace

import numpy as np
import pytest

from bsradar import PipelineConfig, pipeline, scenario_preset
from bsradar.cli import _build_config, _pair, build_parser, main
from bsradar.cubeio import chirp_from_dict, geometry_from_dict, load_cube, load_scenario


@pytest.fixture
def config_file(tmp_path):
    """Small scene the CLI can process in well under a second."""
    rng = np.random.default_rng(3)
    targets = []
    for k, (rng_m, vel) in enumerate(zip((25.0, 50.0), (-20.0, 30.0))):
        az = np.deg2rad(-15.0 + 20.0 * k)
        targets.append(
            {
                "position_m": [rng_m * np.sin(az), rng_m * np.cos(az), 2.0 * k],
                "radial_velocity_mps": vel,
                "amplitude": [float(np.cos(k)), float(np.sin(k))],
            }
        )
    config = {
        "geometry": {"n_z": 2, "n_x": 8, "design_freq": 10e9},
        "chirp": {
            "pulse_samples": 256,
            "num_pulses": 16,
            "pri": 2e-6,
            "bandwidth": 400e6,
            "sample_rate": 500e6,
            "carrier_freq": 10e9,
        },
        "scenario": {
            "label": "cli-tiny",
            "seed": 17,
            "noise_power": 0.01,
            "targets": targets,
            "interferers": [],
        },
        "pipeline": {"subbands": 16, "window": [2, 4], "train_pulses": 8},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def test_simulate_writes_loadable_cube(tmp_path, config_file):
    cube_path = tmp_path / "cube.bin"
    scenario_path = tmp_path / "scene.json"
    rc = main(
        [
            "simulate",
            "--config",
            str(config_file),
            "--out",
            str(cube_path),
            "--scenario-out",
            str(scenario_path),
        ]
    )
    assert rc == 0
    config = json.loads(config_file.read_text())
    geometry = geometry_from_dict(config["geometry"])
    cube = load_cube(cube_path, geometry, chirp_from_dict(config["chirp"]))
    assert cube.samples.shape == (16, 256, 16)
    assert len(load_scenario(scenario_path).targets) == 2


def test_run_detects_targets_and_writes_reports(tmp_path, config_file, capsys):
    out_dir = tmp_path / "out"
    rc = main(
        [
            "run",
            "--config",
            str(config_file),
            "--method",
            "beamspace-mvdr",
            "--out",
            str(out_dir),
        ]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "detected 2/2 targets" in printed
    assert (out_dir / "detections.csv").exists()
    assert (out_dir / "complexity.json").exists()
    report = json.loads((out_dir / "complexity.json").read_text())
    assert report["method"] == "beamspace-mvdr"


def test_run_exports_maps_and_patterns(tmp_path, config_file, capsys):
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(config_file), "--out", str(out_dir)]
    assert main(argv + ["--export-maps", "--export-patterns"]) == 0
    printed = capsys.readouterr().out
    names = [
        "detections.csv",
        "complexity.json",
        "rdmap_target00.bin",
        "rdmap_target01.bin",
        "beampattern_target00.csv",
        "beampattern_target01.csv",
    ]
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)
    assert [line for line in printed.splitlines() if line.startswith("wrote ")] == [
        f"wrote {out_dir / name}" for name in names
    ]
    lines = (out_dir / "beampattern_target00.csv").read_text().splitlines()
    assert len(lines) == 2 + 46 * 61  # +-45 deg elevation by +-60 deg azimuth, 2 deg


@pytest.mark.parametrize("flags", [["--export-maps"], ["--export-patterns"]])
def test_export_without_out_is_rejected(tmp_path, config_file, flags, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "--config", str(config_file)] + flags)
    assert rc == 2
    assert "--out" in capsys.readouterr().err.splitlines()[-1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_sweep_cli(tmp_path, config_file):
    csv_path = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--config",
            str(config_file),
            "--axis",
            "window",
            "--values",
            "1x2,2x4",
            "--out",
            str(csv_path),
        ]
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2 + 4  # comment, header, 2 windows x 2 targets


def test_beampattern_cli(tmp_path, config_file):
    csv_path = tmp_path / "pattern.csv"
    rc = main(
        [
            "beampattern",
            "--config",
            str(config_file),
            "--method",
            "beamspace-mvdr",
            "--target",
            "0",
            "--az-start",
            "-20",
            "--az-stop",
            "20",
            "--el-start",
            "-10",
            "--el-stop",
            "10",
            "--step",
            "5",
            "--out",
            str(csv_path),
        ]
    )
    assert rc == 0
    lines = csv_path.read_text().splitlines()
    assert lines[1] == "azimuth_deg,elevation_deg,gain_linear,gain_db"
    assert len(lines) == 2 + 9 * 5


@pytest.mark.parametrize(
    "flags,flag",
    [
        (["--target", "-1"], "--target"),
        (["--target", "5"], "--target"),
        (["--step", "0"], "--step"),
        (["--step", "-1"], "--step"),
        (["--az-start", "60", "--az-stop", "-60"], "--az-start/--az-stop"),
        (["--el-start", "10", "--el-stop", "-10"], "--el-start/--el-stop"),
    ],
    ids=["target-negative", "target-past-last", "step-zero", "step-negative", "az-span", "el-span"],
)
def test_beampattern_rejects_grid_and_target_flags_before_running(
    tmp_path, config_file, capsys, monkeypatch, flags, flag
):
    def simulating(*args, **kwargs):
        raise AssertionError("ran the pipeline for a pattern it cannot write")

    monkeypatch.setattr(pipeline, "synthesize_datacube", simulating)
    csv_path = tmp_path / "pattern.csv"
    argv = ["beampattern", "--config", str(config_file), "--method", "beamspace-mvdr"]
    assert main(argv + flags + ["--out", str(csv_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not csv_path.exists()


def test_errors_exit_nonzero(tmp_path, capsys):
    rc = main(["run", "--preset", "A1", "--subbands", "100"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,field",
    [
        pytest.param("--subbands", "0", "subbands", id="--subbands-subbands"),
        pytest.param("--train-pulses", "0", "train_pulses", id="--train-pulses-train_pulses"),
        ("--loading", "nan", "loading"),
        ("--loading", "inf", "loading"),
        ("--cfar-db", "nan", "cfar_threshold_db"),
    ],
)
def test_zero_overrides_are_rejected_not_replaced(flag, value, field, capsys, monkeypatch):
    def simulating(*args, **kwargs):
        raise AssertionError("simulated a scene the config does not allow")

    monkeypatch.setattr(pipeline, "synthesize_datacube", simulating)
    rc = main(["run", "--preset", "A1", flag, value])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {field}:")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "A1", "--workers", "2"],
        ["bench", "--sizes", "8,16"],
        ["run", "--preset", "A1", "--statistic", "mean"],
        ["run", "--preset", "A1", "--no-recenter"],
    ],
)
def test_removed_options_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_negative_guard_is_rejected(capsys):
    rc = main(["run", "--preset", "A1", "--guard", "-1"])
    assert rc == 2
    assert "error: cfar_guard_cells:" in capsys.readouterr().err


def test_unknown_preset_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--preset", "Z9", "--out", "x.bin"])


@pytest.mark.parametrize(
    "flags,field,value",
    [
        # the scene flags build the one scenario field
        pytest.param(["--preset", "E2"], "scenario", scenario_preset("E2"), id="flags0-preset-E2"),
        pytest.param(["--seed", "5"], "scenario", scenario_preset("A1", 5), id="flags1-seed-5"),
        pytest.param(
            ["--snr-db", "-3"],
            "scenario",
            scenario_preset("A1", snr_db=-3.0),
            id="flags2-snr_db--3.0",
        ),
        (["--method", "conventional"], "method", "conventional"),
        (["--subbands", "64"], "subbands", 64),
        (["--fft", "8x64"], "fft_size", (8, 64)),
        (["--window", "4x8"], "window", (4, 8)),
        (["--loading", "0.5"], "loading", 0.5),
        (["--train-pulses", "4"], "train_pulses", 4),
        (["--cfar-db", "12.5"], "cfar_threshold_db", 12.5),
        (["--guard", "2"], "cfar_guard_cells", 2),
    ],
)
def test_each_flag_sets_its_config_field(flags, field, value):
    cfg = _build_config(build_parser().parse_args(["run", "--preset", "A1"] + flags))
    assert getattr(cfg, field) == value
    default = PipelineConfig(scenario=scenario_preset("A1"))
    assert replace(cfg, **{field: getattr(default, field)}) == default


def test_flags_overlay_the_file(config_file):
    argv = ["run", "--config", str(config_file), "--subbands", "8", "--guard", "0"]
    cfg = _build_config(build_parser().parse_args(argv))
    assert (cfg.subbands, cfg.cfar_guard_cells) == (8, 0)
    assert (cfg.window, cfg.train_pulses) == ((2, 4), 8)  # from the file
    assert cfg.scenario.label == "cli-tiny" and cfg.geometry.n == 16


KEY_ERRORS = [
    (lambda c: c.update(pipline={}), "config", "pipline"),
    (lambda c: c["geometry"].update(spacing_m=0.01), "geometry", "spacing_m"),
    (lambda c: c["geometry"].pop("n_x"), "geometry", "n_x"),
    (lambda c: c["chirp"].update(pulse_sample=512), "chirp", "pulse_sample"),
    (lambda c: c["scenario"].update(target=[]), "scenario", "target"),
    (
        lambda c: c["scenario"]["targets"][1].update(radial_velocity=5.0),
        "scenario.targets[1]",
        "radial_velocity",
    ),
    (
        lambda c: c["scenario"]["targets"][0].pop("position_m"),
        "scenario.targets[0]",
        "position_m",
    ),
    (
        lambda c: c["scenario"].update(
            interferers=[{"azimuth_deg": 10.0, "elevation_deg": -5.0, "power_db": 30}]
        ),
        "scenario.interferers[0]",
        "power_db",
    ),
    (lambda c: c["pipeline"].update(output_dir="out"), "pipeline", "output_dir"),
    (lambda c: c["pipeline"].update(geometry={"n_z": 2}), "pipeline", "geometry"),
    (lambda c: c["pipeline"].update(chirp={}), "pipeline", "chirp"),
    (lambda c: c["pipeline"].update(scenario={}), "pipeline", "scenario"),
    (lambda c: c["pipeline"].update(preset="A1"), "pipeline", "preset"),
    (lambda c: c["pipeline"].update(seed=5), "pipeline", "seed"),
    (lambda c: c["pipeline"].update(snr_db=-3.0), "pipeline", "snr_db"),
    (lambda c: c["pipeline"].update(gate=[5, 3]), "pipeline", "gate"),
    (lambda c: c["pipeline"].update(cfar_statistic="mean"), "pipeline", "cfar_statistic"),
    (
        lambda c: c["pipeline"].update(recenter_per_subband=False),
        "pipeline",
        "recenter_per_subband",
    ),
]


@pytest.mark.parametrize(
    "edit,section,key", KEY_ERRORS, ids=[f"{section}-{key}" for _, section, key in KEY_ERRORS]
)
def test_config_key_errors_name_section_and_key(config_file, capsys, edit, section, key):
    config = json.loads(config_file.read_text())
    edit(config)
    config_file.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_file)]) == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith(f"error: {section}: ")
    assert repr(key) in message


@pytest.mark.parametrize("command", [["run"], ["simulate", "--out", "cube.bin"]])
def test_preset_and_config_scenario_rejected(tmp_path, config_file, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    rc = main(command + ["--config", str(config_file), "--preset", "A1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: preset/scenario: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


VALUE_ERRORS = [
    (
        lambda c: c["scenario"]["targets"][0].update(amplitude=2.0),
        "scenario.targets[0]: amplitude: ",
    ),
    (lambda c: c["chirp"].update(pulse_samples="many"), "chirp: pulse_samples: "),
    (lambda c: c["pipeline"].update(window=5), "window: "),
    (lambda c: c["pipeline"].update(cfar_threshold_db="10"), "cfar_threshold_db: "),
]


@pytest.mark.parametrize(
    "edit,prefix", VALUE_ERRORS, ids=["amplitude", "pulse_samples", "window", "cfar_threshold_db"]
)
def test_config_value_errors_name_section_and_key(config_file, capsys, edit, prefix):
    config = json.loads(config_file.read_text())
    edit(config)
    config_file.write_text(json.dumps(config))
    assert main(["run", "--config", str(config_file)]) == 2
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {prefix}")


def test_snr_db_with_config_scenario_rejected(config_file, capsys):
    assert main(["run", "--config", str(config_file), "--snr-db", "-10"]) == 2
    assert capsys.readouterr().err.startswith("error: snr_db: ")


def test_seed_replaces_the_config_scenario_seed(tmp_path, config_file):
    argv = ["--config", str(config_file), "--seed", "5"]
    cfg = _build_config(build_parser().parse_args(["run"] + argv))
    file_cfg = _build_config(build_parser().parse_args(["run", "--config", str(config_file)]))
    assert cfg.scenario == replace(file_cfg.scenario, seed=5)
    scenario_path = tmp_path / "scene.json"
    out = ["--out", str(tmp_path / "cube.bin"), "--scenario-out", str(scenario_path)]
    assert main(["simulate"] + argv + out) == 0
    assert load_scenario(scenario_path).seed == 5


def test_negative_seed_is_named(capsys):
    assert main(["run", "--preset", "A1", "--seed", "-1"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == "error: seed: -1 is not a non-negative int"


def test_scenario_sweep_rejects_an_unknown_preset(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--axis", "scenario", "--values", "A1,Z9", "--out", str(csv_path)]
    assert main(argv) == 2
    assert "'Z9'" in capsys.readouterr().err
    assert not csv_path.exists()


@pytest.mark.parametrize("scene", ["preset", "config"])
def test_scenario_sweep_rejects_a_base_scene(tmp_path, config_file, capsys, scene):
    csv_path = tmp_path / "sweep.csv"
    base = ["--preset", "E2"] if scene == "preset" else ["--config", str(config_file)]
    argv = ["sweep", *base, "--axis", "scenario", "--values", "A1", "--out", str(csv_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: scenario: --axis scenario takes its scenes from --values, "
        "not from --preset or a config file's scenario"
    )
    assert not csv_path.exists()


METHOD_FAILED = (
    "failed: method: 'mvdr' not one of ('antenna-mvdr', 'beamspace-mvdr', 'conventional')"
)


@pytest.mark.parametrize(
    "axis,values,rows",
    [
        # empty items are skipped; each point that runs has a row per target
        ("loading", "1e-3,,1e-4,", [("loading=0.001", "ok")] * 2 + [("loading=0.0001", "ok")] * 2),
        ("window", "2x4,", [("window=(2, 4)", "ok")] * 2),
        # an unknown method is a value of the field, so it fails as its point's row
        (
            "method",
            "antenna-mvdr,mvdr",
            [("method=antenna-mvdr", "ok")] * 2 + [("method=mvdr", METHOD_FAILED)],
        ),
    ],
)
def test_sweep_axis_is_any_pipeline_flag_field(tmp_path, config_file, axis, values, rows):
    csv_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config_file), "--axis", axis, "--values", values]
    assert main(argv + ["--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# bsradar sweep report v2"
    assert [(row["point"], row["status"]) for row in csv.DictReader(lines[1:])] == rows


@pytest.mark.parametrize(
    "axis,values,message",
    [
        ("loading", "1e-3,abc", "could not convert string to float: 'abc'"),
        ("window", "2x4,2x", "invalid literal for int() with base 10: ''"),
        ("subbands", "16,2.5", "invalid literal for int() with base 10: '2.5'"),
    ],
)
def test_sweep_values_are_all_read_before_any_point_runs(
    tmp_path, config_file, capsys, axis, values, message
):
    csv_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--config", str(config_file), "--axis", axis, "--values", values]
    assert main(argv + ["--out", str(csv_path)]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not csv_path.exists()


def test_sweep_axis_is_spelled_as_the_field(tmp_path, config_file, capsys):
    argv = ["sweep", "--config", str(config_file), "--axis", "fft-size", "--values", "2x8"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--out", str(tmp_path / "sweep.csv")])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'fft-size'" in err and "'fft_size'" in err and "'loading'" in err


@pytest.mark.parametrize("text", ["1x2x3", "4,8,16", "4"])
def test_pair_takes_exactly_two_ints(text):
    with pytest.raises(argparse.ArgumentTypeError, match="^expected VxH"):
        _pair(text)
