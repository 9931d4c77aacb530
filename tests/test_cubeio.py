import json
import re
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bsradar import (
    ArrayGeometry,
    ChirpParams,
    DataCube,
    Direction,
    InterfererSpec,
    PipelineConfig,
    Scenario,
    TargetSpec,
    scenario_preset,
)
from bsradar.cli import build_parser
from bsradar.cubeio import (
    chirp_from_dict,
    config_from_dict,
    geometry_from_dict,
    load_cube,
    load_map,
    load_scenario,
    save_cube,
    save_map,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from bsradar.simulate import DEFAULT_SEED

from conftest import random_complex


@pytest.fixture
def cube(rng):
    geom = ArrayGeometry(2, 4, 10e9)
    cp = ChirpParams(pulse_samples=64, num_pulses=4, pri=1e-6)
    return DataCube(random_complex(rng, (8, 64, 4)), geom, cp)


def test_package_import_exposes_cubeio():
    # the pipeline no longer imports cubeio; the package must still expose it
    code = "import bsradar; print(bsradar.cubeio.load_cube.__name__)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "load_cube"


class TestBinaryCube:
    def test_header_is_64_bytes_and_payload_float32_pairs(self, tmp_path, cube):
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        size = path.stat().st_size
        assert size == 64 + cube.samples.size * 2 * 4

    def test_round_trip_is_bit_exact(self, tmp_path, cube):
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_cube(first, cube)
        loaded = load_cube(first, cube.geometry, cube.chirp)
        save_cube(second, loaded)
        assert first.read_bytes() == second.read_bytes()
        # float32 quantization is the only loss on the first write
        assert np.allclose(loaded.samples, cube.samples, atol=1e-5)

    def test_dimension_validation(self, tmp_path, cube):
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        wrong = ArrayGeometry(4, 4, 10e9)
        with pytest.raises(ValueError):
            load_cube(path, wrong, cube.chirp)

    def test_rows_match_whole_buffer_conversion(self, tmp_path, cube, rng):
        # magnitudes 1e-40..1e38: float32 subnormals up to near its maximum
        shape = cube.samples.shape
        signs = rng.choice([-1.0, 1.0], (2, *shape))
        parts = signs * 10.0 ** rng.uniform(-40, 38, (2, *shape))
        wide = DataCube(parts[0] + 1j * parts[1], cube.geometry, cube.chirp)
        path = tmp_path / "wide.bin"
        save_cube(path, wide)
        payload = path.read_bytes()[64:]
        assert payload == wide.samples.astype("<c8").tobytes()
        whole = np.frombuffer(payload, dtype="<f4").view("<c8").reshape(shape).astype(complex)
        loaded = load_cube(path, cube.geometry, cube.chirp).samples
        assert loaded.dtype == np.complex128
        assert np.array_equal(loaded, whole)

    @pytest.mark.parametrize("change", [-8, -1, 1, 8])
    def test_payload_size_must_match_the_header(self, tmp_path, cube, change):
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        data = path.read_bytes()
        path.write_bytes(data[:change] if change < 0 else data + b"\0" * change)
        with pytest.raises(ValueError, match="payload holds"):
            load_cube(path, cube.geometry, cube.chirp)

    def test_sample_rate_must_match_the_chirp(self, tmp_path, cube):
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        faster = replace(cube.chirp, sample_rate=2 * cube.chirp.sample_rate)
        with pytest.raises(ValueError, match="sample rate"):
            load_cube(path, cube.geometry, faster)

    def test_bad_magic_rejected(self, tmp_path, cube):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 128)
        with pytest.raises(ValueError, match="magic"):
            load_cube(path, cube.geometry, cube.chirp)

    def test_sample_beyond_float32_is_refused(self, tmp_path, cube):
        samples = cube.samples.copy()
        samples[5, 3, 1] = 2.0**200
        path = tmp_path / "cube.bin"
        with pytest.raises(ValueError, match="^antenna row 5: a sample exceeds the float32 range$"):
            save_cube(path, DataCube(samples, cube.geometry, cube.chirp))
        assert not path.exists()

    def test_map_file_is_not_a_cube(self, tmp_path, rng, cube):
        path = tmp_path / "map.bin"
        save_map(path, rng.exponential(1.0, (16, 4)), 500e6)
        with pytest.raises(ValueError, match="real"):
            load_cube(path, cube.geometry, cube.chirp)


class TestBinaryMap:
    def test_round_trip(self, tmp_path, rng):
        power = rng.exponential(1.0, (32, 8)).astype(np.float32).astype(float)
        path = tmp_path / "map.bin"
        save_map(path, power, 500e6)
        assert np.array_equal(load_map(path), power)

    @pytest.mark.parametrize("value", [2.0**200, np.inf, np.nan])
    def test_value_float32_cannot_hold_is_refused(self, tmp_path, value):
        power = np.ones((4, 3))
        power[2, 1] = value
        path = tmp_path / "map.bin"
        match = f"^map {re.escape(str(path))}: a value is not finite in float32$"
        with pytest.raises(ValueError, match=match):
            save_map(path, power, 500e6)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        payload = np.ones(6, "<f4")
        payload[4] = value
        path = tmp_path / "map.bin"
        path.write_bytes(_header(2, (2, 3, 1, 1)) + payload.tobytes())
        match = f"^map {re.escape(str(path))}: a value is not finite in float32$"
        with pytest.raises(ValueError, match=match):
            load_map(path)

    def test_cube_file_is_not_a_map(self, tmp_path, cube):
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        with pytest.raises(ValueError, match="cube"):
            load_map(path)


def _header(flags, dims, fs=500e6):
    """A format-1 header as written by hand, not by save_cube or save_map."""
    return struct.pack("<8sII4Id24x", b"BSRCUBE\0", 1, flags, *dims, fs)


class TestHeaderFlags:
    @pytest.mark.parametrize("flags", [0, 1, 3])
    def test_map_needs_the_map_flag_alone(self, tmp_path, flags):
        path = tmp_path / "map.bin"
        path.write_bytes(_header(flags, (2, 3, 1, 1)) + np.zeros(6, "<f4").tobytes())
        with pytest.raises(ValueError, match=f"^flags: {flags} marks .*, expected 2 "):
            load_map(path)

    def test_map_needs_unit_trailing_dims(self, tmp_path):
        path = tmp_path / "map.bin"
        path.write_bytes(_header(2, (2, 3, 5, 7)) + np.zeros(6, "<f4").tobytes())
        with pytest.raises(ValueError, match=r"^dims: \(2, 3, 5, 7\) are not a map's"):
            load_map(path)

    @pytest.mark.parametrize("flags", [0, 2, 3])
    def test_cube_needs_the_complex_flag_alone(self, tmp_path, cube, flags):
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        raw = bytearray(path.read_bytes())
        raw[12:16] = flags.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^flags: {flags} marks .*, expected 1 "):
            load_cube(path, cube.geometry, cube.chirp)


class TestScenarioJson:
    def test_round_trip_preserves_everything(self, tmp_path):
        sc = scenario_preset("B2", seed=99)
        path = tmp_path / "scene.json"
        save_scenario(path, sc)
        loaded = load_scenario(path)
        assert len(loaded.targets) == len(sc.targets)
        assert loaded.seed == sc.seed and loaded.label == sc.label
        for a, b in zip(loaded.targets, sc.targets):
            assert a.position == pytest.approx(b.position)
            assert a.radial_velocity == pytest.approx(b.radial_velocity)
            assert a.amplitude == pytest.approx(b.amplitude)
        for a, b in zip(loaded.interferers, sc.interferers):
            assert a.direction.azimuth == pytest.approx(b.direction.azimuth)
            assert a.power == pytest.approx(b.power)
            assert a.waveform_kind == b.waveform_kind

    def test_dict_defaults(self):
        sc = scenario_from_dict({"targets": [{"position_m": [0, 50, 5]}]})
        assert sc.targets[0].amplitude == 1.0 + 0.0j
        assert sc.noise_power == 1.0
        assert sc.seed == DEFAULT_SEED
        round_tripped = scenario_from_dict(scenario_to_dict(sc))
        assert round_tripped.targets[0].position == sc.targets[0].position


class TestConfigJson:
    def test_absent_keys_take_the_dataclass_defaults(self):
        chirp = chirp_from_dict({"num_pulses": 8, "pri": 1})
        assert chirp == ChirpParams(num_pulses=8, pri=1.0)
        assert type(chirp.num_pulses) is int and type(chirp.pri) is float
        geom = geometry_from_dict({"n_z": 2, "n_x": 4, "design_freq": 1e10})
        assert geom == ArrayGeometry(2, 4, 10e9)
        assert type(geom.n_z) is int
        assert geometry_from_dict({**vars(geom), "spacing": None}) == geom

    @pytest.mark.parametrize(
        "read,data,prefix",
        [
            (chirp_from_dict, {"pulse_samples": 256.7}, "chirp: pulse_samples: "),
            (chirp_from_dict, {"pulse_samples": True}, "chirp: pulse_samples: "),
            (geometry_from_dict, {"n_z": 2.5, "n_x": 4, "design_freq": 1e10}, "geometry: n_z: "),
            (scenario_from_dict, {"seed": 3.7}, "scenario: seed: "),
        ],
        ids=["chirp-float", "chirp-bool", "geometry-float", "scenario-seed-float"],
    )
    def test_int_fields_take_only_json_integers(self, read, data, prefix):
        with pytest.raises(ValueError, match=f"^{prefix}.* is not an integer"):
            read(data)

    @pytest.mark.parametrize(
        "data,prefix",
        [
            ({"label": 5}, "scenario: label: 5"),
            (
                {"interferers": [{"azimuth_deg": 0.0, "elevation_deg": 0.0, "waveform_kind": 5}]},
                r"scenario.interferers\[0\]: waveform_kind: 5",
            ),
        ],
        ids=["label", "waveform-kind"],
    )
    def test_string_fields_take_only_json_strings(self, data, prefix):
        with pytest.raises(ValueError, match=f"^{prefix} is not a string"):
            scenario_from_dict(data)

    def test_pipeline_int_fields_are_checked_by_validate(self):
        kwargs = config_from_dict({"pipeline": {"subbands": 16.0}})
        with pytest.raises(ValueError, match="^subbands: 16.0 is not an int"):
            PipelineConfig(scenario=scenario_preset("E2"), **kwargs).validate()

    def test_pipeline_section_fills_the_remaining_fields(self):
        kwargs = config_from_dict(
            {"pipeline": {"method": "conventional", "fft_size": [8, 64], "window": [4, 8]}}
        )
        assert kwargs == {"method": "conventional", "fft_size": (8, 64), "window": (4, 8)}
        PipelineConfig(scenario=scenario_preset("E2"), **kwargs).validate()

    def test_readme_config_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config file", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = PipelineConfig(**config_from_dict(json.loads(block)))
        cfg.validate()
        assert cfg.scenario.label == "my-scene" and len(cfg.scenario.interferers) == 1
        assert cfg.geometry == ArrayGeometry(4, 32, 10e9)
        assert cfg.chirp == ChirpParams()

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## CLI", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line.split() for line in block.splitlines() if line.startswith("bsradar ")]
        assert len(lines) >= 6
        for argv in lines:
            assert build_parser().parse_args(argv[1:]).command == argv[1]


def _short_file(path, cube):
    path.write_bytes(b"BSRCUBE\x00" + bytes(8))


def _truncated_map(path, cube):
    save_map(path, np.zeros((4, 2)), 500e6)
    path.write_bytes(path.read_bytes()[:-4])


def _load(path, cube):
    return load_cube(path, cube.geometry, cube.chirp)


def _version_2(path, cube):
    save_cube(path, cube)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize(
    "write,read,match",
    [
        (_short_file, _load, "^file too short"),
        (_version_2, _load, "^unsupported format version 2"),
        (
            save_cube,
            lambda p, c: load_cube(p, c.geometry, replace(c.chirp, num_pulses=8, pri=2e-6)),
            "^chirp does not match the stored dimensions",
        ),
        (
            lambda p, c: save_map(p, np.zeros(5), 500e6),
            lambda p, c: None,
            "^expected a 2D power map",
        ),
        (
            _truncated_map,
            lambda p, c: load_map(p),
            "^payload holds 7 floats, expected 8",
        ),
        (
            lambda p, c: None,
            lambda p, c: config_from_dict({"chirp": [1, 2]}),
            "^chirp: expected a JSON object, got list",
        ),
        (
            lambda p, c: None,
            lambda p, c: config_from_dict("chirp"),
            "^config: expected a JSON object, got str",
        ),
        (
            lambda p, c: None,
            lambda p, c: config_from_dict({"chirp": {"pri": 10**400}}),
            "^chirp: pri: int too large to convert to float",
        ),
        (
            lambda p, c: None,
            lambda p, c: scenario_from_dict(
                {"targets": [{"position_m": [0.0, 50.0, 0.0], "amplitude": [10**400, 0]}]}
            ),
            r"^scenario.targets\[0\]: amplitude: int too large to convert to float",
        ),
    ],
    ids=[
        "short-header",
        "bad-version",
        "chirp-dims",
        "map-not-2d",
        "map-payload",
        "section-not-object",
        "config-not-object",
        "real-int-beyond-float",
        "amplitude-int-beyond-float",
    ],
)
def test_input_checks(tmp_path, cube, write, read, match):
    path = tmp_path / "file.bin"
    with pytest.raises(ValueError, match=match):
        write(path, cube)
        read(path, cube)


NAN, INF = float("nan"), float("inf")
AT_ORIGIN = {"azimuth_deg": 0.0, "elevation_deg": 0.0}
GEOMETRY = {"n_z": 4, "n_x": 32, "design_freq": 10e9}


@pytest.mark.parametrize(
    "section,data,build,match",
    [
        ("chirp", {"pri": NAN}, lambda: ChirpParams(pri=NAN), "pri: nan is not a finite number"),
        (
            "chirp",
            {"carrier_freq": INF},
            lambda: ChirpParams(carrier_freq=INF),
            "carrier_freq: inf is not a finite number",
        ),
        (
            "chirp",
            {"sample_rate": 0, "bandwidth": 0},
            lambda: ChirpParams(sample_rate=0, bandwidth=0),
            r"sample_rate: 0(\.0)? must be positive",
        ),
        (
            "chirp",
            {"carrier_freq": 250e6},
            lambda: ChirpParams(carrier_freq=250e6),
            r"carrier_freq: 250000000.0 must exceed sample_rate / 2",
        ),
        (
            "geometry",
            {**GEOMETRY, "design_freq": NAN},
            lambda: ArrayGeometry(4, 32, NAN),
            "design_freq: nan is not a finite number",
        ),
        (
            "geometry",
            {**GEOMETRY, "spacing": INF},
            lambda: ArrayGeometry(4, 32, 10e9, INF),
            "spacing: inf is not a finite number",
        ),
        (
            "scenario",
            {"noise_power": INF},
            lambda: Scenario(noise_power=INF),
            "noise_power: inf is not a finite number",
        ),
        (
            "scenario",
            {"targets": [{"position_m": [NAN, 50.0, 0.0]}]},
            lambda: TargetSpec((NAN, 50.0, 0.0)),
            r"position: \(nan, 50.0, 0.0\) is not a finite number",
        ),
        (
            "scenario",
            {"targets": [{"position_m": [0.0, 50.0, 0.0], "radial_velocity_mps": -INF}]},
            lambda: TargetSpec((0.0, 50.0, 0.0), -INF),
            "radial_velocity: -inf is not a finite number",
        ),
        (
            "scenario",
            {"targets": [{"position_m": [0.0, 50.0, 0.0], "amplitude": [1.0, NAN]}]},
            lambda: TargetSpec((0.0, 50.0, 0.0), 0.0, complex(1.0, NAN)),
            r"amplitude: \(1\+nanj\) is not a finite number",
        ),
        (
            "scenario",
            {"interferers": [{**AT_ORIGIN, "power": INF}]},
            lambda: InterfererSpec(Direction(0.0, 0.0), INF),
            "power: inf is not a finite number",
        ),
    ],
    ids=[
        "pri",
        "carrier",
        "zero-sample-rate",
        "carrier-below-half-rate",
        "design-freq",
        "spacing",
        "noise-power",
        "target-position",
        "target-velocity",
        "target-amplitude",
        "interferer-power",
    ],
)
def test_numbers_are_checked_where_built(section, data, build, match):
    with pytest.raises(ValueError, match=f"^{match}"):
        build()
    with pytest.raises(ValueError, match=f"^config: {section}: {match}"):
        config_from_dict({section: data})


@pytest.mark.parametrize(
    "section,data,prefix",
    [
        ("chirp", {"pri": True}, "chirp: pri: True"),
        ("chirp", {"pri": "1e-4"}, "chirp: pri: '1e-4'"),
        ("geometry", {**GEOMETRY, "design_freq": "1e10"}, "geometry: design_freq: '1e10'"),
        ("geometry", {**GEOMETRY, "spacing": False}, "geometry: spacing: False"),
        ("scenario", {"noise_power": "1"}, "scenario: noise_power: '1'"),
        (
            "scenario",
            {"targets": [{"position_m": ["0", 50.0, 0.0]}]},
            r"scenario.targets\[0\]: position_m: '0'",
        ),
        (
            "scenario",
            {"targets": [{"position_m": [0.0, 50.0, 0.0], "radial_velocity_mps": True}]},
            r"scenario.targets\[0\]: radial_velocity_mps: True",
        ),
        (
            "scenario",
            {"targets": [{"position_m": [0.0, 50.0, 0.0], "amplitude": [True, 0.0]}]},
            r"scenario.targets\[0\]: amplitude: True",
        ),
        (
            "scenario",
            {"interferers": [{**AT_ORIGIN, "bandwidth_fraction": "0.5"}]},
            r"scenario.interferers\[0\]: bandwidth_fraction: '0.5'",
        ),
        (
            "scenario",
            {"interferers": [{"azimuth_deg": True, "elevation_deg": 0.0}]},
            r"scenario.interferers\[0\]: azimuth_deg: True",
        ),
    ],
    ids=[
        "chirp-bool",
        "chirp-string",
        "geometry-string",
        "spacing-bool",
        "noise-power-string",
        "position-string",
        "velocity-bool",
        "amplitude-bool",
        "fraction-string",
        "azimuth-bool",
    ],
)
def test_float_fields_take_only_json_numbers(section, data, prefix):
    with pytest.raises(ValueError, match=f"^{prefix} is not a number"):
        config_from_dict({section: data})
