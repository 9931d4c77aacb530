import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bsradar import ArrayGeometry, ChirpParams, DataCube, PipelineConfig, scenario_preset
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

    def test_cube_file_is_not_a_map(self, tmp_path, cube):
        path = tmp_path / "cube.bin"
        save_cube(path, cube)
        with pytest.raises(ValueError, match="cube"):
            load_map(path)


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

    def test_pipeline_int_fields_are_checked_by_validate(self):
        kwargs = config_from_dict({"pipeline": {"subbands": 16.0}})
        with pytest.raises(ValueError, match="^subbands: 16.0 is not an int"):
            PipelineConfig(scenario=scenario_preset("E2"), **kwargs).validate()

    def test_pipeline_section_fills_the_remaining_fields(self):
        kwargs = config_from_dict(
            {"pipeline": {"method": "conventional", "fft_size": [8, 64], "gate": [3, 2]}}
        )
        assert kwargs == {"method": "conventional", "fft_size": (8, 64), "gate": (3, 2)}
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
