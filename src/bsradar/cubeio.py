"""On-disk formats: binary cubes and maps, JSON scenario/config files.

Binary layout (little endian, fixed 64-byte header then payload):

====== ====== ===========================================================
offset size   field
====== ====== ===========================================================
0      8      magic ``b"BSRCUBE\\0"``
8      4      format version (u32, currently 1)
12     4      flags (u32): 1 = complex cube payload, 2 = real range-Doppler
              map; a file holds exactly one of the two
16     16     dims (4 x u32): cubes (n_z, n_x, fast, pulses);
              maps (range bins, velocity bins, 1, 1)
32     8      sample rate in Hz (f64)
40     24     reserved, zero
====== ====== ===========================================================

Complex payloads are interleaved float32 real/imag pairs in C order with
the antenna axis outermost; real payloads (maps) are plain float32.  Values
are quantized to float32 on write, so a load/save cycle is bit-exact.
Values too small for float32 lose precision or flush to zero; a value
float32 cannot hold (beyond its range, or not finite) is refused by the
writers and, in a file, by the readers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import typing
from pathlib import Path

import numpy as np

from .geometry import ArrayGeometry, Direction, is_count, is_real
from .pipeline import PipelineConfig
from .simulate import (
    ChirpParams,
    DataCube,
    InterfererSpec,
    Scenario,
    TargetSpec,
)

MAGIC = b"BSRCUBE\x00"
VERSION = 1
FLAG_COMPLEX = 1
FLAG_MAP = 2
_KINDS = {FLAG_COMPLEX: "an IQ cube", FLAG_MAP: "a real power map"}

_HEADER = struct.Struct("<8sII4Idxxxxxxxxxxxxxxxxxxxxxxxx")
assert _HEADER.size == 64


def _write_header(handle, flags: int, dims: tuple[int, int, int, int], fs: float) -> None:
    handle.write(_HEADER.pack(MAGIC, VERSION, flags, *dims, fs))


def _read_header(handle) -> tuple[int, tuple[int, int, int, int], float]:
    raw = handle.read(_HEADER.size)
    if len(raw) != _HEADER.size:
        raise ValueError("file too short for a cube header")
    magic, version, flags, d0, d1, d2, d3, fs = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}; not a bsradar binary file")
    if version != VERSION:
        raise ValueError(f"unsupported format version {version}")
    return flags, (d0, d1, d2, d3), fs


def _check_flags(flags: int, expected: int) -> None:
    """Reject a file whose flags are not exactly those of the kind asked for."""
    if flags != expected:
        held = _KINDS.get(flags, "no known kind of file")
        raise ValueError(f"flags: {flags} marks {held}, expected {expected} ({_KINDS[expected]})")


def save_cube(path, cube: DataCube) -> None:
    """Write a data cube as float32 IQ pairs behind the fixed header.

    A sample beyond float32's range raises a ``ValueError`` naming its
    antenna row, and the partly written file is removed."""
    geom = cube.geometry
    dims = (geom.n_z, geom.n_x, cube.chirp.pulse_samples, cube.chirp.num_pulses)
    row_buf = np.empty(cube.samples.shape[1:], dtype="<c8")
    try:
        with open(path, "wb") as handle, np.errstate(over="raise", under="ignore"):
            _write_header(handle, FLAG_COMPLEX, dims, cube.chirp.sample_rate)
            for k, row in enumerate(cube.samples):
                row_buf[...] = row
                handle.write(row_buf)
    except FloatingPointError:  # only the cast into row_buf computes
        os.remove(path)
        raise ValueError(f"antenna row {k}: a sample exceeds the float32 range") from None


def load_cube(path, geometry: ArrayGeometry, chirp: ChirpParams) -> DataCube:
    """Read a cube file back; geometry/chirp supply the radio metadata.

    The header must carry the complex flag alone, and its dimensions and
    sample rate must match the given geometry and chirp.  The payload is
    read one antenna row at a time into a reused float32 buffer.
    """
    with open(path, "rb") as handle:
        flags, (n_z, n_x, n_fast, n_pulses), fs = _read_header(handle)
        _check_flags(flags, FLAG_COMPLEX)
        if (geometry.n_z, geometry.n_x) != (n_z, n_x):
            raise ValueError("geometry does not match the stored dimensions")
        if (chirp.pulse_samples, chirp.num_pulses) != (n_fast, n_pulses):
            raise ValueError("chirp does not match the stored dimensions")
        if chirp.sample_rate != fs:
            raise ValueError(
                f"chirp sample rate {chirp.sample_rate} Hz does not match the "
                f"stored {fs} Hz"
            )
        payload = os.fstat(handle.fileno()).st_size - _HEADER.size
        expected = n_z * n_x * n_fast * n_pulses * 8
        if payload != expected:
            raise ValueError(f"payload holds {payload} bytes, expected {expected}")
        samples = np.empty((n_z * n_x, n_fast, n_pulses), dtype=complex)
        row_buf = np.empty((n_fast, n_pulses), dtype="<c8")
        for row in samples:
            if handle.readinto(row_buf) != row_buf.nbytes:
                raise ValueError("payload ended before the last antenna row")
            row[...] = row_buf
    return DataCube(samples, geometry, chirp)


def _finite_map(payload: np.ndarray, path) -> np.ndarray:
    """A float32 map payload, refused with a ``ValueError`` naming the map
    if a value is not finite."""
    if not np.isfinite(payload).all():
        raise ValueError(f"map {path}: a value is not finite in float32")
    return payload


def save_map(path, power: np.ndarray, sample_rate: float) -> None:
    """Write a real-valued range-Doppler power map (real-payload flag set).

    A map that is not finite, or holds a value beyond float32's range, raises
    a ``ValueError`` naming it before the file is opened."""
    arr = np.asarray(power)
    if arr.ndim != 2:
        raise ValueError("expected a 2D power map")
    with np.errstate(over="ignore", under="ignore"):  # beyond float32's range: inf
        payload = _finite_map(arr.astype("<f4"), path)
    dims = (arr.shape[0], arr.shape[1], 1, 1)
    with open(path, "wb") as handle:
        _write_header(handle, FLAG_MAP, dims, sample_rate)
        handle.write(payload)


def load_map(path) -> np.ndarray:
    """Read a power map back; its header must carry the map flag alone and
    dims (rows, cols, 1, 1), and its payload must be finite."""
    with open(path, "rb") as handle:
        flags, dims, _fs = _read_header(handle)
        _check_flags(flags, FLAG_MAP)
        if dims[2:] != (1, 1):
            raise ValueError(f"dims: {dims} are not a map's (rows, cols, 1, 1)")
        raw = np.frombuffer(handle.read(), dtype="<f4")
    rows, cols = dims[:2]
    if raw.size != rows * cols:
        raise ValueError(f"payload holds {raw.size} floats, expected {rows * cols}")
    return _finite_map(raw, path).reshape(rows, cols).astype(np.float64)


# ---------------------------------------------------------------------------
# JSON scenario / config files (angles in degrees at the file boundary)
# ---------------------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "label": scenario.label,
        "seed": scenario.seed,
        "noise_power": scenario.noise_power,
        "targets": [
            {
                "position_m": list(t.position),
                "radial_velocity_mps": t.radial_velocity,
                "amplitude": [t.amplitude.real, t.amplitude.imag],
            }
            for t in scenario.targets
        ],
        "interferers": [
            {
                "azimuth_deg": float(np.rad2deg(i.direction.azimuth)),
                "elevation_deg": float(np.rad2deg(i.direction.elevation)),
                "power": i.power,
                "waveform_kind": i.waveform_kind,
                "bandwidth_fraction": i.bandwidth_fraction,
            }
            for i in scenario.interferers
        ],
    }


class _SectionError(ValueError):
    """A config file error whose message already names its section."""


def _read(section: str, data, keys: dict, required=()) -> dict:
    """Convert a JSON object by ``keys``: file key -> (field name, conversion).

    Absent keys are left out, so the dataclass default applies; an unknown or
    missing key or a value its conversion rejects raises a ``ValueError``
    naming the section and the key.
    """
    if not isinstance(data, dict):
        raise _SectionError(f"{section}: expected a JSON object, got {type(data).__name__}")
    values = {}
    for key, value in data.items():
        if key not in keys:
            raise _SectionError(
                f"{section}: unknown key {key!r} (expected one of: {', '.join(keys)})"
            )
        name, convert = keys[key]
        try:
            values[name] = convert(value)
        except _SectionError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:  # an int beyond float range
            raise _SectionError(f"{section}: {key}: {exc}") from exc
    for key in required:
        if key not in data:
            raise _SectionError(f"{section}: missing required key {key!r}")
    return values


def _int(value) -> int:
    """A JSON integer as is; a float, a bool or any other value is rejected."""
    if not is_count(value):
        raise ValueError(f"{value!r} is not an integer")
    return value


def _str(value) -> str:
    """A JSON string as is; any other value is rejected."""
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _real(value) -> float:
    """A JSON number as a float; a bool, a string or any other value is rejected."""
    if not is_real(value):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


_COERCE = {int: _int, float: _real, float | None: lambda v: None if v is None else _real(v)}


def _numeric_dataclass(section: str, cls, data):
    """A dataclass of int/float fields from an object keyed by field name."""
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    keys = {f.name: (f.name, _COERCE[hints[f.name]]) for f in fields}
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    return cls(**_read(section, data, keys, required))


def geometry_from_dict(data: dict) -> ArrayGeometry:
    return _numeric_dataclass("geometry", ArrayGeometry, data)


def chirp_from_dict(data: dict) -> ChirpParams:
    return _numeric_dataclass("chirp", ChirpParams, data)


def _same_names(**conversions) -> dict:
    return {key: (key, convert) for key, convert in conversions.items()}


_TARGET_KEYS = {
    "position_m": ("position", lambda v: tuple(_real(x) for x in v)),
    "radial_velocity_mps": ("radial_velocity", _real),
    "amplitude": ("amplitude", lambda v: complex(*(_real(x) for x in v))),
}
_INTERFERER_KEYS = _same_names(
    azimuth_deg=_real,
    elevation_deg=_real,
    power=_real,
    waveform_kind=_str,
    bandwidth_fraction=_real,
)
_SCENARIO_KEYS = _same_names(
    label=_str, seed=_int, noise_power=_real, targets=list, interferers=list
)


def _target_from_dict(section: str, data) -> TargetSpec:
    return TargetSpec(**_read(section, data, _TARGET_KEYS, ["position_m"]))


def _interferer_from_dict(section: str, data) -> InterfererSpec:
    values = _read(section, data, _INTERFERER_KEYS, ["azimuth_deg", "elevation_deg"])
    direction = Direction.from_degrees(values.pop("azimuth_deg"), values.pop("elevation_deg"))
    return InterfererSpec(direction, **values)


def scenario_from_dict(data: dict) -> Scenario:
    """A scenario from its JSON object; absent keys take the dataclass defaults."""
    values = _read("scenario", data, _SCENARIO_KEYS)
    for key, read in (("targets", _target_from_dict), ("interferers", _interferer_from_dict)):
        if key in values:
            values[key] = tuple(
                read(f"scenario.{key}[{i}]", item) for i, item in enumerate(values[key])
            )
    return Scenario(**values)


def save_scenario(path, scenario: Scenario) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def load_scenario(path) -> Scenario:
    return scenario_from_dict(json.loads(Path(path).read_text()))


# a config file's sections; ``pipeline`` takes every other PipelineConfig field
_CONFIG_KEYS = {
    "geometry": ("geometry", geometry_from_dict),
    "chirp": ("chirp", chirp_from_dict),
    "scenario": ("scenario", scenario_from_dict),
    "pipeline": ("pipeline", lambda data: _read("pipeline", data, _PIPELINE_KEYS)),
}
_PIPELINE_KEYS = {
    f.name: (f.name, lambda v: tuple(v) if isinstance(v, list) else v)
    for f in dataclasses.fields(PipelineConfig)
    if f.name not in _CONFIG_KEYS
}


def config_from_dict(data: dict) -> dict:
    """``PipelineConfig`` keyword arguments from a config file's sections."""
    sections = _read("config", data, _CONFIG_KEYS)
    return {**sections.pop("pipeline", {}), **sections}


def load_config(path) -> dict:
    return config_from_dict(json.loads(Path(path).read_text()))
