"""Synthetic wideband radar scene generator.

Produces multi-pulse, multi-antenna IQ data cubes containing linear-FM
target echoes, direct-path interferers, and spatially white noise.  Targets
are delayed by an integer number of fast-time samples so the cube doubles
as an exact oracle for range-bin scoring; every frequency component of a
wideband emitter is steered with its own frequency-scaled array response.

Every wideband source is summed in the spectrum: a wideband-noise
interferer by its random spectrum, a target by its steering weighted with
``amplitude * fft(delayed chirp)`` and its Doppler ramp across pulses.
One small per-frequency matrix product (antennas x sources times sources
x pulses) is written straight into the cube.  One pass over the antenna
rows then finishes each row while it is in cache: its inverse transform,
the narrowband tones, and the real part of its thermal noise; the
imaginary parts of the noise are added after.  No cube-sized temporary is
ever allocated.  Every scene takes this one path: a scene without wideband
sources renders an empty product (zeros) and inverse-transforms it, and a
noise-free scene adds no noise.  Each target's source is built, and its
delay checked, before the cube is allocated.

The thermal-noise stream is drawn on one executor thread (none when the
noise power is 0) while the main thread renders: it takes the scaled row
draws at most ``_NOISE_RING`` ahead of the row pass, in the order one
``standard_normal`` call per part would take them (every row's real part,
then every row's imaginary part), and the row pass adds each draw as it
comes.  A failed draw raises its own error in the caller, draws not yet
started are cancelled, and the thread is joined before
``synthesize_datacube`` returns or raises.  Every FFT and matrix product
stays on the main thread, and every sample sees the same operations in the
same order as a single-threaded render, so the cube's bits do not depend
on the thread or the BLAS thread count.

Generation is reproducible: a scenario carries its own seed, and identical
(scenario, geometry, chirp) inputs yield bit-identical cubes.  Target
contributions draw nothing from the random stream (their complex gains are
stored on the target specs), so cubes superpose over target subsets to
roundoff: the sources share one product and one inverse transform.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from typing import Sequence

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    Direction,
    check_count,
    check_finite,
    is_count,
    is_finite,
    spatial_frequencies,
    steering_matrix,
    steering_vector,
)

DEFAULT_SEED = 20260808

#: X-band defaults: FFT-friendly sizes, Doppler unambiguous to +/-75 m/s.
DEFAULT_GEOMETRY = ArrayGeometry(n_z=4, n_x=32, design_freq=10e9)


@dataclass(frozen=True)
class ChirpParams:
    """Linear-FM pulse train parameters.

    The receive window equals the chirp length (``pulse_samples``); the
    sweep covers [-bandwidth/2, +bandwidth/2] at unit amplitude.
    """

    carrier_freq: float = 10e9
    sample_rate: float = 500e6
    bandwidth: float = 400e6
    pulse_samples: int = 4096
    num_pulses: int = 64
    pri: float = 100e-6

    def __post_init__(self) -> None:
        check_count(self, "pulse_samples", "num_pulses")
        check_finite(self, *vars(self))  # every field is a number
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate: {self.sample_rate!r} must be positive")
        # so that the lowest sampled frequency, carrier_freq - sample_rate/2, is positive
        if self.carrier_freq <= self.sample_rate / 2:
            raise ValueError(f"carrier_freq: {self.carrier_freq!r} must exceed sample_rate / 2")
        if self.bandwidth < 0 or self.bandwidth > self.sample_rate:
            raise ValueError("bandwidth must lie in [0, sample_rate]")
        if self.pulse_samples < 1:
            raise ValueError("pulse_samples must be >= 1")
        if self.num_pulses < 2:
            raise ValueError("num_pulses must be >= 2 (slow-time FFT needs pulses)")
        if self.pri <= self.pulse_samples / self.sample_rate:
            raise ValueError("pri must exceed the sampled pulse window")

    @property
    def range_resolution(self) -> float:
        """Meters per fast-time sample bin (two-way)."""
        return SPEED_OF_LIGHT / (2.0 * self.sample_rate)

    @property
    def velocity_resolution(self) -> float:
        """Meters/second per slow-time DFT bin at the carrier."""
        wavelength = SPEED_OF_LIGHT / self.carrier_freq
        return wavelength / (2.0 * self.pri * self.num_pulses)

    @property
    def max_unambiguous_velocity(self) -> float:
        return self.velocity_resolution * self.num_pulses / 2.0


@dataclass(frozen=True)
class TargetSpec:
    """Point scatterer: position (m, array coordinates), closing velocity, gain.

    ``radial_velocity`` is the total closing rate seen by the array (positive
    toward it), including any platform-motion contribution folded in by the
    scenario builder.
    """

    position: tuple[float, float, float]
    radial_velocity: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        check_finite(self, "position", each=True)
        check_finite(self, "radial_velocity")
        check_finite(self, "amplitude", complex_ok=True)
        if np.shape(self.position) != (3,):  # a finite scalar has shape ()
            raise ValueError(f"position: {self.position!r} is not an (x, y, z) triple")
        # stored as a tuple of floats, so equal positions compare and hash alike
        object.__setattr__(self, "position", tuple(map(float, self.position)))
        try:
            self.direction
        except ValueError as exc:
            raise ValueError(f"position: {self.position!r}: {exc}") from None

    @property
    def range(self) -> float:
        return float(np.linalg.norm(self.position))

    @property
    def direction(self) -> Direction:
        return Direction.from_position(*self.position)

    def delay_samples(self, chirp: ChirpParams) -> int:
        """Round-trip delay quantized to the fast-time sample grid."""
        return int(round(2.0 * self.range / SPEED_OF_LIGHT * chirp.sample_rate))


@dataclass(frozen=True)
class InterfererSpec:
    """Direct-path emitter that does not carry the radar chirp.

    ``power`` is the per-element average power relative to the scenario
    noise floor.  Wideband-noise interferers occupy a centered band of
    ``bandwidth_fraction`` of the sample rate; narrowband tones sit at a
    fixed frequency drawn from that same band.
    """

    direction: Direction
    power: float = 1.0
    waveform_kind: str = "wideband-noise"
    bandwidth_fraction: float = 0.8

    def __post_init__(self) -> None:
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction: {self.direction!r} is not a Direction")
        check_finite(self, "power", "bandwidth_fraction")
        if self.power <= 0:
            raise ValueError("interferer power must be positive")
        if self.waveform_kind not in ("wideband-noise", "narrowband-tone"):
            raise ValueError(f"unknown waveform_kind {self.waveform_kind!r}")
        if not 0.0 <= self.bandwidth_fraction <= 1.0:
            raise ValueError("bandwidth_fraction must lie in [0, 1]")


def _check_seed(seed) -> None:
    """A seed is a non-negative Python int, as a scenario file stores it."""
    if not is_count(seed) or seed < 0:
        raise ValueError(f"seed: {seed!r} is not a non-negative int")


@dataclass(frozen=True)
class Scenario:
    """Targets + interferers + noise level under one reproducibility seed."""

    targets: tuple[TargetSpec, ...] = ()
    interferers: tuple[InterfererSpec, ...] = ()
    noise_power: float = 1.0
    seed: int = DEFAULT_SEED
    label: str = ""

    def __post_init__(self) -> None:
        for name, kind in (("targets", TargetSpec), ("interferers", InterfererSpec)):
            try:
                specs = tuple(getattr(self, name))
            except TypeError:
                raise ValueError(
                    f"{name}: {getattr(self, name)!r} is not a sequence of {kind.__name__}"
                ) from None
            object.__setattr__(self, name, specs)
            for i, spec in enumerate(specs):
                if not isinstance(spec, kind):
                    raise ValueError(
                        f"{name}[{i}]: {spec!r} has type {type(spec).__name__}, "
                        f"not {kind.__name__}"
                    )
        check_finite(self, "noise_power")
        if self.noise_power < 0:
            raise ValueError("noise_power must be >= 0")
        _check_seed(self.seed)
        if not isinstance(self.label, str):
            raise ValueError(f"label: {self.label!r} is not a str")

    @property
    def name(self) -> str:
        """What reports and messages call the scene: its label, or "custom"."""
        return self.label or "custom"


@dataclass
class DataCube:
    """Received IQ samples, shape (antennas, fast-time samples, pulses)."""

    samples: np.ndarray
    geometry: ArrayGeometry
    chirp: ChirpParams

    def __post_init__(self) -> None:
        expected = (self.geometry.n, self.chirp.pulse_samples, self.chirp.num_pulses)
        if self.samples.shape != expected:
            raise ValueError(
                f"cube shape {self.samples.shape} does not match geometry/chirp {expected}"
            )
        # a row at a time, so the check holds one row's bools, not the cube's
        if not all(np.isfinite(row).all() for row in self.samples):
            raise ValueError("cube contains non-finite samples")


def generate_chirp(chirp: ChirpParams) -> np.ndarray:
    """Unit-amplitude baseband LFM sweep across the pulse window.

    Instantaneous frequency ramps linearly from -bandwidth/2 to
    +bandwidth/2 over the ``pulse_samples`` duration.
    """
    n = np.arange(chirp.pulse_samples)
    t = n / chirp.sample_rate
    duration = chirp.pulse_samples / chirp.sample_rate
    slope = chirp.bandwidth / duration
    phase = 2.0 * np.pi * (-0.5 * chirp.bandwidth * t + 0.5 * slope * t * t)
    return np.exp(1j * phase)


def _doppler_phases(radial_velocity: float, chirp: ChirpParams) -> np.ndarray:
    """Pulse-to-pulse phase ramp: +4*pi*v*pri/lambda per pulse (closing positive)."""
    wavelength = SPEED_OF_LIGHT / chirp.carrier_freq
    step = 4.0 * np.pi * radial_velocity * chirp.pri / wavelength
    return np.exp(1j * step * np.arange(chirp.num_pulses))


def _interferer_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, index)))


def _noise_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, 0)))


#: Byte budget of one frequency chunk of the wideband spectrum product.
_CHUNK_BYTES = 1 << 25

#: Thermal-noise draws the executor thread may take ahead of the row pass.
_NOISE_RING = 4


def _noise_interferer_spectrum(
    spec: InterfererSpec,
    chirp: ChirpParams,
    ref_power: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Emitter spectrum per fast-time bin and pulse, shape (pulse_samples, num_pulses).

    One draw of shape (num_pulses, n_bins, 2) takes the random stream in
    the same order as one (n_bins, 2) draw per pulse.
    """
    n_fast = chirp.pulse_samples
    base_freqs = np.fft.fftfreq(n_fast, 1.0 / chirp.sample_rate)
    mask = np.abs(base_freqs) <= spec.bandwidth_fraction * chirp.sample_rate / 2.0
    n_bins = int(mask.sum())
    # Spectral variance chosen so the time-domain per-element power is
    # power * ref_power after the unitary-inverse scaling of ifft.
    sigma_f = np.sqrt(spec.power * ref_power * n_fast**2 / n_bins / 2.0)
    draws = rng.standard_normal((chirp.num_pulses, n_bins, 2))
    spectrum = np.zeros((n_fast, chirp.num_pulses), dtype=complex)
    spectrum[mask] = (sigma_f * (draws[..., 0] + 1j * draws[..., 1])).T
    return spectrum


def _target_source(
    target: TargetSpec, chirp: ChirpParams, pulse: np.ndarray
) -> tuple[Direction, np.ndarray, np.ndarray]:
    """A target as a wideband source for ``_render_wideband``.

    ``amplitude * fft(delayed chirp)`` weighs its steering per frequency,
    and its Doppler ramp is the pulse row at every frequency (a broadcast
    view, not a per-target spectrum).  A target whose delay falls outside
    the pulse window is rejected.
    """
    delay = target.delay_samples(chirp)
    if delay >= chirp.pulse_samples:
        raise ValueError(
            f"target at range {target.range:.1f} m needs delay {delay} samples, "
            f"beyond the {chirp.pulse_samples}-sample pulse window"
        )
    delayed = np.zeros(chirp.pulse_samples, dtype=complex)
    delayed[delay:] = pulse[: chirp.pulse_samples - delay]
    dopp = _doppler_phases(target.radial_velocity, chirp)
    return (
        target.direction,
        target.amplitude * np.fft.fft(delayed),
        np.broadcast_to(dopp, (chirp.pulse_samples, chirp.num_pulses)),
    )


def _render_wideband(
    out: np.ndarray,
    sources: Sequence[tuple[Direction, np.ndarray | None, np.ndarray]],
    geom: ArrayGeometry,
    chirp: ChirpParams,
) -> None:
    """Overwrite ``out`` with the summed spectrum of wideband sources.

    A source is ``(direction, weight, spectrum)``: at frequency f its array
    field is ``steering(f) * weight[f]`` (antennas) times ``spectrum[f]``
    (pulses); noise emitters carry their waveform in the spectrum and have
    no weight.  Per frequency the field is ``steering (N, S) @ spectra
    (S, P)``, computed in frequency chunks straight into ``out`` along its
    fast-time axis (an empty product, zeros, when there are no sources);
    one steering and one spectra buffer of a chunk's size serve every
    chunk.  The caller inverse-transforms each antenna row.
    """
    n_fast, n_pulses = chirp.pulse_samples, chirp.num_pulses
    rf = chirp.carrier_freq + np.fft.fftfreq(n_fast, 1.0 / chirp.sample_rate)
    chunk = max(1, _CHUNK_BYTES // (out.itemsize * geom.n * n_pulses))
    steer_buf = np.empty((geom.n, min(chunk, n_fast), len(sources)), dtype=complex)
    spectra_buf = np.empty((min(chunk, n_fast), len(sources), n_pulses), dtype=complex)
    for f0 in range(0, n_fast, chunk):
        f1 = min(n_fast, f0 + chunk)
        steer, spectra = steer_buf[:, : f1 - f0], spectra_buf[: f1 - f0]
        for s, (direction, weight, spectrum) in enumerate(sources):
            field = steering_matrix(*spatial_frequencies(direction, rf[f0:f1], geom), geom)
            steer[..., s] = field if weight is None else field * weight[f0:f1]
            spectra[:, s] = spectrum[f0:f1]
        np.matmul(steer.transpose(1, 0, 2), spectra, out=out[:, f0:f1, :].transpose(1, 0, 2))


def _tone_waveform(
    spec: InterfererSpec,
    geom: ArrayGeometry,
    chirp: ChirpParams,
    ref_power: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """(steering (N,), fast-time x pulse waveform) of a narrowband tone."""
    half_band = spec.bandwidth_fraction * chirp.sample_rate / 2.0
    f_tone = rng.uniform(-half_band, half_band)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    amp = np.sqrt(spec.power * ref_power)
    steer = steering_vector(
        spatial_frequencies(spec.direction, chirp.carrier_freq + f_tone, geom), geom
    )
    # Tone phase stays continuous across the unsampled gaps between pulses.
    t_fast = np.arange(chirp.pulse_samples) / chirp.sample_rate
    t_pulse = np.arange(chirp.num_pulses) * chirp.pri
    tone = amp * np.exp(
        1j * (2.0 * np.pi * f_tone * (t_fast[:, None] + t_pulse[None, :]) + phase0)
    )
    return steer, tone


@contextmanager
def _thermal_noise(
    shape: tuple[int, ...], rows: int, noise_power: float, rng: np.random.Generator
):
    """Draw circular Gaussian noise on one executor thread; yield ``add(part)``.

    The thread takes ``2 * rows`` draws of ``shape`` scaled by
    sqrt(noise_power / 2), in the order of one ``rng.standard_normal`` call
    per part: every row's real part, then every row's imaginary part.  At
    most ``_NOISE_RING`` draws are in flight, in stream order.  Each
    ``add(part)`` adds the next draw to ``part`` (a row's ``.real`` or
    ``.imag``) and submits the next one.  A failed draw raises its own
    error from ``add``.  On exit, whether the block finishes or raises,
    draws not yet started are cancelled and the thread is joined.  When
    ``noise_power`` is 0, ``add`` adds nothing and no thread is started.
    """
    if noise_power == 0:
        yield lambda part: None
        return
    sigma = np.sqrt(noise_power / 2.0)

    def draw(buf: np.ndarray) -> np.ndarray:
        rng.standard_normal(out=buf)
        buf *= sigma
        return buf

    with ThreadPoolExecutor(1, thread_name_prefix="bsradar-thermal-noise") as pool:
        # each submitted when taken; its buffer is allocated on this thread,
        # so freed draws go back to this thread's heap, not to a malloc arena
        # of the executor thread that keeps its pages after the thread exits
        draws = (pool.submit(draw, np.empty(shape)) for _ in range(2 * rows))
        pending = deque(islice(draws, _NOISE_RING))

        def add(part: np.ndarray) -> None:
            part += pending.popleft().result()
            pending.extend(islice(draws, 1))

        try:
            yield add
        finally:
            pool.shutdown(cancel_futures=True)


def synthesize_datacube(
    scenario: Scenario,
    geom: ArrayGeometry = DEFAULT_GEOMETRY,
    chirp: ChirpParams = ChirpParams(),
) -> DataCube:
    """Render a scenario into a (N, pulse_samples, num_pulses) IQ cube.

    Per pulse m the cube holds
    ``sum_k alpha_k a_k(f) p[n - d_k] e^{j m dphi_k} + interference + noise``
    with the steering applied per fast-time frequency bin, integer-sample
    target delays, and circular complex Gaussian noise of per-element
    variance ``noise_power``.

    Every scene takes one path.  Each target's source is built first, so a
    target whose delay falls outside the pulse window is rejected before
    the cube is allocated.  Targets and wideband-noise interferers are
    summed in the spectrum, one per-frequency (antennas x sources) @
    (sources x pulses) product written straight into the cube (zeros when
    there is no such source).  One pass over the antenna rows then
    inverse-transforms each row, adds the tones, and adds the row's
    real-part thermal noise; the imaginary parts follow.  The noise is drawn
    on one executor thread at most ``_NOISE_RING`` row draws ahead (8 MiB
    at the default sizes), in stream order; the thread starts once the cube
    is allocated (not at all when ``noise_power`` is 0, whose noise adds
    nothing).  A failed draw raises its own error here, draws not yet
    started are cancelled, and the thread is joined before this returns or
    raises.  The thread takes the noise stream in the order of one
    ``standard_normal`` call per part and runs no FFT or BLAS call, and
    every sample sees the same operations in the same order as in a
    single-threaded render, so the cube is bit-identical at any thread
    count.  No cube-sized temporary is allocated.
    """
    pulse = generate_chirp(chirp)
    targets = [_target_source(target, chirp, pulse) for target in scenario.targets]
    out = np.zeros((geom.n, chirp.pulse_samples, chirp.num_pulses), dtype=complex)
    noise_rng = _noise_rng(scenario.seed)
    with _thermal_noise(out.shape[1:], geom.n, scenario.noise_power, noise_rng) as add_noise:
        ref_power = scenario.noise_power if scenario.noise_power > 0 else 1.0
        sources, tones = [], []
        for idx, spec in enumerate(scenario.interferers):
            rng = _interferer_rng(scenario.seed, idx)
            if spec.waveform_kind == "wideband-noise":
                spectrum = _noise_interferer_spectrum(spec, chirp, ref_power, rng)
                sources.append((spec.direction, None, spectrum))
            else:
                tones.append(_tone_waveform(spec, geom, chirp, ref_power, rng))
        _render_wideband(out, sources + targets, geom, chirp)
        del sources, targets  # the spectra are not needed past this point

        row_buf = np.empty(out.shape[1:], dtype=complex)
        for n, row in enumerate(out):
            np.fft.ifft(row, axis=0, out=row)
            for steer, tone in tones:
                np.multiply(steer[n], tone, out=row_buf)
                row += row_buf
            add_noise(row.real)
        for row in out:
            add_noise(row.imag)

    return DataCube(out, geom, chirp)


# ---------------------------------------------------------------------------
# Scenario presets
# ---------------------------------------------------------------------------

#: Interferer count per scenario letter (monotone A -> E).
PRESET_INTERFERER_COUNTS = {"A": 2, "B": 4, "C": 8, "D": 12, "E": 16}

PRESET_NAMES = tuple(
    f"{letter}{mode}" for letter in "ABCDE" for mode in (1, 2)
) + ("noninterferer",)

#: Reference geometry for the angular layout: platform at 7 km altitude,
#: ground aim point 18 km ahead along broadside.
_PLATFORM_ALTITUDE_M = 7_000.0
_GROUND_POINT_AHEAD_M = 18_000.0

_NUM_TARGETS = 20
_MAX_INTERFERERS = 16


def _ground_elevation() -> float:
    return float(np.arctan2(-_PLATFORM_ALTITUDE_M, _GROUND_POINT_AHEAD_M))


def _preset_targets(mode: int, seed: int, snr_db: float) -> tuple[TargetSpec, ...]:
    """20 airborne targets with elevation separations per easy/difficult mode.

    Separations from the ground reference direction span 25-50 deg in easy
    mode (1) and 12.5-20 deg in difficult mode (2).  Ranges are compressed
    into the sampled pulse window (the range axis is scored in bins, so only
    bin placement matters); closing velocities include the 90 m/s eastward
    platform motion folded per target and stay inside the unambiguous span.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, mode)))
    theta_ground = _ground_elevation()

    azimuths = np.deg2rad(np.linspace(-40.0, 40.0, _NUM_TARGETS))
    azimuths += rng.uniform(-0.02, 0.02, _NUM_TARGETS)
    if mode == 1:
        seps = np.deg2rad(np.linspace(25.0, 50.0, _NUM_TARGETS))
    else:
        seps = np.deg2rad(np.linspace(12.5, 20.0, _NUM_TARGETS))
    elevations = theta_ground + rng.permutation(seps)

    ranges = rng.permutation(np.linspace(250.0, 1000.0, _NUM_TARGETS))
    ranges += rng.uniform(-5.0, 5.0, _NUM_TARGETS)

    # Desired total closing velocities on distinct slow-time bins.
    closing = rng.permutation(np.linspace(-60.0, 60.0, _NUM_TARGETS))
    closing += rng.uniform(-0.3, 0.3, _NUM_TARGETS)

    amp = np.sqrt(10.0 ** (snr_db / 10.0))  # per-element SNR over the unit noise floor
    phases = rng.uniform(0.0, 2.0 * np.pi, _NUM_TARGETS)

    targets = []
    for k in range(_NUM_TARGETS):
        ce, se = np.cos(elevations[k]), np.sin(elevations[k])
        x = ranges[k] * ce * np.sin(azimuths[k])
        y = ranges[k] * ce * np.cos(azimuths[k])
        z = ranges[k] * se
        # closing[k] already contains the platform fold 90*cos(el)*sin(az);
        # the target's own motion makes up the difference.
        targets.append(
            TargetSpec(
                position=(x, y, z),
                radial_velocity=float(closing[k]),
                amplitude=complex(amp * np.exp(1j * phases[k])),
            )
        )
    return tuple(targets)


def _preset_interferers(count: int, seed: int) -> tuple[InterfererSpec, ...]:
    """First ``count`` slots of a fixed 16-emitter ground/sea layout.

    Scenario A uses the first two emitters, E all sixteen, so the loading
    grows by nesting.  All emitters sit below the horizon; every fourth is
    a narrowband tone, the rest are band-limited noise.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, 0)))
    azimuths = np.deg2rad(np.linspace(-48.0, 48.0, _MAX_INTERFERERS))
    azimuths += rng.uniform(-0.02, 0.02, _MAX_INTERFERERS)
    elevations = np.deg2rad(rng.uniform(-32.0, -14.0, _MAX_INTERFERERS))
    powers = 10.0 ** rng.uniform(4.8, 6.0, _MAX_INTERFERERS)
    fractions = rng.uniform(0.4, 0.9, _MAX_INTERFERERS)

    specs = []
    for i in range(count):
        kind = "narrowband-tone" if i % 4 == 3 else "wideband-noise"
        specs.append(
            InterfererSpec(
                direction=Direction(float(azimuths[i]), float(elevations[i])),
                power=float(powers[i]),
                waveform_kind=kind,
                bandwidth_fraction=float(fractions[i]),
            )
        )
    return tuple(specs)


#: Difficult-mode targets are deliberately faint so that window size, not
#: raw processing gain, decides detection (the easy layouts keep 0 dB).
EASY_MODE_SNR_DB = 0.0
DIFFICULT_MODE_SNR_DB = -30.0


def scenario_preset(
    name: str, seed: int = DEFAULT_SEED, snr_db: float | None = None
) -> Scenario:
    """Named synthetic scene: A1..E2 or 'noninterferer'.

    Letters A-E fix the interferer count (2, 4, 8, 12, 16); suffix 1 uses
    the easy elevation layout, suffix 2 the difficult one.  The
    noninterferer preset carries the easy targets and an empty interferer
    list.  ``snr_db`` overrides the per-mode default per-element target SNR
    over the presets' unit noise power.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    _check_seed(seed)  # before it seeds the layout
    if snr_db is not None and not is_finite(snr_db):
        raise ValueError(f"snr_db: {snr_db!r} is not a finite number")
    if name == "noninterferer":
        if snr_db is None:
            snr_db = EASY_MODE_SNR_DB
        targets = _preset_targets(1, seed, snr_db)
        interferers: tuple[InterfererSpec, ...] = ()
    else:
        letter, mode = name[0], int(name[1])
        if snr_db is None:
            snr_db = EASY_MODE_SNR_DB if mode == 1 else DIFFICULT_MODE_SNR_DB
        targets = _preset_targets(mode, seed, snr_db)
        interferers = _preset_interferers(PRESET_INTERFERER_COUNTS[letter], seed)
    return Scenario(targets=targets, interferers=interferers, seed=seed, label=name)
