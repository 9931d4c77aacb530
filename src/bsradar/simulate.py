"""Synthetic wideband radar scene generator.

Produces multi-pulse, multi-antenna IQ data cubes containing linear-FM
target echoes, direct-path interferers, and spatially white noise.  Targets
are delayed by an integer number of fast-time samples so the cube doubles
as an exact oracle for range-bin scoring; every frequency component of a
wideband emitter is steered with its own frequency-scaled array response.

Every wideband source is summed in the spectrum: a wideband-noise
interferer by its random spectrum, a target by its steering weighted with
``amplitude * fft(delayed chirp)`` and its Doppler ramp across pulses.
The antenna rows are rendered one block of whole x-columns at a time (at
most 32 MiB, 8 rows at the default sizes) into one reused buffer: one
small per-frequency matrix product (block rows x sources times sources x
pulses), then each row's inverse transform and narrowband tones while the
row is in cache.  A block's steering takes its element phases from
:func:`~bsradar.geometry.element_phases`, the array manifold that
:func:`~bsradar.geometry.steering_matrix` is built from.  Each finished
row is then landed in the cube.  No cube-sized temporary is ever
allocated.  Every scene takes this one path: a scene without wideband
sources renders an empty product (zeros) and inverse-transforms it, and a
noise-free scene adds no noise.  Each target's source is built, and its
delay checked, before the cube is allocated.

The thermal-noise stream is drawn on one executor thread (none when the
noise power is 0) that runs free from the moment the cube is allocated;
every FFT and matrix product stays on the main thread.  How a rendered
row and its draws meet in the cube, and why its bits depend on neither
the block size, the thread interleaving nor the BLAS thread count, is
stated once, in :class:`_RowSums`.  A failed draw raises its own error
once the block being rendered has landed, a failed render stops the
thread, and the thread is joined before ``synthesize_datacube`` returns
or raises.

Generation is reproducible: a scenario carries its own seed, and identical
(scenario, geometry, chirp) inputs yield bit-identical cubes.  Target
contributions draw nothing from the random stream (their complex gains are
stored on the target specs), so cubes superpose over target subsets to
roundoff: the sources share one product and one inverse transform.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    Direction,
    angle_frequencies,
    check_count,
    check_finite,
    element_phases,
    is_count,
    is_finite,
    spatial_frequencies,
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


#: Byte budget of one frequency chunk of the wideband spectrum product, as if
#: it spanned every antenna row (a block's chunk spans only its own rows).
_CHUNK_BYTES = 1 << 25

#: Byte budget of the buffer one block of antenna rows is rendered in.
_BLOCK_BYTES = 1 << 25

#: Fast-time samples of a row that each narrowband tone is added to at a time.
_TONE_SAMPLES = 256


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
    and its Doppler ramp across pulses is its spectrum at every frequency.
    A target whose delay falls outside the pulse window is rejected.
    """
    delay = target.delay_samples(chirp)
    if delay >= chirp.pulse_samples:
        raise ValueError(
            f"target at range {target.range:.1f} m needs delay {delay} samples, "
            f"beyond the {chirp.pulse_samples}-sample pulse window"
        )
    delayed = np.zeros(chirp.pulse_samples, dtype=complex)
    delayed[delay:] = pulse[: chirp.pulse_samples - delay]
    return (
        target.direction,
        target.amplitude * np.fft.fft(delayed),
        _doppler_phases(target.radial_velocity, chirp),
    )


def _column_blocks(geom: ArrayGeometry, chirp: ChirpParams) -> list[tuple[int, int]]:
    """X-column ranges of the render blocks, each at least two antenna rows.

    A block holds as many whole x-columns as fit ``_BLOCK_BYTES``.  A
    one-row product would take numpy's matrix-vector path, whose sums round
    differently, so a single row never forms a block of its own (unless
    the array has one row).
    """
    col_bytes = 16 * geom.n_z * chirp.pulse_samples * chirp.num_pulses
    width = max(_BLOCK_BYTES // col_bytes, 2 if geom.n_z == 1 else 1)
    edges = [*range(0, geom.n_x, width), geom.n_x]
    if len(edges) > 2 and geom.n_z * (edges[-1] - edges[-2]) == 1:
        del edges[-2]  # the last one-row block joins the block before it
    return list(zip(edges, edges[1:]))


def _render_wideband(
    emitters: Sequence[tuple[Direction, np.ndarray]],
    targets: Sequence[tuple[Direction, np.ndarray, np.ndarray]],
    geom: ArrayGeometry,
    chirp: ChirpParams,
):
    """Yield ``(n0, block)``: the summed spectrum of wideband sources at
    antenna rows ``n0, n0 + 1, ...``, one block of whole x-columns at a time.

    Noise emitters ``(direction, spectrum)`` come first, then targets
    ``(direction, weight, doppler)``.  At frequency f a source's array field
    is ``steering(f)`` (antennas) times its spectrum row ``spectrum[f]`` or
    ``weight[f] * doppler`` (pulses).  Per frequency the block's field is
    one product ``steering (rows, S) @ spectra (S, P)``, computed in
    frequency chunks straight into the block along its fast-time axis (an
    empty product, zeros, when there are no sources).  Every source's
    spatial frequencies at every bin come from one
    :func:`~bsradar.geometry.angle_frequencies` call.  A block's steering
    is :func:`~bsradar.geometry.element_phases` ``a_x`` of its own columns
    times ``a_z``, computed once and shared by every block, then a target's
    weight: the per-element operations of
    :func:`~bsradar.geometry.steering_matrix`.  One block buffer, one
    steering and one spectra buffer (whose target rows, the same at every
    frequency, are written once) serve every block and chunk, so each
    yielded block is overwritten by the next; the caller inverse-transforms
    its rows in between.
    """
    n_fast, n_pulses = chirp.pulse_samples, chirp.num_pulses
    rf = chirp.carrier_freq + np.fft.fftfreq(n_fast, 1.0 / chirp.sample_rate)
    angles = np.reshape([(d.azimuth, d.elevation) for d, *_ in (*emitters, *targets)], (-1, 2))
    omega_x, omega_z = angle_frequencies(*angles.T, rf[:, None], geom)  # (bin, source)
    a_z = element_phases(omega_z, 0, geom.n_z)
    weights = np.empty((n_fast, len(targets)), dtype=complex)
    for t, (_, weight, _) in enumerate(targets):
        weights[:, t] = weight

    blocks = _column_blocks(geom, chirp)
    width = max(c1 - c0 for c0, c1 in blocks)
    chunk = min(n_fast, max(1, _CHUNK_BYTES // (16 * geom.n * n_pulses)))
    block_buf = np.empty((geom.n_z * width, n_fast, n_pulses), dtype=complex)
    steer_buf = np.empty((width, geom.n_z, chunk, len(angles)), dtype=complex)
    spectra_buf = np.empty((chunk, len(angles), n_pulses), dtype=complex)
    for t, (_, _, doppler) in enumerate(targets, start=len(emitters)):
        spectra_buf[:, t] = doppler
    for c0, c1 in blocks:
        block = block_buf[: geom.n_z * (c1 - c0)]
        for f0 in range(0, n_fast, chunk):
            f1 = min(n_fast, f0 + chunk)
            steer, spectra = steer_buf[: c1 - c0, :, : f1 - f0], spectra_buf[: f1 - f0]
            a_x = element_phases(omega_x[f0:f1], c0, c1)
            np.multiply(a_x[:, None], a_z[None, :, f0:f1], out=steer)
            weighted = steer[..., len(emitters) :]
            np.multiply(weighted, weights[f0:f1], out=weighted)
            for e, (_, spectrum) in enumerate(emitters):
                spectra[:, e] = spectrum[f0:f1]
            np.matmul(
                steer.reshape(len(block), f1 - f0, -1).transpose(1, 0, 2),
                spectra,
                out=block[:, f0:f1].transpose(1, 0, 2),
            )
        yield geom.n_z * c0, block


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


class _RowSums:
    """The cube's row parts, each the sum of a rendered term and a noise term:
    the one statement of how the render and the thermal-noise thread land.

    The main thread lands each rendered row's real and imaginary parts, a
    block at a time; the noise thread lands each scaled draw, taken in the
    order of one ``standard_normal`` call per part (every row's real part,
    then every row's imaginary part).  ``land(n, part, value)`` puts one
    term into antenna row ``n``'s real (part 0) or imaginary (part 1)
    samples, under one lock: the first term to land is written, the second
    is added to it.  IEEE addition is commutative (signed zeros included),
    so each sample is the one rounded sum of the same two operands
    whichever term lands first.  The rendered term does not depend on the
    block either: a block's steering takes the per-element operations of
    :func:`~bsradar.geometry.steering_matrix`, and a per-frequency product
    of two or more rows rounds each row as the whole array's does (a one-row
    product takes numpy's matrix-vector path, which rounds differently, so
    no block is one row).  So the cube is bit-identical at any block size,
    thread interleaving and BLAS thread count.
    """

    def __init__(self, cube: np.ndarray) -> None:
        self.parts = (cube.real, cube.imag)
        self._lock = threading.Lock()
        self._written = np.zeros((2, len(cube)), dtype=bool)

    def land(self, n: int, part: int, value: np.ndarray) -> None:
        dst = self.parts[part][n]
        with self._lock:
            if self._written[part, n]:
                dst += value
            else:
                dst[...] = value
                self._written[part, n] = True


@contextmanager
def _thermal_noise(sums: _RowSums, noise_power: float, rng: np.random.Generator):
    """Draw circular Gaussian noise into the cube's row parts on one executor thread.

    The thread starts on entry and runs free: it takes ``2 * rows`` draws
    of a row's shape into one buffer allocated here, each scaled by
    sqrt(noise_power / 2), and lands each through ``sums`` (see
    :class:`_RowSums` for the order and the landing rule).  Yields a check
    that raises a draw's error once the thread has failed, for the caller
    to call between blocks (a no-op when ``noise_power`` is 0, which starts
    no thread).  On a normal exit the draws are waited for, and a failed
    draw raises its own error; when the block raises, the thread stops
    after its current draw.  Either way the thread is joined.
    """
    if noise_power == 0:
        yield lambda: None
        return
    sigma = np.sqrt(noise_power / 2.0)
    # allocated on this thread, so its pages go back to this thread's heap,
    # not to a malloc arena of the executor thread that outlives the draws
    buf = np.empty(sums.parts[0].shape[1:])
    stop = threading.Event()

    def draw_all() -> None:
        for part in (0, 1):
            for n in range(len(sums.parts[part])):
                if stop.is_set():
                    return
                rng.standard_normal(out=buf)
                np.multiply(buf, sigma, out=buf)
                sums.land(n, part, buf)

    with ThreadPoolExecutor(1, thread_name_prefix="bsradar-thermal-noise") as pool:
        worker = pool.submit(draw_all)
        try:
            yield lambda: worker.done() and worker.result()
        except BaseException:
            stop.set()
            raise
        worker.result()


def _add_tones(row: np.ndarray, n: int, tones, buf: np.ndarray) -> None:
    """Add each tone's row-``n`` field to ``row``, ``len(buf)`` fast-time samples at a time.

    Every sample takes the tones in order, each by one multiply into
    ``buf`` and one add, as a whole-row multiply-then-add would.
    """
    for f0 in range(0, len(row), len(buf)):
        part = row[f0 : f0 + len(buf)]
        term = buf[: len(part)]
        for steer, tone in tones:
            np.multiply(steer[n], tone[f0 : f0 + len(buf)], out=term)
            part += term


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
    the cube is allocated.  The thermal-noise thread starts as soon as the
    cube is allocated (not at all when ``noise_power`` is 0) and draws the
    whole stream straight into the cube while the main thread renders; it
    runs no FFT or BLAS call.  The main thread renders the wideband product
    (targets and wideband-noise interferers, summed in the spectrum: zeros
    when there is no such source) one block of whole x-columns at a time
    into one reused buffer of at most ``_BLOCK_BYTES`` (8 antenna rows,
    32 MiB, at the default sizes; never a one-row block unless the array
    has one row).  It inverse-transforms each of the block's rows there,
    adds the tones ``_TONE_SAMPLES`` fast-time samples at a time, and lands
    the row in the cube by :class:`_RowSums`'s rule, which is also why the
    cube's bits depend on no block size, interleaving or BLAS thread count.
    After each block it checks the noise thread, so a failed draw raises
    its own error here before the next block renders; a failed render
    stops the thread; the thread is joined before this returns or raises.
    No cube-sized temporary is allocated.
    """
    pulse = generate_chirp(chirp)
    targets = [_target_source(target, chirp, pulse) for target in scenario.targets]
    out = np.empty((geom.n, chirp.pulse_samples, chirp.num_pulses), dtype=complex)
    sums = _RowSums(out)
    with _thermal_noise(sums, scenario.noise_power, _noise_rng(scenario.seed)) as check_noise:
        ref_power = scenario.noise_power if scenario.noise_power > 0 else 1.0
        emitters, tones = [], []
        for idx, spec in enumerate(scenario.interferers):
            rng = _interferer_rng(scenario.seed, idx)
            if spec.waveform_kind == "wideband-noise":
                spectrum = _noise_interferer_spectrum(spec, chirp, ref_power, rng)
                emitters.append((spec.direction, spectrum))
            else:
                tones.append(_tone_waveform(spec, geom, chirp, ref_power, rng))
        tone_buf = np.empty(
            (min(_TONE_SAMPLES, chirp.pulse_samples), chirp.num_pulses), dtype=complex
        )
        for n0, block in _render_wideband(emitters, targets, geom, chirp):
            for n, row in enumerate(block, start=n0):
                np.fft.ifft(row, axis=0, out=row)
                _add_tones(row, n, tones, tone_buf)
                sums.land(n, 0, row.real)
                sums.land(n, 1, row.imag)
            check_noise()

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
    mode, count = (
        (1, 0) if name == "noninterferer" else (int(name[1]), PRESET_INTERFERER_COUNTS[name[0]])
    )
    if snr_db is None:
        snr_db = EASY_MODE_SNR_DB if mode == 1 else DIFFICULT_MODE_SNR_DB
    targets = _preset_targets(mode, seed, snr_db)
    interferers = _preset_interferers(count, seed)
    return Scenario(targets=targets, interferers=interferers, seed=seed, label=name)
