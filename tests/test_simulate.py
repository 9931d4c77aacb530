import sys
import threading
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from bsradar import (
    ArrayGeometry,
    ChirpParams,
    DataCube,
    Direction,
    InterfererSpec,
    Scenario,
    TargetSpec,
    generate_chirp,
    scenario_preset,
    spatial_frequencies,
    steering_matrix,
    synthesize_datacube,
)
from bsradar.simulate import (
    _NOISE_RING,
    _doppler_phases,
    _ground_elevation,
    _interferer_rng,
    _noise_rng,
    _thermal_noise,
)


class TestGenerateChirp:
    def test_zero_bandwidth_is_constant_tone(self):
        cp = ChirpParams(bandwidth=0.0, pulse_samples=64, num_pulses=2, pri=1e-6)
        assert np.array_equal(generate_chirp(cp), np.ones(64, dtype=complex))

    def test_single_sample(self):
        cp = ChirpParams(bandwidth=0.0, pulse_samples=1, num_pulses=2, pri=1e-6)
        p = generate_chirp(cp)
        assert p.shape == (1,) and abs(p[0]) == 1.0

    def test_unit_amplitude(self):
        p = generate_chirp(ChirpParams(pulse_samples=512, num_pulses=2, pri=2e-6))
        assert np.allclose(np.abs(p), 1.0)

    def test_instantaneous_frequency_is_linear(self):
        cp = ChirpParams(
            bandwidth=250e6,
            sample_rate=500e6,
            pulse_samples=1024,
            num_pulses=2,
            pri=4e-6,
        )
        p = generate_chirp(cp)
        inst_freq = np.diff(np.unwrap(np.angle(p))) * cp.sample_rate / (2 * np.pi)
        t_mid = (np.arange(1023) + 0.5) / cp.sample_rate
        duration = cp.pulse_samples / cp.sample_rate
        expected = -cp.bandwidth / 2 + cp.bandwidth / duration * t_mid
        assert np.max(np.abs(inst_freq - expected)) < 0.01 * cp.bandwidth


def tiny_chirp(pulse_samples=256, num_pulses=8):
    return ChirpParams(
        pulse_samples=pulse_samples, num_pulses=num_pulses, pri=pulse_samples / 500e6 * 2
    )


class TestSynthesizeDatacube:
    def test_pure_noise_statistics(self):
        geom = ArrayGeometry(1, 2, 10e9)
        cp = tiny_chirp(pulse_samples=32768, num_pulses=4)
        sc = Scenario(noise_power=1.0, seed=7)
        cube = synthesize_datacube(sc, geom, cp)
        per_element = np.mean(np.abs(cube.samples) ** 2, axis=(1, 2))
        assert cube.samples[0].size >= 1e5
        assert np.all(np.abs(per_element - 1.0) < 0.05)

    def test_boresight_target_coherent_across_channels(self):
        geom = ArrayGeometry(4, 8, 10e9)
        cp = tiny_chirp()
        sc = Scenario(
            targets=(TargetSpec(position=(0.0, 30.0, 0.0), radial_velocity=5.0),),
            noise_power=0.0,
            seed=1,
        )
        cube = synthesize_datacube(sc, geom, cp)
        for ant in range(1, geom.n):
            assert np.allclose(cube.samples[ant], cube.samples[0], atol=1e-12)

    def test_matched_filter_peak_in_quantized_range_bin(self):
        geom = ArrayGeometry(1, 2, 10e9)
        cp = tiny_chirp(pulse_samples=1024)
        rng_m = 97.3
        sc = Scenario(
            targets=(TargetSpec(position=(0.0, rng_m, 0.0)),), noise_power=0.0, seed=1
        )
        cube = synthesize_datacube(sc, geom, cp)
        replica = generate_chirp(cp)
        matched = np.fft.ifft(
            np.fft.fft(cube.samples[0, :, 0]) * np.conj(np.fft.fft(replica))
        )
        expected_bin = int(round(rng_m / cp.range_resolution))
        assert expected_bin == sc.targets[0].delay_samples(cp)
        assert np.argmax(np.abs(matched)) == expected_bin

    def test_determinism_bit_identical(self):
        geom = ArrayGeometry(2, 4, 10e9)
        cp = tiny_chirp()
        sc = scenario_preset("A1", seed=3)
        sc = replace(sc, targets=sc.targets[:3])
        # shrink ranges into the short test window
        small = [
            TargetSpec(
                position=tuple(np.asarray(t.position) / 20.0),
                radial_velocity=t.radial_velocity,
                amplitude=t.amplitude,
            )
            for t in sc.targets
        ]
        sc = replace(sc, targets=tuple(small))
        a = synthesize_datacube(sc, geom, cp)
        b = synthesize_datacube(sc, geom, cp)
        assert np.array_equal(a.samples, b.samples)

    def test_superposition_over_target_subsets(self):
        geom = ArrayGeometry(2, 4, 10e9)
        cp = tiny_chirp()
        t1 = TargetSpec(position=(5.0, 40.0, 3.0), radial_velocity=10.0, amplitude=1j)
        t2 = TargetSpec(position=(-8.0, 55.0, -2.0), radial_velocity=-25.0, amplitude=0.7)
        sc_union = Scenario(targets=(t1, t2), noise_power=0.0, seed=11)
        sc_1 = Scenario(targets=(t1,), noise_power=0.0, seed=11)
        sc_2 = Scenario(targets=(t2,), noise_power=0.0, seed=11)
        union = synthesize_datacube(sc_union, geom, cp).samples
        parts = (
            synthesize_datacube(sc_1, geom, cp).samples
            + synthesize_datacube(sc_2, geom, cp).samples
        )
        # the targets share one spectral product and inverse transform
        assert_within_roundoff(union, parts)

    def test_power_accounting_boresight(self):
        geom = ArrayGeometry(4, 8, 10e9)
        cp = tiny_chirp()
        sc = Scenario(
            targets=(TargetSpec(position=(0.0, 0.05, 0.0)),),  # range bin 0
            noise_power=0.0,
            seed=5,
        )
        cube = synthesize_datacube(sc, geom, cp)
        pulse = generate_chirp(cp)
        expected = geom.n * np.sum(np.abs(pulse) ** 2) * cp.num_pulses
        total = np.sum(np.abs(cube.samples) ** 2)
        assert abs(total - expected) / expected < 1e-6

    def test_delay_beyond_window_rejected(self):
        geom = ArrayGeometry(1, 2, 10e9)
        cp = tiny_chirp(pulse_samples=256)
        sc = Scenario(targets=(TargetSpec(position=(0.0, 5e3, 0.0)),), seed=1)
        with pytest.raises(ValueError, match="window"):
            synthesize_datacube(sc, geom, cp)

    def test_delay_beyond_window_rejected_before_rendering(self, monkeypatch):
        import bsradar.simulate as simulate

        def no_rendering(*args):
            raise AssertionError("scene rendered before the target check")

        monkeypatch.setattr(simulate, "_interferer_rng", no_rendering)
        monkeypatch.setattr(simulate, "_render_wideband", no_rendering)
        geom = ArrayGeometry(1, 2, 10e9)
        cp = tiny_chirp(pulse_samples=256)
        inside = TargetSpec(position=(0.0, 30.0, 0.0))
        beyond = TargetSpec(position=(0.0, 5e3, 0.0))
        spec = InterfererSpec(direction=Direction.from_degrees(10.0, -20.0))
        sc = Scenario(targets=(inside, beyond), interferers=(spec,), seed=1)
        with pytest.raises(ValueError, match="window"):
            synthesize_datacube(sc, geom, cp)

    def test_doppler_phase_advance_sign(self):
        # closing target: phase advances by +4 pi v pri / lambda per pulse
        geom = ArrayGeometry(1, 2, 10e9)
        cp = tiny_chirp()
        v = 30.0
        sc = Scenario(
            targets=(TargetSpec(position=(0.0, 50.0, 0.0), radial_velocity=v),),
            noise_power=0.0,
            seed=1,
        )
        cube = synthesize_datacube(sc, geom, cp)
        wavelength = 299792458.0 / cp.carrier_freq
        step = np.angle(np.vdot(cube.samples[0, :, 0], cube.samples[0, :, 1]))
        assert step == pytest.approx(4 * np.pi * v * cp.pri / wavelength, rel=1e-6)

    def test_interferer_power_level(self):
        geom = ArrayGeometry(2, 4, 10e9)
        cp = tiny_chirp(pulse_samples=4096, num_pulses=8)
        spec = InterfererSpec(
            direction=Direction.from_degrees(10.0, -20.0),
            power=50.0,
            waveform_kind="wideband-noise",
            bandwidth_fraction=0.5,
        )
        sc = Scenario(interferers=(spec,), noise_power=0.0, seed=9)
        cube = synthesize_datacube(sc, geom, cp)
        mean_power = np.mean(np.abs(cube.samples) ** 2)
        assert mean_power == pytest.approx(50.0, rel=0.1)

    def test_tone_interferer_is_narrowband(self):
        geom = ArrayGeometry(1, 2, 10e9)
        cp = tiny_chirp(pulse_samples=4096, num_pulses=4)
        spec = InterfererSpec(
            direction=Direction.from_degrees(-5.0, -15.0),
            power=10.0,
            waveform_kind="narrowband-tone",
            bandwidth_fraction=0.5,
        )
        sc = Scenario(interferers=(spec,), noise_power=0.0, seed=13)
        cube = synthesize_datacube(sc, geom, cp)
        spectrum = np.abs(np.fft.fft(cube.samples[0, :, 0])) ** 2
        top = np.sort(spectrum)[::-1]
        # off-grid tone leaks via the rectangular window, but stays compact
        assert top[:8].sum() / spectrum.sum() > 0.95


# ---------------------------------------------------------------------------
# Reference synthesis: the per-pulse time-domain renderer, kept as an oracle
# ---------------------------------------------------------------------------


def _reference_noise_interferer(out, spec, geom, chirp, ref_power, rng):
    n_fast = chirp.pulse_samples
    base_freqs = np.fft.fftfreq(n_fast, 1.0 / chirp.sample_rate)
    mask = np.abs(base_freqs) <= spec.bandwidth_fraction * chirp.sample_rate / 2.0
    n_bins = int(mask.sum())
    rf = chirp.carrier_freq + base_freqs
    steer = steering_matrix(*spatial_frequencies(spec.direction, rf, geom), geom)
    sigma_f = np.sqrt(spec.power * ref_power * n_fast**2 / n_bins / 2.0)
    for m in range(chirp.num_pulses):
        spectrum = np.zeros(n_fast, dtype=complex)
        draws = rng.standard_normal((n_bins, 2))
        spectrum[mask] = sigma_f * (draws[:, 0] + 1j * draws[:, 1])
        out[:, :, m] += np.fft.ifft(steer * spectrum[None, :], axis=1)


def _reference_tone_interferer(out, spec, geom, chirp, ref_power, rng):
    half_band = spec.bandwidth_fraction * chirp.sample_rate / 2.0
    f_tone = rng.uniform(-half_band, half_band)
    phase0 = rng.uniform(0.0, 2.0 * np.pi)
    amp = np.sqrt(spec.power * ref_power)
    rf = np.array([chirp.carrier_freq + f_tone])
    steer = steering_matrix(*spatial_frequencies(spec.direction, rf, geom), geom)[:, 0]
    t_fast = np.arange(chirp.pulse_samples) / chirp.sample_rate
    t_pulse = np.arange(chirp.num_pulses) * chirp.pri
    tone = amp * np.exp(
        1j * (2.0 * np.pi * f_tone * (t_fast[:, None] + t_pulse[None, :]) + phase0)
    )
    out += steer[:, None, None] * tone[None, :, :]


def _reference_target_block(target, geom, chirp, pulse):
    """Antenna-by-fast-time contribution of one target for a single pulse."""
    delay = target.delay_samples(chirp)
    delayed = np.zeros(chirp.pulse_samples, dtype=complex)
    delayed[delay:] = pulse[: chirp.pulse_samples - delay]
    spectrum = np.fft.fft(delayed)
    rf = chirp.carrier_freq + np.fft.fftfreq(chirp.pulse_samples, 1.0 / chirp.sample_rate)
    steer = steering_matrix(*spatial_frequencies(target.direction, rf, geom), geom)
    return np.fft.ifft(steer * spectrum[None, :], axis=1)


def reference_datacube(scenario, geom, chirp):
    """Cube rendered pulse by pulse in the time domain, one emitter at a time."""
    pulse = generate_chirp(chirp)
    out = np.zeros((geom.n, chirp.pulse_samples, chirp.num_pulses), dtype=complex)
    for target in scenario.targets:
        block = _reference_target_block(target, geom, chirp, pulse)
        dopp = _doppler_phases(target.radial_velocity, chirp)
        out += target.amplitude * block[:, :, None] * dopp[None, None, :]
    ref_power = scenario.noise_power if scenario.noise_power > 0 else 1.0
    for idx, spec in enumerate(scenario.interferers):
        rng = _interferer_rng(scenario.seed, idx)
        if spec.waveform_kind == "wideband-noise":
            _reference_noise_interferer(out, spec, geom, chirp, ref_power, rng)
        else:
            _reference_tone_interferer(out, spec, geom, chirp, ref_power, rng)
    if scenario.noise_power > 0:
        rng = _noise_rng(scenario.seed)
        sigma = np.sqrt(scenario.noise_power / 2.0)
        out += sigma * rng.standard_normal(out.shape)
        out += 1j * sigma * rng.standard_normal(out.shape)
    return out


def _small_scene(kinds, noise_power=0.5, seed=21, n_targets=3):
    """Targets within 100 m (delays under 330 samples) plus one interferer per ``kinds`` entry."""
    targets = tuple(
        TargetSpec(
            position=(4.0 * k - 5.0, 30.0 + 17.0 * k, 2.0 - 1.5 * k),
            radial_velocity=-40.0 + 25.0 * k,
            amplitude=complex(np.cos(k + 0.3), np.sin(k + 0.3)),
        )
        for k in range(n_targets)
    )
    interferers = tuple(
        InterfererSpec(
            direction=Direction.from_degrees(-35.0 + 11.0 * i, -25.0 + 3.0 * i),
            power=10.0 ** (1.0 + 0.4 * i),
            waveform_kind=kind,
            bandwidth_fraction=0.3 + 0.1 * i,
        )
        for i, kind in enumerate(kinds)
    )
    return Scenario(targets=targets, interferers=interferers, noise_power=noise_power, seed=seed)


def _scaled(target, factor):
    """``target`` moved ``factor`` times as far from the array."""
    position = tuple(factor * v for v in target.position)
    return TargetSpec(position, target.radial_velocity, target.amplitude)


NOISE, TONE = "wideband-noise", "narrowband-tone"

#: Bound on max|got - want| relative to max|want| for scenes whose wideband
#: sources (targets, noise emitters) are rendered in the spectrum.
ROUNDOFF = 1e-13


def assert_within_roundoff(got, want):
    assert np.max(np.abs(got - want)) <= ROUNDOFF * np.max(np.abs(want))


class TestReferenceSynthesis:
    @pytest.mark.parametrize(
        "kinds,noise_power,pulse_samples",
        [
            ((), 0.5, 256),
            ((), 0.0, 256),
            ((TONE,), 0.5, 256),
            ((TONE, TONE), 2.0, 256),
            # blocks above numpy's 256 KiB temporary-elision threshold
            ((TONE,), 0.5, 4096),
        ],
    )
    def test_time_domain_scenes_bit_identical(self, kinds, noise_power, pulse_samples):
        # tones and thermal noise are bit-identical; targets add roundoff
        # (kinds=(), noise_power=0 is the targets-only, noise-free scene)
        geom = ArrayGeometry(2, 4, 10e9)
        cp = tiny_chirp(pulse_samples=pulse_samples, num_pulses=4)
        sc = _small_scene(kinds, noise_power)
        no_targets = replace(sc, targets=())
        got = synthesize_datacube(no_targets, geom, cp).samples
        assert np.array_equal(got, reference_datacube(no_targets, geom, cp))
        got = synthesize_datacube(sc, geom, cp).samples
        assert_within_roundoff(got, reference_datacube(sc, geom, cp))

    @pytest.mark.parametrize(
        "kinds,shape",
        [
            ((NOISE,), (2, 4)),
            ((NOISE, NOISE, TONE, NOISE), (2, 4)),
            ((TONE, NOISE, NOISE), (3, 5)),
        ],
    )
    def test_noise_interferers_match_within_roundoff(self, kinds, shape):
        geom = ArrayGeometry(*shape, 10e9)
        cp = tiny_chirp(pulse_samples=512, num_pulses=8)
        sc = _small_scene(kinds)
        got = synthesize_datacube(sc, geom, cp).samples
        assert_within_roundoff(got, reference_datacube(sc, geom, cp))

    def test_chunk_sizes_do_not_change_the_cube(self, monkeypatch):
        import bsradar.simulate as simulate

        geom = ArrayGeometry(2, 3, 10e9)
        cp = tiny_chirp(pulse_samples=500, num_pulses=4)
        scenes = [
            _small_scene((NOISE, TONE, NOISE), n_targets=5),
            _small_scene((TONE,), n_targets=5),
        ]
        whole = [synthesize_datacube(sc, geom, cp).samples for sc in scenes]
        # uneven chunks of 7 frequencies
        monkeypatch.setattr(simulate, "_CHUNK_BYTES", 7 * 16 * cp.num_pulses * geom.n)
        chunked = [synthesize_datacube(sc, geom, cp).samples for sc in scenes]
        assert np.array_equal(chunked[0], whole[0])
        assert np.array_equal(chunked[1], whole[1])
        assert_within_roundoff(chunked[1], reference_datacube(scenes[1], geom, cp))

    @pytest.mark.parametrize("chunk_frequencies", [0.5, 3])
    def test_more_sources_than_chunk_frequencies(self, monkeypatch, chunk_frequencies):
        import bsradar.simulate as simulate

        geom = ArrayGeometry(2, 3, 10e9)
        cp = tiny_chirp(pulse_samples=128, num_pulses=4)
        # 9 targets and 3 noise emitters share chunks of 1 or 3 frequencies;
        # a budget below one frequency still renders one at a time
        sc = _small_scene((NOISE, TONE, NOISE, NOISE), n_targets=9)
        sc = replace(sc, targets=tuple(_scaled(t, 0.2) for t in sc.targets))
        whole = synthesize_datacube(sc, geom, cp).samples
        budget = int(chunk_frequencies * 16 * cp.num_pulses * geom.n)
        monkeypatch.setattr(simulate, "_CHUNK_BYTES", budget)
        chunked = synthesize_datacube(sc, geom, cp).samples
        assert np.array_equal(chunked, whole)
        assert_within_roundoff(chunked, reference_datacube(sc, geom, cp))

    @pytest.mark.parametrize("delay", [0, 1, 255])
    def test_target_at_window_edges(self, delay):
        geom = ArrayGeometry(2, 4, 10e9)
        cp = tiny_chirp(pulse_samples=256, num_pulses=4)
        reach = (delay + 0.2) * cp.range_resolution
        target = TargetSpec(
            position=(0.3 * reach, 0.9 * reach, -np.sqrt(0.1) * reach),
            radial_velocity=17.0,
            amplitude=0.4 - 0.9j,
        )
        assert target.delay_samples(cp) == delay
        sc = Scenario(targets=(target,), noise_power=0.0, seed=3)
        got = synthesize_datacube(sc, geom, cp).samples
        assert_within_roundoff(got, reference_datacube(sc, geom, cp))

    def test_chunked_noise_draw_reproduces_one_draw(self):
        # the worker's row draws, handed over in order through its ring
        out = np.zeros((3, 5, 4), dtype=complex)
        assert 2 * len(out) > _NOISE_RING  # so the ring's buffers are reused
        with _thermal_noise(out.shape[1:], len(out), 3.0, np.random.default_rng(8)) as add:
            for part in ("real", "imag"):
                for row in out:
                    add(getattr(row, part))
        rng = np.random.default_rng(8)
        sigma = np.sqrt(3.0 / 2.0)
        real = sigma * rng.standard_normal(out.shape)
        imag = sigma * rng.standard_normal(out.shape)
        assert np.array_equal(out.real, real)
        assert np.array_equal(out.imag, imag)


def _noisy_scene(seed):
    """Targets, a tone and a noise emitter over thermal noise: every kind of source."""
    return _small_scene((NOISE, TONE), noise_power=0.7, seed=seed)


class TestNoiseWorker:
    GEOM = ArrayGeometry(2, 4, 10e9)  # 8 rows: 16 draws, more than the ring holds
    CHIRP = tiny_chirp(pulse_samples=512, num_pulses=8)

    @pytest.mark.parametrize("noise_power", [0.7, 0.0])
    def test_no_thread_outlives_synthesis(self, monkeypatch, noise_power):
        import bsradar.simulate as simulate

        if noise_power == 0:
            # a noise-free scene has no worker to start
            monkeypatch.setattr(simulate, "_thermal_noise", None)
        before = threading.active_count()
        synthesize_datacube(replace(_noisy_scene(seed=4), noise_power=noise_power),
                            self.GEOM, self.CHIRP)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_failed_render(self, monkeypatch):
        import bsradar.simulate as simulate

        def failing_render(*args):
            raise RuntimeError("render failed")

        monkeypatch.setattr(simulate, "_render_wideband", failing_render)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as failed:
            synthesize_datacube(_noisy_scene(seed=4), self.GEOM, self.CHIRP)
        # ``failed`` still holds the call's frame, so only a worker joined
        # inside the call is gone by now
        assert threading.active_count() == before
        assert failed.value.args == ("render failed",)

    def test_concurrent_calls_match_sequential_calls(self):
        # more callers than cores, switching often, each with its own worker
        scenes = [_noisy_scene(seed=seed) for seed in (11, 12, 13)]
        want = [synthesize_datacube(sc, self.GEOM, self.CHIRP).samples for sc in scenes]
        got = [None] * len(scenes)

        def render(k):
            got[k] = synthesize_datacube(scenes[k], self.GEOM, self.CHIRP).samples

        callers = [threading.Thread(target=render, args=(k,)) for k in range(len(scenes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
                assert not caller.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for k in range(len(scenes)):
            assert np.array_equal(got[k], want[k])


def test_cube_check_holds_one_row_of_bools():
    geom = ArrayGeometry(4, 8, 10e9)
    chirp = tiny_chirp(pulse_samples=2048, num_pulses=16)
    samples = np.zeros((geom.n, chirp.pulse_samples, chirp.num_pulses), dtype=complex)
    row_bools = chirp.pulse_samples * chirp.num_pulses  # 32 KiB against the cube's 1 MiB
    tracemalloc.start()
    try:
        DataCube(samples, geom, chirp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= row_bools + 4096
    samples[-1, -1, -1] = np.inf  # the last row is checked too
    with pytest.raises(ValueError, match="non-finite"):
        DataCube(samples, geom, chirp)


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            scenario_preset("Z9")

    @pytest.mark.parametrize(
        "name,count",
        [("A1", 2), ("B1", 4), ("C2", 8), ("D1", 12), ("E2", 16), ("noninterferer", 0)],
    )
    def test_interferer_counts(self, name, count):
        sc = scenario_preset(name)
        assert len(sc.interferers) == count
        assert len(sc.targets) == 20
        assert sc.label == name

    def test_difficult_mode_minimum_separation(self):
        sc = scenario_preset("E2")
        ground = _ground_elevation()
        seps = [t.direction.elevation - ground for t in sc.targets]
        assert min(seps) >= np.deg2rad(12.5) - 1e-9

    def test_easy_mode_separation_band(self):
        sc = scenario_preset("A1")
        ground = _ground_elevation()
        seps = np.rad2deg([t.direction.elevation - ground for t in sc.targets])
        assert seps.min() >= 24.9 and seps.max() <= 50.1

    def test_interferers_below_horizon(self):
        sc = scenario_preset("E1")
        assert all(i.direction.elevation < 0 for i in sc.interferers)

    def test_velocities_unambiguous(self):
        cp = ChirpParams()
        for name in ("A1", "E2"):
            sc = scenario_preset(name)
            for t in sc.targets:
                assert abs(t.radial_velocity) < cp.max_unambiguous_velocity

    def test_target_bins_distinct(self):
        cp = ChirpParams()
        sc = scenario_preset("A1")
        rbins = [t.delay_samples(cp) for t in sc.targets]
        vbins = [round(t.radial_velocity / cp.velocity_resolution) for t in sc.targets]
        assert len(set(rbins)) == 20
        assert len(set(vbins)) == 20

    def test_preset_determinism(self):
        a = scenario_preset("C1", seed=42)
        b = scenario_preset("C1", seed=42)
        assert a == b

    def test_name_is_the_label_or_custom(self):
        labelled = scenario_preset("A1")
        unlabelled = replace(labelled, label="")
        assert (labelled.name, unlabelled.name) == ("A1", "custom")
        # a property, not a field: equality and hashing still read the label
        assert unlabelled != labelled and unlabelled == replace(labelled, label="")
        assert hash(unlabelled) == hash(replace(labelled, label=""))
        assert "name" not in {f.name for f in fields(Scenario)}

    def test_nested_interferer_layout(self):
        a = scenario_preset("A1")
        e = scenario_preset("E1")
        assert e.interferers[: len(a.interferers)] == a.interferers


EAST = Direction(0.0, 0.0)
SMALL_GEOM = ArrayGeometry(2, 4, 10e9)
SMALL_CHIRP = ChirpParams(pulse_samples=64, num_pulses=4, pri=1e-6)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: ChirpParams(bandwidth=-1.0), r"^bandwidth must lie in \[0, sample_rate\]"),
        (lambda: ChirpParams(bandwidth=600e6), r"^bandwidth must lie in \[0, sample_rate\]"),
        (lambda: ChirpParams(pulse_samples=0), "^pulse_samples must be >= 1"),
        (lambda: ChirpParams(num_pulses=1), "^num_pulses must be >= 2"),
        (lambda: ChirpParams(pri=8e-6), "^pri must exceed the sampled pulse window"),
        (lambda: InterfererSpec(EAST, power=0.0), "^interferer power must be positive"),
        (lambda: InterfererSpec(EAST, waveform_kind="chirp"), "^unknown waveform_kind 'chirp'"),
        (
            lambda: InterfererSpec(EAST, bandwidth_fraction=1.5),
            r"^bandwidth_fraction must lie in \[0, 1\]",
        ),
        (lambda: Scenario(noise_power=-1.0), "^noise_power must be >= 0"),
        (
            lambda: DataCube(np.zeros((8, 64, 3), dtype=complex), SMALL_GEOM, SMALL_CHIRP),
            r"^cube shape \(8, 64, 3\) does not match geometry/chirp \(8, 64, 4\)",
        ),
        (
            lambda: DataCube(np.full((8, 64, 4), np.nan + 0j), SMALL_GEOM, SMALL_CHIRP),
            "^cube contains non-finite samples",
        ),
        (
            lambda: ChirpParams(pulse_samples=64.0, num_pulses=4, pri=1e-6),
            "^pulse_samples: 64.0 is not an integer",
        ),
        (lambda: ChirpParams(num_pulses=True), "^num_pulses: True is not an integer"),
        # a count is a Python int, as a config file stores it and the tallies need
        (
            lambda: ChirpParams(pulse_samples=np.int64(256)),
            "^pulse_samples: .*256.* is not an integer",
        ),
        (lambda: ChirpParams(num_pulses=np.int64(64)), "^num_pulses: .*64.* is not an integer"),
        (lambda: Scenario(seed=1.5), "^seed: 1.5 is not a non-negative int"),
        (lambda: Scenario(seed=-1), "^seed: -1 is not a non-negative int"),
        # a scenario file could not store it
        (lambda: Scenario(seed=np.int64(3)), "^seed: .*3.* is not a non-negative int"),
        (lambda: scenario_preset("A1", seed=-1), "^seed: -1 is not a non-negative int"),
        (lambda: Scenario(label=5), "^label: 5 is not a str"),
        (
            lambda: TargetSpec((0.0, 0.0, 0.0)),
            r"^position: \(0.0, 0.0, 0.0\): position coincides with the array origin",
        ),
        (
            lambda: TargetSpec((0.0, -100.0, 0.0)),
            r"^position: \(0.0, -100.0, 0.0\): direction .* outside the front hemisphere",
        ),
        (lambda: TargetSpec((1.0, 2.0)), r"^position: \(1.0, 2.0\) is not an \(x, y, z\) triple"),
        (lambda: TargetSpec(500.0), r"^position: 500.0 is not an \(x, y, z\) triple"),
        (
            lambda: TargetSpec(np.array(5.0)),
            r"^position: array\(5\.\) is not an \(x, y, z\) triple",
        ),
        (lambda: InterfererSpec((0.1, 0.2)), r"^direction: \(0.1, 0.2\) is not a Direction"),
        (
            lambda: Scenario(targets=[TargetSpec((1.0, 500.0, 0.0)), (1.0, 500.0, 0.0)]),
            r"^targets\[1\]: \(1.0, 500.0, 0.0\) has type tuple, not TargetSpec",
        ),
        (lambda: Scenario(targets=5), "^targets: 5 is not a sequence of TargetSpec"),
        (
            lambda: Scenario(interferers=[EAST]),
            r"^interferers\[0\]: Direction\(.*\) has type Direction, not InterfererSpec",
        ),
        (lambda: scenario_preset("A1", snr_db="3"), "^snr_db: '3' is not a finite number"),
        (lambda: scenario_preset("A1", snr_db=np.nan), "^snr_db: nan is not a finite number"),
        (lambda: scenario_preset("A1", snr_db=True), "^snr_db: True is not a finite number"),
        (lambda: scenario_preset("A1", snr_db=10**400), "^snr_db: 10* is not a finite number"),
    ],
    ids=[
        "negative-bandwidth",
        "bandwidth-over-rate",
        "pulse-samples",
        "num-pulses",
        "pri",
        "interferer-power",
        "waveform-kind",
        "bandwidth-fraction",
        "noise-power",
        "cube-shape",
        "cube-non-finite",
        "pulse-samples-float",
        "num-pulses-bool",
        "pulse-samples-numpy",
        "num-pulses-numpy",
        "seed-float",
        "seed-negative",
        "seed-numpy",
        "preset-seed-negative",
        "label-int",
        "target-at-origin",
        "target-behind-array",
        "target-position-pair",
        "target-position-scalar",
        "target-position-0d-array",
        "interferer-direction-tuple",
        "scenario-target-tuple",
        "scenario-targets-int",
        "scenario-interferer-direction",
        "preset-snr-str",
        "preset-snr-nan",
        "preset-snr-bool",
        "preset-snr-int-beyond-float",
    ],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


# one constructor per number field, building it with the value given
NUMBER_FIELDS = {
    "noise_power": lambda v: Scenario(noise_power=v),
    "power": lambda v: InterfererSpec(EAST, power=v),
    "bandwidth_fraction": lambda v: InterfererSpec(EAST, bandwidth_fraction=v),
    "position": lambda v: TargetSpec((v, 50.0, 0.0)),
    "radial_velocity": lambda v: TargetSpec((1.0, 50.0, 0.0), v),
    "amplitude": lambda v: TargetSpec((1.0, 50.0, 0.0), 0.0, v),
    "design_freq": lambda v: ArrayGeometry(4, 32, v),
    "spacing": lambda v: ArrayGeometry(4, 32, 10e9, v),
    "pri": lambda v: ChirpParams(pri=v),
}


@pytest.mark.parametrize(
    "bad",
    [True, "1", 1j, [1.0], 10**400],
    ids=["bool", "str", "complex", "list", "int-beyond-float"],
)
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_numbers_reject_bools_and_strings(field, bad):
    # as a config file does; a complex amplitude stays a number
    if (field, bad) == ("amplitude", 1j):
        assert NUMBER_FIELDS[field](bad).amplitude == 1j
        return
    with pytest.raises(ValueError, match=f"^{field}: .* is not a finite number"):
        NUMBER_FIELDS[field](bad)
