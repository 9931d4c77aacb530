import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsradar import (
    ArrayGeometry,
    ChirpParams,
    DataCube,
    bin_center_frequencies,
    channelize,
    synthesize,
)

from bsradar.channelizer import channelize_into
from conftest import random_complex


def make_cube(samples, sample_rate=500e6, carrier=10e9):
    n_ant, n_fast, n_pulses = samples.shape
    n_z = 1 if n_ant == 1 else 2
    geom = ArrayGeometry(n_z=n_z, n_x=n_ant // n_z, design_freq=carrier)
    chirp = ChirpParams(
        carrier_freq=carrier,
        sample_rate=sample_rate,
        bandwidth=0.0,
        pulse_samples=n_fast,
        num_pulses=n_pulses,
        pri=4 * n_fast / sample_rate,
    )
    return DataCube(samples, geom, chirp)


def reference_channelize(samples, L):
    """Whole-cube channelizer formula, kept as the bit-exact reference."""
    n_ant, n_fast, n_pulses = samples.shape
    blocks = samples.reshape(n_ant, n_fast // L, L, n_pulses)
    ramp = np.exp(1j * np.pi * np.arange(L) / L)
    spectra = np.fft.fft(blocks * ramp[None, None, :, None], axis=2)
    return np.ascontiguousarray(spectra.transpose(0, 2, 1, 3))


def rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestRoundTrip:
    def test_perfect_reconstruction(self, rng):
        cube = make_cube(random_complex(rng, (2, 512, 3)))
        sub = channelize(cube, 128)
        assert sub.shape == (2, 128, 4, 3)
        back = synthesize(sub)
        assert rel_err(back, cube.samples) < 1e-12

    @pytest.mark.parametrize(
        "shape,L,overwrite",
        [
            pytest.param(shape, L, overwrite, id=f"shape{i}-{L}" + "-owned" * overwrite)
            for overwrite in (False, True)
            for i, (shape, L) in enumerate(
                [((6, 512, 5), 128), ((1, 64, 2), 2), ((4, 4096, 8), 128)]
            )
        ],
    )
    def test_matches_whole_cube_formula_bit_for_bit(self, rng, shape, L, overwrite):
        cube = make_cube(random_complex(rng, shape))
        expected = reference_channelize(cube.samples, L)
        x = cube.samples
        sub = channelize_into(x, L, x) if overwrite else channelize(cube, L)
        # the buffer is laid out (antenna, snapshot, subband, pulse)
        assert sub.transpose(0, 2, 1, 3).flags.c_contiguous
        assert np.shares_memory(sub, cube.samples) == overwrite
        assert np.array_equal(sub, expected)

    def test_passthrough_single_band(self, rng):
        cube = make_cube(random_complex(rng, (2, 64, 2)))
        sub = channelize(cube, 1)
        assert sub.shape == (2, 1, 64, 2)
        assert np.array_equal(sub[:, 0], cube.samples)
        assert np.array_equal(synthesize(sub), cube.samples)

    def test_zero_outputs_synthesize_to_zero(self):
        assert np.array_equal(
            synthesize(np.zeros((8, 4, 2), dtype=complex)),
            np.zeros((32, 2), dtype=complex),
        )

    def test_default_sizes_give_32_snapshots(self, rng):
        cube = make_cube(random_complex(rng, (1, 4096, 2)))
        sub = channelize(cube, 128)
        assert sub.shape[2] == 32

    def test_nondivisible_and_odd_counts_rejected(self, rng):
        cube = make_cube(random_complex(rng, (1, 96, 2)))
        with pytest.raises(ValueError):
            channelize(cube, 64)
        with pytest.raises(ValueError):
            channelize(cube, 3)

    def test_zero_subbands_rejected_by_name(self, rng):
        samples = random_complex(rng, (1, 96, 2))
        with pytest.raises(ValueError, match="^subbands: 0 must be >= 1"):
            channelize_into(samples, 0, np.empty_like(samples))

    def test_synthesize_shape_validation(self):
        with pytest.raises(ValueError):
            synthesize(np.zeros((8, 4)))


class TestOwnership:
    """A caller that gives its cube up channelizes it over its own samples
    with ``channelize_into(x, L, x)``; ``channelize`` leaves the cube as it
    was."""

    @given(
        n_ant=st.sampled_from([1, 2, 4, 6]),
        half_L=st.integers(1, 16),
        n_snap=st.integers(1, 8),
        n_pulses=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_owned_equals_copying_and_round_trips(self, n_ant, half_L, n_snap, n_pulses, seed):
        L = 2 * half_L
        x = random_complex(np.random.default_rng(seed), (n_ant, L * n_snap, n_pulses))
        copying = channelize(make_cube(x), L)
        y = x.copy()
        owned = channelize_into(y, L, y)
        assert np.array_equal(owned, copying)
        assert rel_err(synthesize(owned), x) < 1e-12

    @given(
        half_L=st.integers(1, 8),
        n_pulses=st.integers(2, 9),
        size=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pulse_ranges_equal_the_whole_cube(self, half_L, n_pulses, size, seed):
        # ranges of `size` pulses through one reused buffer, the last one short
        L = 2 * half_L
        x = random_complex(np.random.default_rng(seed), (4, 4 * L, n_pulses))
        whole = channelize(make_cube(x), L)
        buffer = np.empty(x[:, :, :size].size, dtype=complex)
        for first in range(0, n_pulses, size):
            block = x[:, :, first : first + size]
            out = buffer[: block.size].reshape(block.shape)
            assert np.array_equal(channelize_into(block, L, out), whole[..., first : first + size])
        assert np.array_equal(channelize(make_cube(x), L), whole)

    @staticmethod
    def _peak_bytes(cube, L, overwrite):
        tracemalloc.start()
        try:
            if overwrite:
                channelize_into(cube.samples, L, cube.samples)
            else:
                channelize(cube, L)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_owned_path_allocates_no_second_cube(self, rng):
        cube = make_cube(random_complex(rng, (8, 512, 64)))
        antenna_bytes = cube.samples[0].nbytes
        assert self._peak_bytes(cube, 32, overwrite=True) < 2 * antenna_bytes

    def test_copying_path_allocates_one_cube(self, rng):
        cube = make_cube(random_complex(rng, (8, 512, 64)))
        before = cube.samples.copy()
        peak = self._peak_bytes(cube, 32, overwrite=False)
        assert cube.samples.nbytes <= peak < cube.samples.nbytes + 2 * cube.samples[0].nbytes
        assert np.array_equal(cube.samples, before)


class TestSynthesizeInPlace:
    def test_equals_the_ramped_inverse_formula_bit_for_bit(self, rng):
        x = random_complex(rng, (3, 16, 4, 5))
        ramp = np.exp(1j * np.pi * np.arange(16) / 16).conj()[:, None]
        expected = np.fft.ifft(np.moveaxis(x, -3, -2), axis=-2) * ramp
        assert np.array_equal(synthesize(x), expected.reshape(3, 64, 5))

    def test_allocates_only_the_wideband_series(self, rng):
        x = random_complex(rng, (4, 32, 32, 64))
        tracemalloc.start()
        try:
            synthesize(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # slack: numpy's 8192-element ufunc buffer for the strided FFT axis
        assert x.nbytes <= peak < x.nbytes + 256 * 1024


class TestLinearity:
    def test_channelize_is_linear(self, rng):
        x = random_complex(rng, (2, 256, 2))
        y = random_complex(rng, (2, 256, 2))
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        combined = channelize(make_cube(a * x + b * y), 32)
        parts = a * channelize(make_cube(x), 32) + b * channelize(make_cube(y), 32)
        assert np.allclose(combined, parts, atol=1e-12)

    def test_parseval_with_factor_L(self, rng):
        x = random_complex(rng, (2, 512, 2))
        sub = channelize(make_cube(x), 128)
        ratio = np.sum(np.abs(sub) ** 2) / np.sum(np.abs(x) ** 2)
        assert ratio == pytest.approx(128.0, rel=1e-10)


def subband_offset(l, L, f_s):
    """Subband l's center relative to the carrier: (l - 1/2)/L * f_s."""
    return (l - 0.5) / L * f_s


def bin_of(l, L, chirp):
    """The DFT bin whose center frequency is subband l's."""
    offsets = bin_center_frequencies(L, chirp) - chirp.carrier_freq
    near = np.abs(offsets - subband_offset(l, L, chirp.sample_rate)) < chirp.sample_rate / L / 4
    (b,) = np.flatnonzero(near)
    return b


def tone_cube(l, L, n_fast, f_s, n_ant=1, n_pulses=2, offset_bins=0.0):
    """Tone offset_bins away from the center of subband l."""
    f = subband_offset(l, L, f_s) + offset_bins * f_s / L
    n = np.arange(n_fast)
    tone = np.exp(2j * np.pi * f / f_s * n)
    samples = np.tile(tone, (n_ant, n_pulses, 1)).transpose(0, 2, 1)
    return make_cube(np.ascontiguousarray(samples), sample_rate=f_s)


class TestToneMapping:
    @pytest.mark.parametrize("l", [0, 1, -5, 16, -15])
    def test_centered_tone_lands_in_its_subband(self, l):
        L, n_fast = 32, 512
        cube = tone_cube(l, L, n_fast, 500e6)
        sub = channelize(cube, L)
        energy = np.sum(np.abs(sub[0]) ** 2, axis=(1, 2))
        share = energy[bin_of(l, L, cube.chirp)] / energy.sum()
        assert share >= 0.999  # exactly on center: no leakage at all

    @pytest.mark.parametrize("L", [2, 32, 128])
    def test_every_bin_center_tone_lands_in_that_bin(self, L):
        # pulse p carries a tone at bin p's center frequency; pulses
        # channelize independently, so one cube checks every bin at once
        n_fast, f_s = 512, 500e6
        chirp = make_cube(np.zeros((1, n_fast, L), dtype=complex), sample_rate=f_s).chirp
        offsets = bin_center_frequencies(L, chirp) - chirp.carrier_freq
        n = np.arange(n_fast)[:, None]
        samples = np.exp(2j * np.pi * offsets[None, :] / f_s * n)[None]
        sub = channelize(make_cube(samples, sample_rate=f_s), L)
        energy = np.sum(np.abs(sub[0]) ** 2, axis=1)  # (bin, pulse)
        share = np.diag(energy) / energy.sum(axis=0)
        assert np.all(share >= 1 - 1e-9), np.flatnonzero(share < 1 - 1e-9)

    def test_off_center_leakage_matches_dirichlet(self):
        # rectangular-window DFT leakage: |sin(pi d) / (L sin(pi d / L))|^2
        L, n_fast, f_s, offset = 32, 512, 500e6, 0.3
        cube = tone_cube(2, L, n_fast, f_s, offset_bins=offset)
        sub = channelize(cube, L)
        energy = np.sum(np.abs(sub[0]) ** 2, axis=(1, 2))
        share = energy / energy.sum()
        offsets = bin_center_frequencies(L, cube.chirp) - cube.chirp.carrier_freq
        for b in range(L):
            # the tone's distance from bin b's center, in bins
            delta = (subband_offset(2, L, f_s) - offsets[b]) * L / f_s + offset
            expected = (
                np.sin(np.pi * delta) / (L * np.sin(np.pi * delta / L))
            ) ** 2
            assert share[b] == pytest.approx(expected, abs=1e-9)

    def test_zeroing_a_subband_removes_only_that_tone(self):
        L, n_fast, f_s = 32, 512, 500e6
        cube_a = tone_cube(3, L, n_fast, f_s)
        cube_b = tone_cube(-7, L, n_fast, f_s)
        both = make_cube(cube_a.samples + cube_b.samples, sample_rate=f_s)
        sub = channelize(both, L)
        sub[:, bin_of(-7, L, both.chirp)] = 0.0
        back = synthesize(sub)
        assert rel_err(back, cube_a.samples) < 1e-12


class TestMetadata:
    def test_bin_center_frequencies_follow_the_index_map(self):
        # bin b is subband b up to L/2 and b - L above
        chirp = ChirpParams(pulse_samples=512, num_pulses=2, pri=2e-6)
        freqs = bin_center_frequencies(8, chirp)
        l = np.array([0, 1, 2, 3, 4, -3, -2, -1])
        expected = chirp.carrier_freq + (l - 0.5) / 8 * chirp.sample_rate
        assert np.array_equal(freqs, expected)

    @pytest.mark.parametrize(
        "L,match",
        [
            (3, r"^subbands: 3 must be even \(or 1\)$"),
            (0, "^subbands: 0 must be >= 1$"),
            (2.0, "^subbands: 2.0 is not an integer$"),
        ],
    )
    def test_bin_center_frequencies_reject_as_the_channelizer(self, L, match):
        chirp = ChirpParams(pulse_samples=96, num_pulses=2, pri=2e-6)
        with pytest.raises(ValueError, match=match):
            bin_center_frequencies(L, chirp)
