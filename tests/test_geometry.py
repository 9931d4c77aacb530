import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsradar import (
    SPEED_OF_LIGHT,
    ArrayGeometry,
    ChirpParams,
    Direction,
    Scenario,
    SpatialFrequencies,
    TargetSpec,
    beam_pattern,
    conventional_correlator,
    spatial_frequencies,
    steering_matrix,
    steering_vector,
    subband_center_freq,
    synthesize_datacube,
)

# 0.6-wavelength spacing, evaluated off the design frequency: a consumer
# that drops the spacing ratio or the frequency scaling steers elsewhere
WIDE = ArrayGeometry(n_z=3, n_x=8, design_freq=10e9, spacing=0.6 * SPEED_OF_LIGHT / 10e9)
OFF_DESIGN = 10.3e9


class TestSubbandCenterFreq:
    def test_first_subband_at_defaults(self):
        # direct substitution: 10 GHz + (0.5/128) * 500 MHz
        assert subband_center_freq(1, 128, 10e9, 500e6) == 10.001953125e9

    def test_smallest_even_count(self):
        assert subband_center_freq(1, 2, 0.0, 1.0) == 0.25

    def test_full_sweep_uniform_and_symmetric(self):
        L, f_c, f_s = 128, 10e9, 500e6
        l = np.arange(-L // 2 + 1, L // 2 + 1)
        freqs = subband_center_freq(l, L, f_c, f_s)
        assert len(np.unique(freqs)) == L
        steps = np.diff(freqs)
        assert np.allclose(steps, f_s / L)
        # centers pair off symmetrically about the carrier
        assert np.allclose(freqs + freqs[::-1], 2 * f_c)

    @pytest.mark.parametrize("bad_l", [-64, 65, 1000])
    def test_index_out_of_range(self, bad_l):
        with pytest.raises(ValueError):
            subband_center_freq(bad_l, 128, 10e9, 500e6)

    @pytest.mark.parametrize("bad_L", [0, 1, 3, 127])
    def test_odd_or_tiny_count_rejected(self, bad_L):
        with pytest.raises(ValueError):
            subband_center_freq(0, bad_L, 10e9, 500e6)


class TestSpatialFrequencies:
    def test_boresight_is_zero(self, geom):
        sf = spatial_frequencies(Direction(0.0, 0.0), 7.3e9, geom)
        assert sf.omega_x == 0.0 and sf.omega_z == 0.0

    def test_thirty_degrees_azimuth(self, geom):
        sf = spatial_frequencies(Direction.from_degrees(30, 0), geom.design_freq, geom)
        assert sf.omega_x == pytest.approx(np.pi / 2, rel=1e-12)
        assert sf.omega_z == pytest.approx(0.0, abs=1e-15)

    def test_near_endfire_approaches_pi(self, geom):
        sf = spatial_frequencies(
            Direction.from_degrees(89.99, 0), geom.design_freq, geom
        )
        assert sf.omega_x == pytest.approx(np.pi, rel=1e-6)

    def test_frequency_scaling_linearity(self, geom, rng):
        for _ in range(20):
            d = Direction(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            f = rng.uniform(0.5, 2.0) * geom.design_freq
            ref = spatial_frequencies(d, geom.design_freq, geom)
            scaled = spatial_frequencies(d, f, geom)
            ratio = f / geom.design_freq
            assert scaled.omega_x == pytest.approx(ref.omega_x * ratio, abs=1e-15)
            assert scaled.omega_z == pytest.approx(ref.omega_z * ratio, abs=1e-15)

    def test_nonpositive_frequency_rejected(self, geom):
        with pytest.raises(ValueError):
            spatial_frequencies(Direction(0.0, 0.0), 0.0, geom)


class TestSteeringVector:
    def test_boresight_all_ones(self, geom):
        a = steering_vector(SpatialFrequencies(0.0, 0.0), geom)
        assert a.shape == (128,)
        assert np.array_equal(a, np.ones(128, dtype=complex))

    def test_half_wavelength_phase_flip(self):
        g = ArrayGeometry(n_z=2, n_x=1, design_freq=10e9)
        a = steering_vector(SpatialFrequencies(0.0, np.pi), g)
        assert np.allclose(a, [1.0, -1.0])

    def test_two_by_two_kronecker_expansion(self):
        g = ArrayGeometry(n_z=2, n_x=2, design_freq=10e9)
        a = steering_vector(SpatialFrequencies(np.pi / 2, np.pi / 4), g)
        expected = np.exp(1j * np.array([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4]))
        assert np.allclose(a, expected, atol=1e-15)

    def test_kronecker_consistency_random(self, geom, rng):
        for _ in range(10):
            sf = SpatialFrequencies(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
            a_z = np.exp(1j * sf.omega_z * np.arange(geom.n_z))
            a_x = np.exp(1j * sf.omega_x * np.arange(geom.n_x))
            assert np.array_equal(steering_vector(sf, geom), np.kron(a_x, a_z))

    def test_conjugate_symmetry(self, geom, rng):
        for _ in range(10):
            wx, wz = rng.uniform(-np.pi, np.pi, 2)
            fwd = steering_vector(SpatialFrequencies(wx, wz), geom)
            rev = steering_vector(SpatialFrequencies(-wx, -wz), geom)
            assert np.allclose(rev, np.conj(fwd), atol=1e-15)

    def test_unit_magnitude_and_norm(self, geom, rng):
        sf = SpatialFrequencies(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        a = steering_vector(sf, geom)
        assert a[0] == 1.0 + 0.0j
        assert np.allclose(np.abs(a), 1.0)
        assert np.linalg.norm(a) ** 2 == pytest.approx(geom.n, rel=1e-12)

    def test_element_index_maps_vertical_fastest(self, geom):
        # element (row i_z, column i_x) sits at flat index i_x*n_z + i_z
        sf = SpatialFrequencies(0.3, 0.7)
        a = steering_vector(sf, geom)
        i_z, i_x = 3, 17
        expected = np.exp(1j * (sf.omega_x * i_x + sf.omega_z * i_z))
        assert a[i_x * geom.n_z + i_z] == pytest.approx(expected, rel=1e-12)

    @given(
        n_z=st.integers(1, 6),
        n_x=st.integers(1, 6),
        omegas=st.lists(
            st.tuples(st.floats(-7.0, 7.0), st.floats(-7.0, 7.0)), min_size=1, max_size=5
        ),
    )
    def test_steering_matrix_columns_are_steering_vectors(self, n_z, n_x, omegas):
        g = ArrayGeometry(n_z, n_x, 10e9)
        wx, wz = np.array(omegas).T
        mat = steering_matrix(wx, wz, g)
        assert mat.shape == (g.n, len(omegas))
        for k, (ox, oz) in enumerate(omegas):
            assert np.array_equal(mat[:, k], steering_vector(SpatialFrequencies(ox, oz), g))

    def test_steering_matrix_stacks_vectors(self, geom, rng):
        wx = rng.uniform(-np.pi, np.pi, 5)
        wz = rng.uniform(-np.pi, np.pi, 5)
        mat = steering_matrix(wx, wz, geom)
        for k in range(5):
            col = steering_vector(SpatialFrequencies(wx[k], wz[k]), geom)
            assert np.allclose(mat[:, k], col, atol=1e-15)


class TestDomainTypes:
    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            ArrayGeometry(n_z=0, n_x=4, design_freq=1e9)
        with pytest.raises(ValueError):
            ArrayGeometry(n_z=4, n_x=4, design_freq=1e9, spacing=-0.1)
        g = ArrayGeometry(n_z=4, n_x=32, design_freq=10e9)
        assert g.n == 128
        assert g.spacing == pytest.approx(g.wavelength / 2)

    def test_direction_front_hemisphere(self):
        Direction(1.5, -1.5)
        with pytest.raises(ValueError):
            Direction(np.pi / 2, 0.0)
        with pytest.raises(ValueError):
            Direction(0.0, -np.pi / 2)

    def test_direction_from_position(self):
        d = Direction.from_position(0.0, 100.0, 0.0)
        assert d.azimuth == 0.0 and d.elevation == 0.0
        d = Direction.from_position(100.0, 100.0, 0.0)
        assert d.azimuth == pytest.approx(np.pi / 4)
        d = Direction.from_position(0.0, 100.0, 100.0)
        assert d.elevation == pytest.approx(np.pi / 4)
        with pytest.raises(ValueError):
            Direction.from_position(0.0, -10.0, 0.0)  # behind the array


class TestOneManifold:
    """The simulator, the beamformer and beam patterns all steer by geometry."""

    arrival = Direction.from_degrees(20.0, -12.0)

    def test_frequency_array_matches_scalar_calls_bit_for_bit(self):
        freqs = np.linspace(9.6e9, 10.4e9, 33)
        sf = spatial_frequencies(self.arrival, freqs, WIDE)
        for i, f in enumerate(freqs):
            one = spatial_frequencies(self.arrival, f, WIDE)
            assert (sf.omega_x[i], sf.omega_z[i]) == (one.omega_x, one.omega_z)

    def test_any_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError, match="eval_freq"):
            spatial_frequencies(self.arrival, np.array([10e9, 0.0, 9e9]), WIDE)

    def test_matched_weights_have_unit_gain_at_the_arrival(self):
        a = steering_vector(spatial_frequencies(self.arrival, OFF_DESIGN, WIDE), WIDE)
        az, el = np.array([self.arrival.azimuth]), np.array([self.arrival.elevation])
        gain = beam_pattern(conventional_correlator(a), az, el, WIDE, OFF_DESIGN)
        assert abs(gain[0, 0] - 1.0) <= 1e-12

    def test_one_target_cube_spectrum_is_the_steering_vector(self):
        chirp = ChirpParams(
            carrier_freq=OFF_DESIGN,
            sample_rate=500e6,
            bandwidth=400e6,
            pulse_samples=256,
            num_pulses=2,
            pri=1e-6,
        )
        target = TargetSpec(position=(12.0, 26.0, -6.0), radial_velocity=20.0)
        cube = synthesize_datacube(Scenario(targets=(target,), noise_power=0.0), WIDE, chirp)
        spectrum = np.fft.fft(cube.samples[:, :, 1], axis=1)
        rf = chirp.carrier_freq + np.fft.fftfreq(chirp.pulse_samples, 1.0 / chirp.sample_rate)
        for b in (3, 60, 128 + 70):
            a = steering_matrix(*spatial_frequencies(target.direction, rf[b], WIDE), WIDE)[:, 0]
            x = spectrum[:, b]
            cosine = abs(np.vdot(a, x)) / (np.linalg.norm(a) * np.linalg.norm(x))
            assert cosine >= 1.0 - 1e-12, b


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: ArrayGeometry(4, 4, 0.0), "^design_freq must be positive"),
        (lambda: ArrayGeometry(4, 4, -1e9), "^design_freq must be positive"),
        (
            lambda: Direction.from_position(0.0, 0.0, 0.0),
            "^position coincides with the array origin",
        ),
        (
            lambda: steering_matrix([0.1, 0.2], [0.1], ArrayGeometry(2, 4, 10e9)),
            "^omega_x and omega_z must have matching shapes",
        ),
        (lambda: ArrayGeometry(2.5, 4, 10e9), "^n_z: 2.5 is not an integer"),
        (lambda: ArrayGeometry(True, 4, 10e9), "^n_z: True is not an integer"),
        (lambda: ArrayGeometry(2, 4.0, 10e9), "^n_x: 4.0 is not an integer"),
        # a count is a Python int, as a config file stores it and the tallies need
        (lambda: ArrayGeometry(np.int64(2), 4, 10e9), "^n_z: .*2.* is not an integer"),
        (lambda: ArrayGeometry(2, np.int64(4), 10e9), "^n_x: .*4.* is not an integer"),
        (lambda: Direction(True, 0.0), "^azimuth: True is not a finite number"),
        (lambda: Direction(0.5j, 0.0), r"^azimuth: 0.5j is not a finite number"),
        (lambda: Direction("a", 0.0), "^azimuth: 'a' is not a finite number"),
        (lambda: Direction(0.0, 1 + 0j), r"^elevation: \(1\+0j\) is not a finite number"),
    ],
    ids=[
        "zero-design-freq",
        "negative-design-freq",
        "origin",
        "steering-shapes",
        "n-z-float",
        "n-z-bool",
        "n-x-float",
        "n-z-numpy",
        "n-x-numpy",
        "direction-bool",
        "direction-complex",
        "direction-str",
        "direction-elevation-complex",
    ],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
