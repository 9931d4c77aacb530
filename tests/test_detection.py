import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import maximum_filter

from bsradar import (
    ArrayGeometry,
    ChirpParams,
    Detection,
    RangeDopplerMap,
    Scenario,
    TargetSpec,
    cfar_detect,
    generate_chirp,
    range_doppler_map,
    score_detections,
    synthesize_datacube,
    write_detection_report,
)
from bsradar.detection import _check_map, _floor_at, _sorted_columns


def cfar_noise_floor(power, guard_cells=4):
    """The median floor at every cell of a map, built from what
    ``cfar_detect`` runs at its candidate cells."""
    power = _check_map(power, guard_cells)
    rows, cols = np.indices(power.shape).reshape(2, -1)
    floor = _floor_at(power, _sorted_columns(power), rows, cols, guard_cells)
    return floor.reshape(power.shape)


def reference_median_column(column, guard):
    """The per-column median floor the map-wide pass replaced, kept as an oracle."""
    n = column.shape[0]
    width = 2 * guard + 1
    order = np.argsort(column, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    srt = column[order]

    offsets = np.arange(-guard, guard + 1)
    neighbor = np.arange(n)[:, None] + offsets[None, :]
    valid = (neighbor >= 0) & (neighbor < n)
    excluded = np.where(valid, ranks[np.clip(neighbor, 0, n - 1)], n)
    excluded = np.sort(excluded, axis=1)
    remaining = n - valid.sum(axis=1)

    def order_stat(k):
        j = k.astype(np.int64)
        for _ in range(width + 1):
            j = k + np.sum(excluded <= j[:, None], axis=1)
        return srt[j]

    lo = order_stat((remaining - 1) // 2)
    hi = order_stat(remaining // 2)
    return 0.5 * (lo + hi)


def reference_floor(power, guard):
    """Column-by-column floor, one Python call per velocity column."""
    floor = np.empty_like(power, dtype=float)
    for col in range(power.shape[1]):
        floor[:, col] = reference_median_column(power[:, col], guard)
    return floor


def brute_force_median_floor(power, guard):
    rows = power.shape[0]
    floor = np.empty(power.shape)
    for i in range(rows):
        keep = np.ones(rows, dtype=bool)
        keep[max(0, i - guard) : i + guard + 1] = False
        floor[i] = np.median(power[keep], axis=0)
    return floor


def oracle_detect(power, floor, threshold_db):
    """``cfar_detect`` spelled out over every cell of the map: the given
    floor, the threshold, 3x3 maxima from ``maximum_filter`` and dB margins."""
    factor = 10.0 ** (threshold_db / 10.0)
    above = (power >= floor * factor) & (power > 0)
    local_max = power >= maximum_filter(power, size=3, mode="constant", cval=-np.inf)
    with np.errstate(divide="ignore"):
        margins = 10.0 * np.log10(power / np.where(floor > 0, floor, np.inf))
    return [
        Detection(int(r), int(v), float(margins[r, v]))
        for r, v in np.argwhere(above & local_max)
    ]


def tiny_chirp(pulse_samples=512, num_pulses=16):
    return ChirpParams(
        pulse_samples=pulse_samples, num_pulses=num_pulses, pri=pulse_samples / 500e6 * 2
    )


def noise_map(rng, shape=(512, 16)):
    power = rng.exponential(1.0, shape)
    return RangeDopplerMap(power, 0.3, 2.0)


class TestRangeDopplerMap:
    def test_replica_every_pulse_peaks_at_zero_zero(self):
        cp = tiny_chirp()
        replica = generate_chirp(cp)
        series = np.tile(replica[:, None], (1, cp.num_pulses))
        rd = range_doppler_map(series, replica, cp)
        assert rd.power.shape == (cp.pulse_samples, cp.num_pulses)
        r, v = np.unravel_index(np.argmax(rd.power), rd.power.shape)
        assert (r, v) == (0, rd.zero_velocity_bin)

    def test_pulse_phase_ramp_shifts_velocity_bins(self):
        cp = tiny_chirp()
        replica = generate_chirp(cp)
        q = 3
        ramp = np.exp(2j * np.pi * q * np.arange(cp.num_pulses) / cp.num_pulses)
        rd = range_doppler_map(replica[:, None] * ramp[None, :], replica, cp)
        r, v = np.unravel_index(np.argmax(rd.power), rd.power.shape)
        assert (r, v) == (0, rd.zero_velocity_bin + q)

    def test_simulated_target_lands_within_one_bin(self):
        geom = ArrayGeometry(1, 2, 10e9)
        cp = tiny_chirp(pulse_samples=1024, num_pulses=32)
        target = TargetSpec(position=(0.0, 80.0, 0.0), radial_velocity=20.0)
        sc = Scenario(targets=(target,), noise_power=0.0, seed=2)
        cube = synthesize_datacube(sc, geom, cp)
        rd = range_doppler_map(cube.samples[0], generate_chirp(cp), cp)
        r, v = np.unravel_index(np.argmax(rd.power), rd.power.shape)
        truth_r = target.delay_samples(cp)
        truth_v = rd.zero_velocity_bin + round(20.0 / cp.velocity_resolution)
        assert abs(r - truth_r) <= 1
        assert abs(v - truth_v) <= 1

    def test_closing_target_lands_above_center(self):
        geom = ArrayGeometry(1, 2, 10e9)
        cp = ChirpParams(pulse_samples=1024, num_pulses=32, pri=50e-6)
        sc = Scenario(
            targets=(TargetSpec(position=(0.0, 80.0, 0.0), radial_velocity=25.0),),
            noise_power=0.0,
            seed=2,
        )
        cube = synthesize_datacube(sc, geom, cp)
        rd = range_doppler_map(cube.samples[0], generate_chirp(cp), cp)
        _, v = np.unravel_index(np.argmax(rd.power), rd.power.shape)
        assert v > rd.zero_velocity_bin

    def test_dimension_checks(self):
        cp = tiny_chirp()
        with pytest.raises(ValueError):
            range_doppler_map(np.zeros(16), generate_chirp(cp), cp)
        with pytest.raises(ValueError):
            range_doppler_map(np.zeros((8, 4)), generate_chirp(cp), cp)


class TestExclusionStatistics:
    def test_median_matches_brute_force(self, rng):
        for n, guard in [(64, 4), (33, 2), (16, 0)]:
            col = rng.exponential(1.0, n)
            fast = cfar_noise_floor(col[:, None], guard)[:, 0]
            for i in range(n):
                keep = np.ones(n, dtype=bool)
                keep[max(0, i - guard) : i + guard + 1] = False
                assert fast[i] == pytest.approx(np.median(col[keep]), rel=1e-12)


class TestFloorMatchesColumnOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_full_size_exponential_map(self, seed):
        power = np.random.default_rng(seed).exponential(1.0, (4096, 64))
        assert np.array_equal(cfar_noise_floor(power, 4), reference_floor(power, 4))

    @pytest.mark.parametrize(
        "shape,guard",
        [
            (shape, guard)
            for shape in [(256, 8), (33, 5), (16, 2), (12, 3), (10, 3)]
            for guard in [0, 1, 2, 4, 6]
            if shape[0] > 2 * guard + 1
        ],
    )
    def test_small_maps_and_guards(self, rng, shape, guard):
        power = rng.exponential(1.0, shape)
        assert np.array_equal(cfar_noise_floor(power, guard), reference_floor(power, guard))

    def test_peaks_zeros_and_constant_columns(self, rng):
        power = rng.exponential(1.0, (512, 8))
        power[[10, 11, 200, 511], 1] = [1e6, 3e5, 4e4, 9e5]
        power[0:40, 2] = 0.0
        power[:, 3] = 0.0
        power[:, 4] = 2.5
        power[::2, 5] = 0.0
        assert np.array_equal(cfar_noise_floor(power, 4), reference_floor(power, 4))

    @pytest.mark.parametrize("levels", [2, 3, 8])
    def test_heavily_tied_maps(self, rng, levels):
        power = np.floor(rng.exponential(1.0, (1024, 16)) * levels / 4.0)
        for guard in (0, 3, 4):
            assert np.array_equal(
                cfar_noise_floor(power, guard), reference_floor(power, guard)
            )

    @pytest.mark.parametrize("guard", [0, 1, 4, 6])
    def test_rows_just_above_guard_band(self, rng, guard):
        power = rng.exponential(1.0, (2 * guard + 2, 5))
        assert np.array_equal(cfar_noise_floor(power, guard), reference_floor(power, guard))

    def test_column_call_matches_map_call(self, rng):
        power = rng.exponential(1.0, (100, 3))
        floor = cfar_noise_floor(power, 2)
        for col in range(3):
            column = cfar_noise_floor(power[:, col][:, None], 2)[:, 0]
            assert np.array_equal(column, floor[:, col])

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 60),
        cols=st.integers(1, 6),
        guard=st.integers(0, 8),
        levels=st.sampled_from([2, 5, 1000, 0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_delete_and_median(self, rows, cols, guard, levels, seed):
        rows = max(rows, 2 * guard + 2)
        power = np.random.default_rng(seed).exponential(1.0, (rows, cols))
        if levels:
            power = np.round(power * levels) / levels
        expected = brute_force_median_floor(power, guard)
        assert np.array_equal(cfar_noise_floor(power, guard), expected)


class TestDetectMatchesWholeMapOracle:
    """``cfar_detect`` computes the floor only where a detection can fire;
    it must return exactly what the whole-map floor would."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 80),
        cols=st.integers(1, 8),
        guard=st.integers(0, 8),
        threshold_db=st.floats(-5.0, 20.0),
        levels=st.sampled_from([0, 1, 2, 5]),
        zero_run=st.none() | st.tuples(st.integers(0, 79), st.integers(1, 80), st.integers(0, 7)),
        just_above_guard_band=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_floor(
        self, rows, cols, guard, threshold_db, levels, zero_run, just_above_guard_band, seed
    ):
        rows = 2 * guard + 2 if just_above_guard_band else max(rows, 2 * guard + 2)
        power = np.random.default_rng(seed).exponential(1.0, (rows, cols))
        if levels:
            # few distinct values: heavy ties, and zeros where a value rounds down
            power = np.floor(power * levels) / levels
        if zero_run is not None:
            start, length, col = zero_run
            power[start : start + length, col % cols] = 0.0
        expected = oracle_detect(power, brute_force_median_floor(power, guard), threshold_db)
        assert cfar_detect(RangeDopplerMap(power, 0.3, 2.0), threshold_db, guard) == expected

    def test_full_size_map_with_planted_peaks(self):
        rng = np.random.default_rng(11)
        power = rng.exponential(1.0, (4096, 64))
        rows, cols = rng.integers(0, 4096, 60), rng.integers(0, 64, 60)
        power[rows, cols] = 10.0 ** rng.uniform(0.5, 4.0, 60)
        power[1000:1003, 5] = 500.0  # a tied plateau: three equal local maxima
        floor = reference_floor(power, 4)
        for threshold_db in (-3.0, 3.0, 10.0, 20.0):
            expected = oracle_detect(power, floor, threshold_db)
            assert cfar_detect(RangeDopplerMap(power, 0.3, 2.0), threshold_db) == expected


class TestFloorInputContract:
    def test_negative_guard_rejected(self, rng):
        with pytest.raises(ValueError, match="guard_cells"):
            cfar_noise_floor(rng.exponential(1.0, (64, 4)), -1)

    @pytest.mark.parametrize("rows,guard", [(9, 4), (8, 4), (1, 0), (3, 1)])
    def test_guard_band_must_leave_reference_cells(self, rng, rows, guard):
        with pytest.raises(ValueError, match="guard_cells"):
            cfar_noise_floor(rng.exponential(1.0, (rows, 4)), guard)

    def test_short_map_is_not_detected_against_a_zero_floor(self, rng):
        rd = RangeDopplerMap(rng.exponential(1.0, (9, 4)), 0.3, 2.0)
        with pytest.raises(ValueError, match="guard_cells"):
            cfar_detect(rd, guard_cells=4)

    @pytest.mark.parametrize("threshold_db", [float("nan"), float("inf"), -float("inf")])
    def test_threshold_must_be_finite(self, rng, threshold_db):
        # nan and +inf fired nowhere, -inf at every positive local maximum
        rd = RangeDopplerMap(rng.exponential(1.0, (64, 8)), 0.3, 2.0)
        match = f"^cfar_threshold_db: {threshold_db!r} is not a finite number"
        with pytest.raises(ValueError, match=match):
            cfar_detect(rd, threshold_db, guard_cells=2)

    def test_map_must_be_two_dimensional(self, rng):
        with pytest.raises(ValueError, match="power map"):
            cfar_noise_floor(rng.exponential(1.0, 64), 2)


class TestCfarDetect:
    def test_constant_map_yields_nothing(self):
        rd = RangeDopplerMap(np.full((128, 8), 3.7), 0.3, 2.0)
        assert cfar_detect(rd) == []

    def test_single_std_spike_detected_exactly_once(self):
        power = np.full((128, 8), 2.0)
        power[40, 3] = 200.0  # 20 dB over the flat floor
        rd = RangeDopplerMap(power, 0.3, 2.0)
        dets = cfar_detect(rd)
        assert dets == [Detection(40, 3, pytest.approx(20.0))]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 200),
        cols=st.integers(1, 8),
        guard=st.integers(0, 6),
        exponent=st.integers(-30, 30),
        threshold_db=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scale_invariance(self, rows, cols, guard, exponent, threshold_db, seed):
        # a power-of-two scale is exact in floating point, so the floor, the
        # threshold test and the dB margins see the same mantissas
        rows = max(rows, 2 * guard + 2)
        power = np.random.default_rng(seed).exponential(1.0, (rows, cols))
        base = cfar_detect(RangeDopplerMap(power, 0.3, 2.0), threshold_db, guard)
        scaled = cfar_detect(
            RangeDopplerMap(np.ldexp(power, exponent), 0.3, 2.0), threshold_db, guard
        )
        assert scaled == base

    def test_noiseless_single_target_peak_is_sole_detection(self):
        cp = tiny_chirp(pulse_samples=1024, num_pulses=32)
        geom = ArrayGeometry(1, 2, 10e9)
        sc = Scenario(
            targets=(TargetSpec(position=(0.0, 60.0, 0.0), radial_velocity=10.0),),
            noise_power=1e-6,
            seed=4,
        )
        cube = synthesize_datacube(sc, geom, cp)
        rd = range_doppler_map(cube.samples[0], generate_chirp(cp), cp)
        dets = cfar_detect(rd)
        peak = np.unravel_index(np.argmax(rd.power), rd.power.shape)
        best = max(dets, key=lambda d: d.power_db_over_floor)
        assert (best.range_bin, best.velocity_bin) == peak

    def test_false_alarm_rate_matches_exponential_law(self, rng):
        # P(X >= 10 * median) = 2^-10 for exponential power; binomial 3-sigma
        rd = noise_map(rng, (2048, 16))
        dets = cfar_detect(rd, threshold_db=10.0)
        n_cells = rd.power.size
        p = 2.0 ** (-10.0)
        expected = n_cells * p
        sigma = np.sqrt(n_cells * p * (1 - p))
        assert abs(len(dets) - expected) <= 3 * sigma

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            cfar_detect(RangeDopplerMap(np.zeros((0, 0)), 0.3, 2.0))

    def test_all_zero_map_yields_nothing(self):
        rd = RangeDopplerMap(np.zeros((64, 4)), 0.3, 2.0)
        assert cfar_detect(rd) == []


class TestScoreDetections:
    def test_exact_hit_zero_error(self):
        rd = RangeDopplerMap(np.ones((64, 8)), 0.3, 2.0)
        dets = [Detection(10, 4, 15.0)]
        score = score_detections(dets, 10, 4, rd, target_id=3)
        assert score.detected and score.target_id == 3
        assert score.range_error == 0.0 and score.velocity_error == 0.0

    def test_no_detections_is_a_miss_with_inf(self):
        rd = RangeDopplerMap(np.ones((64, 8)), 0.3, 2.0)
        score = score_detections([], 10, 4, rd)
        assert not score.detected
        assert score.range_error == float("inf")
        assert score.velocity_error == float("inf")

    def test_two_bins_off(self):
        rd = RangeDopplerMap(np.ones((64, 8)), 0.3, 2.0)
        score = score_detections([Detection(12, 4, 11.0)], 10, 4, rd)
        assert score.range_error == pytest.approx(2 * 0.3)
        assert score.velocity_error == 0.0
        assert score.range_error_bins == 2

    def test_gating_excludes_far_detections(self):
        rd = RangeDopplerMap(np.ones((64, 8)), 0.3, 2.0)
        score = score_detections([Detection(30, 4, 30.0)], 10, 4, rd)
        assert not score.detected

    def test_nearest_detection_wins(self):
        rd = RangeDopplerMap(np.ones((64, 8)), 0.3, 2.0)
        dets = [Detection(13, 4, 40.0), Detection(11, 4, 12.0)]
        score = score_detections(dets, 10, 4, rd)
        assert score.range_error_bins == 1

    def test_velocity_gate_wraps(self):
        # the slow-time DFT is circular: column 15 of 16 is one bin from column 0
        rd = RangeDopplerMap(np.ones((64, 16)), 0.3, 2.0)
        score = score_detections([Detection(10, 15, 9.0)], 10, 0, rd)
        assert score.detected
        assert score.velocity_error_bins == 1 and score.velocity_error == 2.0
        assert score.range_error_bins == 0

    @pytest.mark.parametrize("truth, found", [(1, 62), (62, 1)])
    def test_range_gate_wraps(self, truth, found):
        # the matched filter is circular: range bins 62 and 1 of 64 are 3 apart
        rd = RangeDopplerMap(np.ones((64, 16)), 0.3, 2.0)
        score = score_detections([Detection(found, 8, 9.0)], truth, 8, rd)
        assert score.detected
        assert score.range_error_bins == 3
        assert score.range_error == pytest.approx(3 * 0.3)

    def test_wrapped_gate_keeps_its_width(self):
        rd = RangeDopplerMap(np.ones((64, 16)), 0.3, 2.0)
        assert not score_detections([Detection(10, 12, 9.0)], 10, 0, rd).detected  # 4 bins
        assert not score_detections([Detection(58, 0, 9.0)], 0, 0, rd).detected  # 6 bins


def test_report_writer(tmp_path):
    path = tmp_path / "report.csv"
    write_detection_report(
        path,
        [
            {
                "scenario": "A1",
                "target_id": 0,
                "method": "beamspace-mvdr",
                "w_z": 2,
                "w_x": 4,
                "m_z": 4,
                "m_x": 32,
                "detected": 1,
                "range_error_m": "0.000000",
                "velocity_error_mps": "0.000000",
            }
        ],
    )
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[0] == "scenario"
    assert len(lines) == 3
