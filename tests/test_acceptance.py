"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figure when it holds.

Run with ``pytest tests/test_acceptance.py -v -s``.  The full-array cases
deliberately use the production scene presets and default radio
parameters, so this module is slower than the unit tests (a few minutes).
"""

import time

import numpy as np
import pytest

from bsradar import (
    ArrayGeometry,
    BeamspacePlan,
    ChirpParams,
    Direction,
    InterfererSpec,
    PipelineConfig,
    RangeDopplerMap,
    Scenario,
    TargetSpec,
    beam_pattern,
    beamspace_transform,
    cfar_detect,
    channelize,
    estimate_covariance,
    lift_correlator,
    mvdr_correlator,
    process_cube,
    run_pipeline,
    scenario_preset,
    synthesize,
    synthesize_datacube,
)
from bsradar.pipeline import (
    METHOD_ANTENNA,
    METHOD_BEAMSPACE,
    METHOD_CONVENTIONAL,
)

from conftest import random_complex


def announce(line: str) -> None:
    print(f"\n{line}")


@pytest.fixture(scope="module")
def default_config():
    return PipelineConfig(scenario=scenario_preset("A1"))


@pytest.fixture(scope="module")
def a1_scene(default_config):
    scenario = scenario_preset("A1")
    cube = synthesize_datacube(scenario, default_config.geometry, default_config.chirp)
    return scenario, cube


@pytest.fixture(scope="module")
def e2_scene(default_config):
    scenario = scenario_preset("E2")
    cube = synthesize_datacube(scenario, default_config.geometry, default_config.chirp)
    return scenario, cube


def test_ac01_windowed_beamspace_equals_antenna_mvdr(a1_scene):
    """Full-window beamspace MVDR reproduces antenna-space MVDR output
    series to 1e-8 relative for every (target, subband) pair."""
    scenario, cube = a1_scene
    t0 = time.perf_counter()
    base = dict(scenario=scenario, loading=0.0, train_pulses=8, subbands=128)
    res_a = process_cube(
        cube, scenario, PipelineConfig(method=METHOD_ANTENNA, **base)
    )
    res_b = process_cube(
        cube,
        scenario,
        PipelineConfig(
            method=METHOD_BEAMSPACE, fft_size=(4, 32), window=(4, 32), **base
        ),
    )
    elapsed = time.perf_counter() - t0

    za = res_a.subband_outputs.reshape(20, 128, -1)
    zb = res_b.subband_outputs.reshape(20, 128, -1)
    rel = np.linalg.norm(zb - za, axis=2) / np.linalg.norm(za, axis=2)
    assert rel.shape == (20, 128)
    assert rel.max() < 1e-8
    announce(
        f"AC-1 PASS: max relative output error {rel.max():.2e} over 20x128 "
        f"pairs in {elapsed:.0f} s"
    )


def test_ac02_fft_transform_matches_dense_matrix(geom, rng):
    """FFT beamspace transform equals the explicit Kronecker DFT product."""
    worst = 0.0
    for m_z, m_x in [(4, 32), (8, 64), (16, 128)]:
        plan = BeamspacePlan(m_z, m_x, geom.n_z, geom.n_x)
        d_v = np.exp(
            -2j * np.pi * np.outer(np.arange(m_z), np.arange(geom.n_z)) / m_z
        ) / np.sqrt(m_z)
        d_h_t = np.exp(
            -2j * np.pi * np.outer(np.arange(m_x), np.arange(geom.n_x)) / m_x
        ) / np.sqrt(m_x)
        dense = np.kron(d_h_t, d_v)
        snaps = random_complex(rng, (geom.n, 1000))
        err = np.max(np.abs(beamspace_transform(snaps, plan) - dense @ snaps))
        worst = max(worst, err)
        assert err < 1e-10
    announce(f"AC-2 PASS: dense-matrix oracle max abs error {worst:.2e}")


def test_ac03_noninterferer_all_targets_detected(default_config):
    """Both adaptive methods find all 20 clean-scene targets within one cell."""
    t0 = time.perf_counter()
    scenario = scenario_preset("noninterferer")
    cube = synthesize_datacube(scenario, default_config.geometry, default_config.chirp)
    counts = {}
    for method, window in [(METHOD_ANTENNA, None), (METHOD_BEAMSPACE, (2, 4))]:
        cfg = PipelineConfig(
            scenario=scenario, method=method, window=window or (2, 4)
        )
        result = process_cube(cube, scenario, cfg)
        counts[method] = result.detection_count
        assert result.detection_count == 20
        for score in result.scores:
            assert score.range_error_bins <= 1
            assert score.velocity_error_bins <= 1
    elapsed = time.perf_counter() - t0
    announce(
        f"AC-3 PASS: antenna {counts[METHOD_ANTENNA]}/20 and beamspace "
        f"{counts[METHOD_BEAMSPACE]}/20 within one cell in {elapsed:.0f} s"
    )


def test_ac04_window_size_ordering_in_dense_interference(e2_scene):
    """Dense-interference scene: 4x4 strictly beats 2x4, 4x8 at least ties 4x4,
    and the non-adaptive beamformer trails the adaptive windowed one."""
    scenario, cube = e2_scene
    counts = {}
    for window in [(2, 4), (4, 4), (4, 8)]:
        cfg = PipelineConfig(scenario=scenario, method=METHOD_BEAMSPACE, window=window)
        counts[window] = process_cube(cube, scenario, cfg).detection_count
    conventional = process_cube(
        cube, scenario, PipelineConfig(scenario=scenario, method=METHOD_CONVENTIONAL)
    ).detection_count

    assert counts[(4, 4)] > counts[(2, 4)]
    assert counts[(4, 8)] >= counts[(4, 4)]
    assert conventional < counts[(4, 4)]
    announce(
        f"AC-4 PASS: detections 2x4={counts[(2, 4)]} < 4x4={counts[(4, 4)]} "
        f"<= 4x8={counts[(4, 8)]} (conventional {conventional})"
    )


def test_ac05_zero_padding_does_not_change_easy_scene_status(a1_scene):
    """Doubling the beam grid leaves every A1 target's detected flag alone."""
    scenario, cube = a1_scene
    status = {}
    errors = {}
    for plan in [(4, 32), (8, 64)]:
        cfg = PipelineConfig(
            scenario=scenario, method=METHOD_BEAMSPACE, fft_size=plan, window=(2, 4)
        )
        result = process_cube(cube, scenario, cfg)
        status[plan] = [score.detected for score in result.scores]
        errors[plan] = [
            (score.range_error_bins, score.velocity_error_bins)
            for score in result.scores
        ]
    assert status[(4, 32)] == status[(8, 64)]
    for (r_a, v_a), (r_b, v_b) in zip(errors[(4, 32)], errors[(8, 64)]):
        assert abs(r_a - r_b) <= 1 and abs(v_a - v_b) <= 1
    announce(
        f"AC-5 PASS: detected/missed status identical across FFT plans "
        f"({sum(status[(4, 32)])}/20 detected on both, errors within one cell)"
    )


def _complexity_scene(geom, chirp, n_targets=4, seed=31):
    rng = np.random.default_rng(seed)
    targets = []
    for k in range(n_targets):
        az = np.deg2rad(rng.uniform(-30, 30))
        rng_m = 30.0 + 25.0 * k
        targets.append(
            TargetSpec(
                position=(rng_m * np.sin(az), rng_m * np.cos(az), 0.0),
                radial_velocity=float(rng.uniform(-30, 30)),
            )
        )
    return Scenario(targets=tuple(targets), noise_power=1.0, seed=seed, label="bench")


def test_ac06_complexity_scaling():
    """Instrumented tallies: reduced training beats full training by > 50x at
    N=128, and doubling the array grows the beamspace per-snapshot cost by
    < 2.5x while full-dimension training grows by >= 6x."""
    chirp_small = ChirpParams(pulse_samples=512, num_pulses=8, pri=2e-6)

    def reports(n_z, n_x, train_pulses):
        geom = ArrayGeometry(n_z, n_x, 10e9)
        scenario = _complexity_scene(geom, chirp_small)
        out = {}
        for method in (METHOD_ANTENNA, METHOD_BEAMSPACE):
            cfg = PipelineConfig(
                scenario=scenario,
                geometry=geom,
                chirp=chirp_small,
                method=method,
                subbands=8,
                window=(2, 4),
                train_pulses=train_pulses,
            )
            out[method] = run_pipeline(cfg).complexity
        return out

    # n_t = 2N in both runs: 4 pulses x 64 snapshots = 256, then 8 x 64 = 512
    small = reports(4, 32, train_pulses=4)
    big = reports(8, 32, train_pulses=8)
    assert small[METHOD_ANTENNA].n_train_snapshots == 256
    assert big[METHOD_ANTENNA].n_train_snapshots == 512

    ratio_train = (
        small[METHOD_ANTENNA].training_mults_per_pair
        / small[METHOD_BEAMSPACE].training_mults_per_pair
    )
    assert ratio_train > 50.0

    antenna_growth = (
        big[METHOD_ANTENNA].training_mults_per_pair
        / small[METHOD_ANTENNA].training_mults_per_pair
    )
    beamspace_growth = (
        big[METHOD_BEAMSPACE].application_mults_per_snapshot
        / small[METHOD_BEAMSPACE].application_mults_per_snapshot
    )
    assert antenna_growth >= 6.0
    assert beamspace_growth < 2.5
    announce(
        f"AC-6 PASS: training ratio {ratio_train:.0f}x at N=128/W=8; doubling N "
        f"grows antenna training {antenna_growth:.1f}x vs beamspace "
        f"per-snapshot {beamspace_growth:.2f}x"
    )


def test_ac07_closed_form_beats_random_feasible_weights(rng):
    """No random unit-gain weight vector undercuts the closed-form output
    power, 1e5 trials per dimension."""
    trials = 100_000
    for dim in (2, 3, 4):
        snaps = random_complex(rng, (dim, 64))
        cov = estimate_covariance(snaps, 1e-2)
        steering = random_complex(rng, dim)
        corr = mvdr_correlator(cov, steering)
        closed_form = np.real(np.vdot(corr.weights, cov.matrix @ corr.weights))

        basis, _ = np.linalg.qr(
            np.column_stack([steering, random_complex(rng, (dim, dim - 1))])
        )
        candidates = steering[:, None] / np.vdot(steering, steering) + basis[:, 1:] @ (
            random_complex(rng, (dim - 1, trials))
        )
        powers = np.real(
            np.einsum("in,ij,jn->n", candidates.conj(), cov.matrix, candidates)
        )
        gains = np.abs(candidates.conj().T @ steering - 1.0)
        assert gains.max() < 1e-9  # every candidate satisfies the constraint
        assert closed_form <= powers.min() + 1e-10
    announce(
        f"AC-7 PASS: closed form minimal against {trials} random feasible "
        "weights in dims 2-4"
    )


def test_ac08_channelizer_perfect_reconstruction(rng):
    """synthesize(channelize(x, 128)) returns x to 1e-12 for 100 random cubes."""
    geom = ArrayGeometry(2, 2, 10e9)
    chirp = ChirpParams(pulse_samples=256, num_pulses=2, pri=2e-6)
    worst = 0.0
    for _ in range(100):
        cube_data = random_complex(rng, (4, 256, 2))
        from bsradar import DataCube

        cube = DataCube(cube_data, geom, chirp)
        back = synthesize(channelize(cube, 128))
        worst = max(
            worst, np.max(np.abs(back - cube_data)) / np.max(np.abs(cube_data))
        )
    assert worst < 1e-12
    announce(f"AC-8 PASS: perfect reconstruction, worst relative error {worst:.2e}")


def test_ac09_cfar_false_alarm_calibration(rng):
    """Empirical false-alarm count on exponential noise stays within 3-sigma
    binomial bounds of the analytic 2^-10 rate for the 10 dB median rule."""
    power = rng.exponential(1.0, (4096, 64))
    rd = RangeDopplerMap(power, 0.3, 2.0)
    detections = cfar_detect(rd, threshold_db=10.0)
    p = 2.0 ** (-10.0)
    expected = power.size * p
    sigma = np.sqrt(power.size * p * (1 - p))
    deviation = abs(len(detections) - expected)
    assert deviation <= 3 * sigma
    announce(
        f"AC-9 PASS: {len(detections)} false alarms vs expected "
        f"{expected:.0f} +/- {3 * sigma:.0f}"
    )


def test_ac10_lifted_beamspace_null_on_interferer(default_config):
    """Two-source scene: the lifted windowed-MVDR pattern at the interferer
    direction is at most a tenth of its target-direction value."""
    target_el, interferer_el = 12.0, 22.0
    target = TargetSpec(
        position=(
            0.0,
            500.0,
            500.0 * np.tan(np.deg2rad(target_el)),
        ),
        radial_velocity=20.0,
    )
    interferer = InterfererSpec(
        direction=Direction.from_degrees(0.0, interferer_el),
        power=1000.0,  # 30 dB over the noise floor
        waveform_kind="wideband-noise",
        bandwidth_fraction=0.8,
    )
    scenario = Scenario(
        targets=(target,), interferers=(interferer,), noise_power=1.0,
        seed=77, label="two-source",
    )
    cfg = PipelineConfig(scenario=scenario, method=METHOD_BEAMSPACE, window=(4, 8))
    cube = synthesize_datacube(scenario, cfg.geometry, cfg.chirp)
    result = process_cube(cube, scenario, cfg)

    lifted = lift_correlator(result.center_correlators[0])
    pattern = beam_pattern(
        lifted,
        np.deg2rad([0.0]),
        np.deg2rad([target_el, interferer_el]),
        cfg.geometry,
        cfg.chirp.carrier_freq,
    )
    ratio = pattern[1, 0] / pattern[0, 0]
    assert ratio <= 0.1
    announce(
        f"AC-10 PASS: interferer/target pattern ratio {ratio:.4f} "
        f"(gain {pattern[0, 0]:.3f} vs {pattern[1, 0]:.5f})"
    )
