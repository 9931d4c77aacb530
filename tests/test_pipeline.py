import csv
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.blas import zgemm

from bsradar import (
    ArrayGeometry,
    ChirpParams,
    DataCube,
    Direction,
    InterfererSpec,
    PipelineConfig,
    RangeDopplerMap,
    Scenario,
    TargetSpec,
    apply_correlator,
    beamspace_transform,
    bin_center_frequencies,
    cfar_detect,
    channelize,
    conventional_correlator,
    estimate_covariance,
    extract_window,
    mvdr_correlator,
    process_cube,
    run_pipeline,
    scenario_preset,
    spatial_frequencies,
    steering_matrix,
    sweep,
    synthesize_datacube,
    window_center,
    window_for,
    windowed_steering,
)
from bsradar import mvdr, pipeline
from bsradar.channelizer import channelize_into
from bsradar.cli import _write_beam_pattern
from bsradar.cubeio import load_map, save_map
from bsradar.counters import (
    beamspace_fft_mults,
    channelize_mults,
    matvec_mults,
    mvdr_solve_mults,
    outer_product_mults,
    range_doppler_mults,
    synthesize_mults,
)
from bsradar.pipeline import (
    METHOD_ANTENNA,
    METHOD_BEAMSPACE,
    METHOD_CONVENTIONAL,
    METHODS,
    ComplexityReport,
    StageError,
    write_reports,
)

REPORT_HEADER = (
    b"# bsradar detection report v1\n"
    b"scenario,target_id,method,w_z,w_x,m_z,m_x,detected,range_error_m,"
    b"velocity_error_mps\r\n"
)
SWEEP_HEADER = (
    b"# bsradar sweep report v2\n"
    b"scenario,target_id,method,w_z,w_x,m_z,m_x,detected,range_error_m,"
    b"velocity_error_mps,point,status\r\n"
)


def tiny_setup(n_targets=3, noise_power=1e-2, num_pulses=16, seed=5):
    geom = ArrayGeometry(2, 8, 10e9)
    chirp = ChirpParams(
        pulse_samples=256, num_pulses=num_pulses, pri=2e-6, bandwidth=400e6
    )
    rng = np.random.default_rng(seed)
    targets = []
    ranges = np.linspace(20.0, 60.0, n_targets)
    vels = np.linspace(-30.0, 40.0, n_targets)
    for k in range(n_targets):
        az = np.deg2rad(rng.uniform(-30, 30))
        el = np.deg2rad(rng.uniform(-10, 10))
        pos = (
            ranges[k] * np.cos(el) * np.sin(az),
            ranges[k] * np.cos(el) * np.cos(az),
            ranges[k] * np.sin(el),
        )
        targets.append(TargetSpec(pos, float(vels[k]), np.exp(2j * np.pi * rng.random())))
    scenario = Scenario(
        targets=tuple(targets), noise_power=noise_power, seed=seed, label="tiny"
    )
    return geom, chirp, scenario


def oracle_setup():
    """Four targets: one at boresight (its windows wrap at the grid origin)
    and two along one direction (they share a window, hence one product)."""
    geom = ArrayGeometry(2, 8, 10e9)
    chirp = ChirpParams(pulse_samples=256, num_pulses=16, pri=2e-6, bandwidth=400e6)
    shared = np.array([np.sin(0.35), np.cos(0.35), 0.08])
    positions = [
        (0.0, 25.0, 0.0),
        tuple(30.0 * shared),
        tuple(55.0 * shared),
        (-20.0, 40.0, -3.0),
    ]
    targets = tuple(
        TargetSpec(pos, vel, np.exp(1j * phase))
        for pos, vel, phase in zip(positions, (-30.0, 10.0, 25.0, 40.0), (0.3, 1.1, 2.0, 4.0))
    )
    scenario = Scenario(targets=targets, noise_power=1.0, seed=11, label="oracle")
    return geom, chirp, scenario


def reference_beamform(
    bins, sub, scenario, cfg, plan, freqs, outputs, correlator_slots, center_bin
):
    """The per-(target, subband) loop the pipeline ran before it had one path
    for all methods: two method branches, one product per beamspace target.
    Returns its tallies, each call's closed form added where it is made."""
    mults = Counter()
    geom, chirp = cfg.geometry, cfg.chirp
    n_ant = geom.n
    s_per_pulse = sub.shape[2]
    n_pulses = chirp.num_pulses
    # the training snapshots' columns in the (S*P)-wide snapshot matrix
    s_idx = np.arange(s_per_pulse)[:, None] * n_pulses
    train_cols = (s_idx + np.arange(cfg.train_pulses)[None, :]).ravel()
    w_z, w_x = cfg.window
    n_targets = len(scenario.targets)
    transform_mults = beamspace_fft_mults(plan.n_x, plan.m_z, plan.m_x)

    for b in bins:
        snap = sub[:, b, :, :].reshape(n_ant, s_per_pulse * n_pulses)
        omegas = [spatial_frequencies(t.direction, freqs[b], geom) for t in scenario.targets]
        steer = steering_matrix(*np.transpose(omegas), geom)

        if cfg.method == METHOD_BEAMSPACE:
            beams = beamspace_transform(snap, plan)
            mults["beamspace_fft"] += snap.shape[1] * transform_mults
            for k in range(n_targets):
                win = window_for(omegas[k], plan, w_z, w_x)
                reduced = extract_window(beams, win)
                a_win = windowed_steering(steer[:, k], win)
                mults["windowed_steering"] += transform_mults
                cov = estimate_covariance(reduced[:, train_cols], cfg.loading)
                mults["covariance"] += outer_product_mults(cov.dim, cov.n_t)
                corr = mvdr_correlator(cov, a_win, win)
                mults["solve"] += mvdr_solve_mults(cov.dim)
                outputs[k, b] = apply_correlator(corr, reduced).reshape(
                    s_per_pulse, n_pulses
                )
                mults["apply"] += matvec_mults(corr.dim, reduced.shape[1])
                if b == center_bin:
                    correlator_slots[k][0] = corr
                    correlator_slots[k][1] = win
        else:
            train = snap[:, train_cols]
            weights = np.empty((n_targets, n_ant), dtype=complex)
            for k in range(n_targets):
                if cfg.method == METHOD_ANTENNA:
                    cov = estimate_covariance(train, cfg.loading)
                    mults["covariance"] += outer_product_mults(cov.dim, cov.n_t)
                    corr = mvdr_correlator(cov, steer[:, k])
                    mults["solve"] += mvdr_solve_mults(cov.dim)
                else:
                    corr = conventional_correlator(steer[:, k])
                weights[k] = corr.weights
                if b == center_bin:
                    correlator_slots[k][0] = corr
                    correlator_slots[k][1] = None
            out = zgemm(1.0, np.conj(weights), snap)
            mults["apply"] += n_targets * matvec_mults(n_ant, snap.shape[1])
            outputs[:, b] = out.reshape(n_targets, s_per_pulse, n_pulses)
    return mults


def tiny_config(geom, chirp, scenario, **kw):
    defaults = dict(
        scenario=scenario,
        geometry=geom,
        chirp=chirp,
        subbands=16,
        window=(2, 4),
        train_pulses=8,
        method=METHOD_BEAMSPACE,
    )
    defaults.update(kw)
    return PipelineConfig(**defaults)


A1 = scenario_preset("A1")


def assert_within_roundoff(got, want):
    """The bound beamspace's lifted weights keep: max|got - want| <= 1e-12 max|want|."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


class TestConfigValidation:
    def test_requires_scene(self):
        for scenario in (None, "A1"):
            with pytest.raises(ValueError, match="^scenario: expected a Scenario"):
                PipelineConfig(scenario=scenario).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("window", 5),
            ("window", (2.0, 4)),
            ("fft_size", (4,)),
            ("window", (np.int64(2), 4)),
            ("window", (2, np.int64(4))),
            ("fft_size", (np.int64(4), 32)),
            ("fft_size", (4, np.int64(32))),
        ],
    )
    def test_pairs_must_be_int_pairs(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: .* is not a pair of ints"):
            PipelineConfig(scenario=A1, **{field: value}).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("subbands", 16.0),
            ("train_pulses", True),
            ("cfar_guard_cells", 4.0),
            ("subbands", np.int64(128)),
            ("train_pulses", np.int64(8)),
            ("cfar_guard_cells", np.int64(4)),
        ],
    )
    def test_counts_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: .* is not an int"):
            PipelineConfig(scenario=A1, **{field: value}).validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("loading", float("nan")),
            ("loading", float("inf")),
            ("loading", True),
            ("loading", "1e-3"),
            ("cfar_threshold_db", float("nan")),
            ("cfar_threshold_db", -float("inf")),
            ("cfar_threshold_db", False),
            ("cfar_threshold_db", "10"),
        ],
    )
    def test_floats_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: .* is not a finite number"):
            PipelineConfig(scenario=A1, **{field: value}).validate()

    @pytest.mark.parametrize("field", ["loading", "cfar_threshold_db"])
    @pytest.mark.parametrize("value", [0, np.float64(0.5)])
    def test_ints_and_numpy_floats_accepted(self, field, value):
        PipelineConfig(scenario=A1, **{field: value}).validate()

    def test_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            PipelineConfig(scenario=A1, method="magic").validate()

    def test_subbands_must_divide(self):
        with pytest.raises(ValueError, match="subbands"):
            PipelineConfig(scenario=A1, subbands=100).validate()

    @pytest.mark.parametrize("subbands", [0, -2])
    def test_subbands_must_be_positive(self, subbands):
        with pytest.raises(ValueError, match="subbands: .* must be >= 1"):
            PipelineConfig(scenario=A1, subbands=subbands).validate()

    @pytest.mark.parametrize("guard", [-1, -4])
    def test_negative_cfar_guard_rejected(self, guard):
        with pytest.raises(ValueError, match="cfar_guard_cells: .* must be >= 0"):
            PipelineConfig(scenario=A1, cfar_guard_cells=guard).validate()

    def test_cfar_guard_band_must_fit_pulse(self):
        chirp = ChirpParams(pulse_samples=64, num_pulses=16, pri=1e-6)
        with pytest.raises(ValueError, match="cfar_guard_cells: .* pulse_samples 64"):
            PipelineConfig(
                scenario=A1, chirp=chirp, subbands=8, cfar_guard_cells=32
            ).validate()
        PipelineConfig(scenario=A1, chirp=chirp, subbands=8, cfar_guard_cells=31).validate()

    def test_window_must_fit_grid(self):
        with pytest.raises(ValueError, match="window"):
            PipelineConfig(scenario=A1, window=(8, 4)).validate()

    def test_train_pulses_bounds(self):
        with pytest.raises(ValueError, match="train_pulses"):
            PipelineConfig(scenario=A1, train_pulses=1000).validate()

    def test_fft_must_cover_array(self):
        with pytest.raises(ValueError, match="^fft_size: "):
            PipelineConfig(scenario=A1, fft_size=(2, 32)).validate()

    @pytest.mark.parametrize(
        "kw,match",
        [
            (
                dict(subbands=3, chirp=ChirpParams(pulse_samples=96, num_pulses=16, pri=1e-6)),
                r"^subbands: 3 must be even \(or 1\)",
            ),
            (dict(loading=-1e-3), "^loading: must be >= 0"),
        ],
        ids=["odd-subbands", "negative-loading"],
    )
    def test_input_checks(self, kw, match):
        with pytest.raises(ValueError, match=match):
            PipelineConfig(scenario=A1, **kw).validate()

    # each kernel on the bad value, with pulses of n samples
    KERNELS = {
        "subbands": lambda value, n: channelize_into(
            np.zeros((1, n, 1), complex), value, np.zeros((1, n, 1), complex)
        ),
        "cfar_guard_cells": lambda value, n: cfar_detect(
            RangeDopplerMap(np.ones((n, 4)), 1.0, 1.0), guard_cells=value
        ),
        "loading": lambda value, n: estimate_covariance(np.ones((2, 4), complex), value),
    }

    @pytest.mark.parametrize(
        "field,value,pulse_samples",
        [
            ("subbands", 0, 4096),
            ("subbands", 3, 96),
            ("subbands", 100, 4096),
            ("subbands", 2.0, 4096),
            ("cfar_guard_cells", -1, 4096),
            ("cfar_guard_cells", 32, 64),
            ("cfar_guard_cells", 2.0, 4096),
            ("loading", -1e-3, 4096),
        ],
    )
    def test_run_and_kernel_reject_alike(self, field, value, pulse_samples):
        chirp = ChirpParams(pulse_samples=pulse_samples, num_pulses=16, pri=1e-4)
        cfg = PipelineConfig(scenario=A1, chirp=chirp, **{"subbands": 8, field: value})
        with pytest.raises(ValueError, match=f"^{field}: ") as run:
            cfg.validate()
        with pytest.raises(ValueError) as kernel:
            self.KERNELS[field](value, pulse_samples)
        assert str(kernel.value) == str(run.value)

    def test_each_run_validates_once(self, monkeypatch):
        geom, chirp, scenario = tiny_setup(n_targets=1)
        cfg = tiny_config(geom, chirp, scenario)
        cube = synthesize_datacube(scenario, geom, chirp)
        calls = []

        def counting(self, real=PipelineConfig.validate):
            calls.append(self)
            real(self)

        monkeypatch.setattr(PipelineConfig, "validate", counting)
        runs = [
            (lambda: run_pipeline(cfg), 1),
            (lambda: process_cube(cube, scenario, cfg), 1),
            (lambda: sweep(cfg, "window", [(1, 2), (2, 4)]), 2),
            (lambda: sweep(cfg, "fft_size", [(2, 8), (4, 16)]), 2),
            (lambda: sweep(cfg, "loading", [1e-3, 1e-4, 0.0]), 3),
            (lambda: sweep(replace(cfg, scenario=None), "scenario", [scenario] * 2), 2),
        ]
        for run, validations in runs:
            calls.clear()
            run()
            assert len(calls) == validations


class TestCubeContract:
    def test_cube_geometry_must_match_config(self):
        _, chirp, scenario = tiny_setup(n_targets=1)
        cube = synthesize_datacube(scenario, ArrayGeometry(4, 2, 10e9), chirp)
        cfg = tiny_config(ArrayGeometry(2, 4, 10e9), chirp, scenario)
        with pytest.raises(ValueError, match="^geometry: "):
            process_cube(cube, scenario, cfg)

    def test_cube_chirp_must_match_config(self):
        geom, chirp, scenario = tiny_setup(n_targets=1)
        cube = synthesize_datacube(scenario, geom, chirp)
        longer = ChirpParams(pulse_samples=512, num_pulses=16, pri=2e-6, bandwidth=400e6)
        cfg = tiny_config(geom, longer, scenario)
        with pytest.raises(ValueError, match="^chirp: "):
            process_cube(cube, scenario, cfg)


class TestScenarioContract:
    def test_contradicting_scenario_rejected(self):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        other = tiny_setup(n_targets=2, seed=6)[2]
        cube = synthesize_datacube(other, geom, chirp)
        cfg = tiny_config(geom, chirp, scenario)
        with pytest.raises(ValueError, match="^scenario: "):
            process_cube(cube, other, cfg)

    def test_preset_must_name_the_scenario(self):
        geom, chirp, _ = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario_preset("A1", seed=3))
        cube = synthesize_datacube(Scenario(), geom, chirp)
        with pytest.raises(ValueError, match="^scenario: .*seed 4.*seed 3"):
            process_cube(cube, scenario_preset("A1", seed=4), cfg)

    def test_equal_scenario_accepted(self):
        geom, chirp, scenario = tiny_setup(n_targets=1)
        cube = synthesize_datacube(scenario, geom, chirp)
        copy = replace(scenario)
        assert copy is not scenario
        result = process_cube(cube, copy, tiny_config(geom, chirp, scenario))
        assert result.detection_count == 1

    def test_positions_given_as_arrays_or_lists_are_equal(self):
        # a target stores its position as a tuple of floats, whatever it was given as
        assert TargetSpec(np.array([1.0, 500.0, 0.0])) == TargetSpec((1.0, 500.0, 0.0))
        geom, chirp, scenario = tiny_setup(n_targets=2)
        targets = scenario.targets
        copies = [
            replace(scenario, targets=[replace(t, position=kind(t.position)) for t in targets])
            for kind in (np.array, list)
        ]
        for copy in copies:
            assert copy == scenario and hash(copy) == hash(scenario)
            assert all(type(x) is float for t in copy.targets for x in t.position)
        cube = synthesize_datacube(scenario, geom, chirp)
        cfg = tiny_config(geom, chirp, scenario)
        want = process_cube(cube, scenario, cfg)
        got = process_cube(cube, copies[0], cfg)
        assert got.scores == want.scores
        assert np.array_equal(got.subband_outputs, want.subband_outputs)


class TestOneBeamformingPath:
    """Every method's tallies and center correlators equal the old two-branch
    loop bit for bit, and so do its outputs, but for beamspace, whose lifted
    weights give the old loop's windowed outputs to within roundoff."""

    @pytest.fixture(scope="class")
    def oracle_cube(self):
        geom, chirp, scenario = oracle_setup()
        return geom, chirp, scenario, synthesize_datacube(scenario, geom, chirp)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(method=METHOD_ANTENNA),
            dict(method=METHOD_CONVENTIONAL),
            dict(method=METHOD_BEAMSPACE),
            dict(method=METHOD_BEAMSPACE, fft_size=(4, 16), window=(3, 5)),
            dict(method=METHOD_ANTENNA, loading=0.0, train_pulses=16),
        ],
        ids=["antenna", "conventional", "beamspace", "padded", "unloaded"],
    )
    def test_matches_reference(self, oracle_cube, kw):
        geom, chirp, scenario, cube = oracle_cube
        cfg = tiny_config(geom, chirp, scenario, **kw)
        result = process_cube(cube, scenario, cfg)

        sub = channelize(cube, cfg.subbands)
        freqs = bin_center_frequencies(cfg.subbands, chirp)
        outputs = np.empty_like(result.subband_outputs)
        slots = [[None, None] for _ in scenario.targets]
        n_ant, n_sub, s_per_pulse, n_pulses = sub.shape
        tallies = Counter(channelize=channelize_mults(n_ant, s_per_pulse * n_pulses, n_sub))
        tallies.update(
            reference_beamform(
                range(cfg.subbands), sub, scenario, cfg, cfg.beamspace_plan(),
                freqs, outputs, slots, 0,
            )
        )

        if cfg.method == METHOD_BEAMSPACE:
            assert_within_roundoff(result.subband_outputs, outputs)
        else:
            assert np.array_equal(result.subband_outputs, outputs)
        mults = result.complexity.stage_mults
        assert {stage: mults[stage] for stage in tallies} == tallies
        assert set(mults) - set(tallies) == {"synthesize", "range_doppler"}
        for k, (corr, win) in enumerate(slots):
            got = result.center_correlators[k]
            assert np.array_equal(got.weights, corr.weights)
            assert got.window == corr.window == win

    @pytest.mark.parametrize("kw", [{}, dict(fft_size=(4, 16), window=(3, 5))])
    def test_oracle_scene_exercises_wrap_and_sharing(self, oracle_cube, kw):
        geom, chirp, scenario, cube = oracle_cube
        cfg = tiny_config(geom, chirp, scenario, **kw)
        plan = cfg.beamspace_plan()
        for b, freq in enumerate(bin_center_frequencies(cfg.subbands, chirp)):
            wins = [
                window_for(spatial_frequencies(t.direction, freq, geom), plan, *cfg.window)
                for t in scenario.targets
            ]
            assert wins[1] == wins[2], b
            assert len(set(wins)) == 3, b
            assert wins[0].center_row - wins[0].w_z // 2 < 0, b

    @pytest.mark.parametrize(
        "kw",
        [
            dict(method=METHOD_ANTENNA),
            dict(method=METHOD_CONVENTIONAL),
            dict(method=METHOD_BEAMSPACE),
            dict(method=METHOD_BEAMSPACE, fft_size=(4, 16), window=(3, 5)),
        ],
        ids=["antenna", "conventional", "beamspace", "padded"],
    )
    def test_one_covariance_and_factor_per_subband_and_selector(
        self, oracle_cube, monkeypatch, kw
    ):
        # every target of a subband solves against the covariance of its
        # selector there: every row on the antennas, its window in beamspace
        geom, chirp, scenario, cube = oracle_cube
        cfg = tiny_config(geom, chirp, scenario, **kw)
        made, solved, factored = [], [], []

        def estimating(*args, real=pipeline.estimate_covariance):
            made.append(real(*args))
            return made[-1]

        def solving(cov, *args, real=pipeline.mvdr_correlator):
            solved.append(cov)
            return real(cov, *args)

        def lapack(names, arrays, real=mvdr.get_lapack_funcs):
            (potrf,) = real(names, arrays)

            def factoring(matrix, **kwargs):
                factored.append(matrix)
                return potrf(matrix, **kwargs)

            return (factoring,)

        monkeypatch.setattr(pipeline, "estimate_covariance", estimating)
        monkeypatch.setattr(pipeline, "mvdr_correlator", solving)
        monkeypatch.setattr(mvdr, "get_lapack_funcs", lapack)
        process_cube(cube, scenario, cfg)

        plan, n_targets = cfg.beamspace_plan(), len(scenario.targets)
        selectors = [
            {
                window_for(spatial_frequencies(t.direction, freq, geom), plan, *cfg.window)
                for t in scenario.targets
            }
            for freq in bin_center_frequencies(cfg.subbands, chirp)
        ]
        expected = {METHOD_ANTENNA: [1] * cfg.subbands, METHOD_CONVENTIONAL: []}.get(
            cfg.method, [len(wins) for wins in selectors]
        )
        per_subband = [
            list(dict.fromkeys(map(id, solved[i : i + n_targets])))
            for i in range(0, len(solved), n_targets)
        ]
        assert [len(covs) for covs in per_subband] == expected
        assert [id(cov) for cov in made] == [c for covs in per_subband for c in covs]
        assert len(factored) == len(made)
        assert all(m is cov.matrix for m, cov in zip(factored, made))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(method=METHOD_ANTENNA),
            dict(method=METHOD_CONVENTIONAL),
            dict(method=METHOD_BEAMSPACE),
            dict(method=METHOD_BEAMSPACE, fft_size=(4, 16), window=(3, 5)),
        ],
        ids=["antenna", "conventional", "beamspace", "padded"],
    )
    def test_one_product_per_group(self, oracle_cube, monkeypatch, kw):
        # groups matter only in training: beamspace's three windows per subband
        # are lifted to the antennas, so every method applies all four targets
        # of a (block, subband) in one product on the antenna snapshots
        geom, chirp, scenario, cube = oracle_cube
        cfg = tiny_config(geom, chirp, scenario, **kw)
        calls = []

        def applying(corrs, snapshots, real=pipeline.apply_correlator):
            calls.append((len(corrs), snapshots.shape))
            return real(corrs, snapshots)

        monkeypatch.setattr(pipeline, "apply_correlator", applying)
        process_cube(cube, scenario, cfg)

        n_blocks = 2  # 16 pulses, a block of at least the 8 training pulses
        n_snap = chirp.pulse_samples // cfg.subbands
        shape = (geom.n, n_snap, chirp.num_pulses // n_blocks)
        assert [n for n, _ in calls] == [len(scenario.targets)] * (n_blocks * cfg.subbands)
        assert {snapshots for _, snapshots in calls} == {shape}

    @pytest.mark.parametrize("owned", [False, True], ids=["callers-cube", "own-cube"])
    @pytest.mark.parametrize(
        "kw", [{}, dict(fft_size=(4, 16), window=(3, 5))], ids=["beamspace", "padded"]
    )
    def test_only_training_columns_enter_beamspace(self, oracle_cube, monkeypatch, kw, owned):
        # on block 0 each subband's gathered training columns are transformed,
        # one call a subband in order; no later block is transformed at all
        # (the targets' steering vectors, (antennas, targets), are not training)
        geom, chirp, scenario, cube = oracle_cube
        cfg = tiny_config(geom, chirp, scenario, **kw)
        n_snap = chirp.pulse_samples // cfg.subbands
        assert len(scenario.targets) != n_snap * cfg.train_pulses
        events = []

        def channelizing(*args, real=pipeline.channelize_into):
            events.append("block")
            return real(*args)

        def transforming(y, plan, real=pipeline.beamspace_transform):
            if y.shape == (geom.n, n_snap * cfg.train_pulses):  # (antennas, training columns)
                events.append(np.array(y))
            return real(y, plan)

        monkeypatch.setattr(pipeline, "channelize_into", channelizing)
        monkeypatch.setattr(pipeline, "beamspace_transform", transforming)
        if owned:
            run_pipeline(cfg)
        else:
            process_cube(cube, scenario, cfg)
        monkeypatch.undo()

        sub = channelize(cube, cfg.subbands)
        reads, later = events[1 : 1 + cfg.subbands], events[1 + cfg.subbands :]
        assert sum(isinstance(e, np.ndarray) for e in events) == cfg.subbands
        assert isinstance(events[0], str) and all(isinstance(e, np.ndarray) for e in reads)
        assert all(isinstance(e, str) for e in later) and len(later) == (0 if owned else 1)
        for b, columns in enumerate(reads):
            assert np.array_equal(columns, sub[:, b, :, : cfg.train_pulses].reshape(geom.n, -1))

    def test_recentering_moves_a_window_on_the_padded_grid(self, oracle_cube):
        geom, chirp, scenario, _ = oracle_cube
        plan = tiny_config(geom, chirp, scenario, fft_size=(4, 16)).beamspace_plan()
        direction = scenario.targets[3].direction
        centers = {
            window_center(spatial_frequencies(direction, freq, geom), plan)
            for freq in bin_center_frequencies(16, chirp)
        }
        assert len(centers) == 2


class TestEndToEnd:
    @pytest.mark.parametrize(
        "method", [METHOD_ANTENNA, METHOD_BEAMSPACE, METHOD_CONVENTIONAL]
    )
    def test_clean_scene_all_detected(self, method):
        geom, chirp, scenario = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario, method=method)
        result = run_pipeline(cfg)
        assert result.detection_count == len(scenario.targets)
        for score in result.scores:
            assert score.range_error_bins <= 1
            assert score.velocity_error_bins <= 1

    @pytest.mark.parametrize(
        "bins", [-8, -3, 0, 5, 8], ids=["-vmax", "-3 bins", "zero", "+5 bins", "+vmax"]
    )
    def test_truth_cell_is_the_detected_cell(self, bins):
        # 16 pulses: +-8 bins is +-max_unambiguous_velocity, which both wrap
        # to column 0; a zero column off by one would score one bin of error
        geom, chirp, _ = tiny_setup()
        velocity = bins * chirp.velocity_resolution
        if abs(bins) == 8:
            assert abs(velocity) == chirp.max_unambiguous_velocity
        target = TargetSpec((6.0, 40.0, 2.0), velocity)
        scenario = Scenario(targets=(target,), noise_power=1e-4, seed=3)
        cfg = tiny_config(geom, chirp, scenario, method=METHOD_CONVENTIONAL)
        [score] = run_pipeline(cfg).scores
        assert score.detected
        assert score.range_error_bins == score.velocity_error_bins == 0

    def test_full_window_beamspace_equals_antenna(self):
        # m = n, W = M, loading 0: unitary equivalence end to end
        geom, chirp, scenario = tiny_setup(noise_power=1.0)
        cube = synthesize_datacube(scenario, geom, chirp)
        base = dict(loading=0.0, window=(2, 8))
        cfg_a = tiny_config(geom, chirp, scenario, method=METHOD_ANTENNA, **base)
        cfg_b = tiny_config(
            geom, chirp, scenario, method=METHOD_BEAMSPACE, loading=0.0, window=(2, 8)
        )
        res_a = process_cube(cube, scenario, cfg_a)
        res_b = process_cube(cube, scenario, cfg_b)
        scale = np.max(np.abs(res_a.wideband_outputs))
        diff = np.max(np.abs(res_a.wideband_outputs - res_b.wideband_outputs))
        assert diff / scale < 1e-8
        assert [s.detected for s in res_a.scores] == [s.detected for s in res_b.scores]
        assert [s.range_error_bins for s in res_a.scores] == [
            s.range_error_bins for s in res_b.scores
        ]

    @pytest.mark.parametrize("method", METHODS)
    def test_callers_cube_without_targets(self, method):
        geom, chirp, _ = tiny_setup()
        scenario = Scenario(noise_power=1e-2, seed=5)
        cfg = tiny_config(geom, chirp, scenario, method=method)
        result = process_cube(synthesize_datacube(scenario, geom, chirp), scenario, cfg)
        n_snap = chirp.pulse_samples // cfg.subbands
        assert result.subband_outputs.shape == (0, cfg.subbands, n_snap, chirp.num_pulses)
        assert result.wideband_outputs.shape == (0, chirp.pulse_samples, chirp.num_pulses)
        assert result.center_correlators == result.maps == result.detections == []
        assert result.scores == [] and result.detection_count == 0

    def test_report_headers_are_stored_bytes(self, tmp_path):
        geom, chirp, scenario = tiny_setup(n_targets=1)
        cfg = tiny_config(geom, chirp, scenario)
        written = write_reports(run_pipeline(cfg), tmp_path)
        assert written == [tmp_path / "detections.csv", tmp_path / "complexity.json"]
        report = (tmp_path / "detections.csv").read_bytes()
        assert report.startswith(REPORT_HEADER)
        sweep(cfg, "window", [], tmp_path / "sweep.csv")
        assert (tmp_path / "sweep.csv").read_bytes() == SWEEP_HEADER

    def test_determinism_byte_identical_reports(self, tmp_path):
        geom, chirp, scenario = tiny_setup()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            write_reports(run_pipeline(tiny_config(geom, chirp, scenario)), out)
        assert (out_a / "detections.csv").read_bytes() == (
            out_b / "detections.csv"
        ).read_bytes()
        assert (out_a / "complexity.json").read_bytes() == (
            out_b / "complexity.json"
        ).read_bytes()

    def test_map_export(self, tmp_path):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        result = run_pipeline(tiny_config(geom, chirp, scenario))
        assert len(result.maps) == 2
        for k, rd in enumerate(result.maps):
            assert rd.power.shape == (chirp.pulse_samples, chirp.num_pulses)
            path = tmp_path / f"rdmap_target{k:02d}.bin"
            save_map(path, rd.power, chirp.sample_rate)
            assert np.array_equal(load_map(path), rd.power.astype(np.float32))

    def test_beam_pattern_export(self, tmp_path):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        result = run_pipeline(tiny_config(geom, chirp, scenario))
        grid = ((-60.0, 60.0), (-45.0, 45.0), 15.0)
        for k in range(2):
            path = tmp_path / f"beampattern_target{k:02d}.csv"
            assert _write_beam_pattern(result, k, path, grid) == (7, 9)
            lines = path.read_text().splitlines()
            assert lines[1] == "azimuth_deg,elevation_deg,gain_linear,gain_db"
            assert len(lines) == 2 + 7 * 9

    def test_run_returns_every_output_and_writes_no_file(self, tmp_path, monkeypatch):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        monkeypatch.chdir(tmp_path)
        result = run_pipeline(tiny_config(geom, chirp, scenario))
        assert list(tmp_path.iterdir()) == []
        n_sub = 16
        s = chirp.pulse_samples // n_sub
        assert result.subband_outputs.shape == (2, n_sub, s, chirp.num_pulses)
        assert result.wideband_outputs.shape == (2, chirp.pulse_samples, chirp.num_pulses)
        assert len(result.maps) == len(result.center_correlators) == 2

    def test_stage_context_on_numerical_failure(self):
        geom, chirp, scenario = tiny_setup(noise_power=0.0)
        # loading 0 with a noise-free rank-deficient covariance cannot factor
        cfg = tiny_config(
            geom, chirp, scenario, method=METHOD_ANTENNA, loading=0.0, train_pulses=1
        )
        with pytest.raises(StageError, match="beamform"):
            run_pipeline(cfg)


class TestCubeOwnership:
    """``run_pipeline`` channelizes its own cube in place; a caller's cube is
    only read."""

    @pytest.mark.parametrize("method", METHODS)
    def test_process_cube_leaves_the_callers_cube_untouched(self, method):
        geom, chirp, scenario = tiny_setup()
        cube = synthesize_datacube(scenario, geom, chirp)
        before = cube.samples.copy()
        process_cube(cube, scenario, tiny_config(geom, chirp, scenario, method=method))
        assert np.array_equal(cube.samples, before)

    def test_run_pipeline_equals_process_cube_bit_for_bit(self):
        geom, chirp, scenario = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario)
        owned = run_pipeline(cfg)
        given = process_cube(synthesize_datacube(scenario, geom, chirp), scenario, cfg)
        assert np.array_equal(owned.subband_outputs, given.subband_outputs)
        assert np.array_equal(owned.wideband_outputs, given.wideband_outputs)
        for a, b in zip(owned.maps, given.maps, strict=True):
            assert np.array_equal(a.power, b.power)
        assert owned.complexity.stage_mults == given.complexity.stage_mults
        assert owned.scores == given.scores

    @pytest.mark.parametrize("method", METHODS)
    def test_single_subband_runs_end_to_end(self, method):
        geom, chirp, scenario = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario, method=method, subbands=1)
        cube = synthesize_datacube(scenario, geom, chirp)
        before = cube.samples.copy()
        given = process_cube(cube, scenario, cfg)
        assert np.array_equal(cube.samples, before)
        owned = run_pipeline(cfg)
        shape = (len(scenario.targets), 1, chirp.pulse_samples, chirp.num_pulses)
        assert given.subband_outputs.shape == shape
        assert np.array_equal(owned.subband_outputs, given.subband_outputs)
        assert np.array_equal(owned.wideband_outputs, given.wideband_outputs)
        for a, b in zip(owned.maps, given.maps, strict=True):
            assert np.array_equal(a.power, b.power)
        assert owned.complexity.stage_mults == given.complexity.stage_mults
        assert owned.scores == given.scores

    def test_stage_timings_recorded(self):
        geom, chirp, scenario = tiny_setup(n_targets=1)
        cfg = tiny_config(geom, chirp, scenario)
        stages = ["channelize", "beamform", "synthesize", "range_doppler", "cfar", "score"]
        timings = run_pipeline(cfg).timings
        assert list(timings) == ["simulate"] + stages
        cube = synthesize_datacube(scenario, geom, chirp)
        assert list(process_cube(cube, scenario, cfg).timings) == stages
        for record in timings.values():
            assert set(record) == {"wall_s", "peak_rss_mb"}
            assert record["wall_s"] >= 0 and record["peak_rss_mb"] > 0

    @pytest.mark.parametrize(
        "axis,values",
        [
            ("window", [(1, 2), (9, 9), (2, 4), (2, 8)]),
            ("fft_size", [(2, 8), (4, 16)]),
            ("loading", [1e-3, 1e-5, 0.0]),
            ("method", [METHOD_ANTENNA, "mvdr", METHOD_CONVENTIONAL, METHOD_BEAMSPACE]),
            ("train_pulses", [4, 16]),
            ("cfar_threshold_db", [10.0, 16.0]),
        ],
    )
    def test_sweep_channelizes_its_cube_once(self, tmp_path, monkeypatch, axis, values):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        cfg = tiny_config(geom, chirp, scenario)
        calls = self.count_channelizations(monkeypatch)
        sweep(cfg, axis, values, tmp_path / "s.csv")
        assert calls == [cfg.subbands]
        monkeypatch.undo()
        assert read_sweep(tmp_path / "s.csv") == own_reports(cfg, axis, values, tmp_path)

    @pytest.mark.parametrize(
        "axis,values,channelized",
        [
            # the invalid 3 runs nothing, so the 8s on either side share a cube
            ("subbands", [8, 3, 8, 16, 16, 8], [8, 16, 8]),
            ("scenario", ["tiny", "tiny", "other", "tiny"], [16, 16, 16]),
        ],
    )
    def test_sweep_channelizes_once_per_distinct_cube(
        self, tmp_path, monkeypatch, axis, values, channelized
    ):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        scenes = {"tiny": scenario, "other": replace(tiny_setup(seed=6)[2], label="other")}
        values = [scenes[v] for v in values] if axis == "scenario" else values
        cfg = tiny_config(geom, chirp, scenario)
        calls = self.count_channelizations(monkeypatch)
        sweep(cfg, axis, values, tmp_path / "s.csv")
        assert calls == channelized
        monkeypatch.undo()
        assert read_sweep(tmp_path / "s.csv") == own_reports(cfg, axis, values, tmp_path)

    @staticmethod
    def count_channelizations(monkeypatch) -> list[int]:
        """The subband count of every channelization from now on."""
        calls = []

        def counting(*args, real=pipeline.channelize_into, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, "channelize_into", counting)
        return calls


class TestCallersCubeInBlocks:
    """``process_cube`` channelizes a caller's cube a block of pulses at a
    time into one reused buffer, trains on block 0 and applies every block;
    its outputs, correlators and tallies are ``run_pipeline``'s bit for bit,
    where the run's own cube is one block channelized in place."""

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "num_pulses,kw,blocks",
        [
            (16, dict(train_pulses=16), [16]),
            (16, dict(train_pulses=1), [4, 4, 4, 4]),
            (16, dict(train_pulses=5), [5, 5, 5, 1]),
            (14, dict(train_pulses=3), [4, 4, 4, 2]),
            (16, dict(train_pulses=3, subbands=1), [4, 4, 4, 4]),
        ],
        ids=["one-block", "one-training-pulse", "short-last", "short-cube", "one-subband"],
    )
    def test_equals_run_pipeline_bit_for_bit(
        self, monkeypatch, method, num_pulses, kw, blocks
    ):
        geom, chirp, scenario = tiny_setup(num_pulses=num_pulses)
        cfg = tiny_config(geom, chirp, scenario, method=method, **kw)
        cube = synthesize_datacube(scenario, geom, chirp)
        before = cube.samples.copy()
        seen = []

        def recording(samples, L, out, real=pipeline.channelize_into):
            seen.append((samples.shape[-1], out is samples))
            return real(samples, L, out)

        monkeypatch.setattr(pipeline, "channelize_into", recording)
        given = process_cube(cube, scenario, cfg)
        assert np.array_equal(cube.samples, before)
        # a single subband reads views of the cube; more are written to a buffer
        assert seen == [(n, cfg.subbands == 1) for n in blocks]

        seen.clear()
        owned = run_pipeline(cfg)
        monkeypatch.undo()
        # the run's own cube is one block of every pulse, written over itself
        assert seen == [(num_pulses, True)]
        assert np.array_equal(owned.subband_outputs, given.subband_outputs)
        assert np.array_equal(owned.wideband_outputs, given.wideband_outputs)
        for a, b in zip(owned.maps, given.maps, strict=True):
            assert np.array_equal(a.power, b.power)
        assert owned.detections == given.detections
        assert owned.scores == given.scores
        for a, b in zip(owned.center_correlators, given.center_correlators, strict=True):
            assert np.array_equal(a.weights, b.weights)
            assert a.window == b.window
        assert owned.complexity.stage_mults == given.complexity.stage_mults

    def test_holds_one_block_beside_the_callers_cube(self):
        # 64 antennas and one target, so the cube dwarfs every output
        geom = ArrayGeometry(4, 16, 10e9)
        chirp = ChirpParams(pulse_samples=256, num_pulses=32, pri=2e-6, bandwidth=400e6)
        scenario = replace(tiny_setup(n_targets=1)[2], noise_power=1.0)
        cube = synthesize_datacube(scenario, geom, chirp)
        block_bytes = cube.samples.nbytes // 4  # 32 pulses: blocks of 8
        for method in METHODS:
            cfg = tiny_config(geom, chirp, scenario, method=method, train_pulses=4)
            tracemalloc.start()
            try:
                process_cube(cube, scenario, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # beside the block: the outputs, one subband's basis and a covariance
            assert block_bytes <= peak < 1.5 * block_bytes, method


def read_sweep(path) -> list[list[str]]:
    return list(csv.reader(path.read_text().splitlines()[2:]))


def own_reports(cfg, axis, values, tmp_path) -> list[list[str]]:
    """Each point's own ``process_cube`` report rows followed by the point
    and ``ok``, or the row of its validation failure."""
    expected = []
    for k, value in enumerate(values):
        case = replace(cfg, **{axis: value})
        point = (
            f"scenario={value.label} seed={value.seed}" if axis == "scenario" else f"{axis}={value}"
        )
        try:
            case.validate()
        except ValueError as exc:
            expected.append(["tiny", "", case.method] + [""] * 7 + [point, f"failed: {exc}"])
            continue
        cube = synthesize_datacube(case.scenario, case.geometry, case.chirp)
        write_reports(process_cube(cube, case.scenario, case), tmp_path / str(k))
        lines = (tmp_path / str(k) / "detections.csv").read_text().splitlines()[2:]
        expected += [line.split(",") + [point, "ok"] for line in lines]
    return expected


class TestBufferLifetime:
    """Beamforming is the subband buffer's last reader: by the time synthesis
    runs, no frame holds the subband cube, its buffer or, in ``run_pipeline``,
    the simulated cube whose samples became that buffer.  A sweep keeps the
    buffer only for the points after this one that share it, and no earlier
    point's result."""

    @staticmethod
    def watch(monkeypatch) -> list[list[bool]]:
        """At each synthesize call, which simulated cubes, subband cubes,
        subband buffers, results and their subband and wideband outputs made
        so far are still alive, in order of creation."""
        refs, alive = [], []

        def simulating(*args, real=pipeline.synthesize_datacube, **kwargs):
            cube = real(*args, **kwargs)
            refs.append(weakref.ref(cube))
            return cube

        def watching(real):
            def channelizing(*args, **kwargs):
                sub = real(*args, **kwargs)
                buffer = sub
                while isinstance(buffer.base, np.ndarray):
                    buffer = buffer.base
                refs.extend([weakref.ref(sub), weakref.ref(buffer)])
                return sub

            return channelizing

        def synthesizing(*args, real=pipeline.synthesize, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return real(*args, **kwargs)

        def finishing(*args, real=pipeline._back_end, **kwargs):
            result = real(*args, **kwargs)
            outputs = (result, result.subband_outputs, result.wideband_outputs)
            refs.extend(weakref.ref(obj) for obj in outputs)
            return result

        monkeypatch.setattr(pipeline, "synthesize_datacube", simulating)
        monkeypatch.setattr(pipeline, "channelize_into", watching(pipeline.channelize_into))
        monkeypatch.setattr(pipeline, "synthesize", synthesizing)
        monkeypatch.setattr(pipeline, "_back_end", finishing)
        return alive

    @pytest.mark.parametrize("method", METHODS)
    def test_run_pipeline_frees_the_cube_before_synthesis(self, monkeypatch, method):
        geom, chirp, scenario = tiny_setup()
        alive = self.watch(monkeypatch)
        run_pipeline(tiny_config(geom, chirp, scenario, method=method))
        assert alive == [[False, False, False]]

    @pytest.mark.parametrize("method", METHODS)
    def test_process_cube_frees_its_buffer_before_synthesis(self, monkeypatch, method):
        # the caller's cube stays (TestCubeOwnership checks its bytes)
        geom, chirp, scenario = tiny_setup()
        cube = synthesize_datacube(scenario, geom, chirp)
        alive = self.watch(monkeypatch)
        process_cube(cube, scenario, tiny_config(geom, chirp, scenario, method=method))
        # (subbands, buffer) per block: 16 pulses in blocks of the 8 training pulses
        assert alive == [[False, False] * 2]

    def test_a_subbands_covariances_and_factors_go_once_it_is_trained(self, monkeypatch):
        # an antenna covariance and its factor are 512 KB at N = 128: kept for
        # every subband they would be 64 MB; only the correlators are kept
        geom, chirp, scenario = oracle_setup()
        cube = synthesize_datacube(scenario, geom, chirp)
        refs, alive = [], []

        def estimating(*args, real=pipeline.estimate_covariance):
            alive.append([ref() is not None for ref in refs])
            cov = real(*args)
            refs.append(weakref.ref(cov))
            return cov

        def factoring(cov, real=mvdr.CovarianceEstimate.factor):
            factor = real(cov)
            refs.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(pipeline, "estimate_covariance", estimating)
        monkeypatch.setattr(mvdr.CovarianceEstimate, "factor", factoring)
        cfg = tiny_config(geom, chirp, scenario, method=METHOD_ANTENNA)
        center = process_cube(cube, scenario, cfg).center_correlators
        # one covariance per subband; each has one factor, read by 4 targets
        assert len(alive) == cfg.subbands and len(refs) == cfg.subbands * 5
        assert not any(any(state) for state in alive)
        # while the correlators live, none of them holds a covariance or factor
        assert not any(ref() is not None for ref in refs) and len(center) == 4

    @pytest.mark.parametrize(
        "axis,values,expected",
        [
            # one cube: (cube, subbands, buffer), then (result, subband outputs,
            # wideband outputs) per point; the third point takes the buffer
            (
                "loading",
                [1e-3, 1e-4, 1e-5],
                [[False, True, True], [False, True, True] + [False] * 3, [False] * 9],
            ),
            # two cubes: each point is its cube's last reader
            ("scenario", ["tiny", "other"], [[False] * 3, [False] * 9]),
        ],
    )
    def test_sweep_frees_each_result_and_the_last_readers_buffer(
        self, monkeypatch, axis, values, expected
    ):
        geom, chirp, scenario = tiny_setup()
        scenes = {"tiny": scenario, "other": replace(tiny_setup(seed=6)[2], label="other")}
        values = [scenes[v] for v in values] if axis == "scenario" else values
        alive = self.watch(monkeypatch)
        sweep(tiny_config(geom, chirp, scenario), axis, values)
        assert alive == expected


class TestComplexityReport:
    @pytest.mark.parametrize(
        "derived", ["training_mults_per_pair", "application_mults_per_snapshot"]
    )
    def test_derived_figures_are_not_parameters(self, derived):
        args = dict(
            method=METHOD_ANTENNA,
            n_antennas=8,
            beam_points=8,
            window_dim=8,
            n_targets=1,
            n_subbands=2,
            n_train_snapshots=4,
            n_apply_snapshots=8,
            stage_mults={"covariance": 10, "solve": 6, "apply": 32},
        )
        report = ComplexityReport(**args)
        assert (report.training_mults_per_pair, report.application_mults_per_snapshot) == (8, 2)
        assert report.as_dict()["total_mults"] == 48
        with pytest.raises(TypeError, match=derived):
            ComplexityReport(**args, **{derived: 0})

    @pytest.mark.parametrize(
        "method,subbands,kw",
        [
            pytest.param(method, subbands, kw, id=f"{method}-{subbands}{case}")
            for method in METHODS
            for subbands in (16, 1)
            for case, kw in [
                ("", {}),
                ("-padded", dict(fft_size=(4, 16), window=(3, 5))),
                ("-train-5", dict(train_pulses=5)),
                ("-no-targets", dict(scenario=Scenario(noise_power=1e-2, seed=5))),
            ]
        ],
    )
    def test_tallies_match_closed_forms(self, method, subbands, kw):
        geom, chirp, scenario = tiny_setup()
        cfg = replace(tiny_config(geom, chirp, scenario, method=method, subbands=subbands), **kw)
        report = run_pipeline(cfg).complexity
        k, n = len(cfg.scenario.targets), geom.n
        pairs = k * subbands
        s = chirp.pulse_samples // subbands
        n_t = s * cfg.train_pulses
        n_apply = s * chirp.num_pulses
        expected = {
            "range_doppler": k * range_doppler_mults(chirp.pulse_samples, chirp.num_pulses)
        }
        if subbands > 1:  # a single subband passes through both
            expected["channelize"] = channelize_mults(n, n_apply, subbands)
            expected["synthesize"] = k * synthesize_mults(n_apply, subbands)
        dim, transform = n, 0  # rows a target beamforms on; one beamspace FFT
        if method == METHOD_BEAMSPACE:
            plan = cfg.beamspace_plan()
            dim = cfg.window[0] * cfg.window[1]
            transform = beamspace_fft_mults(geom.n_x, plan.m_z, plan.m_x)
            expected["beamspace_fft"] = subbands * n_apply * transform
            expected["windowed_steering"] = pairs * transform
        training = transform
        if method != METHOD_CONVENTIONAL:
            expected["covariance"] = pairs * outer_product_mults(dim, n_t)
            expected["solve"] = pairs * mvdr_solve_mults(dim)
            training += outer_product_mults(dim, n_t) + mvdr_solve_mults(dim)
        expected["apply"] = pairs * matvec_mults(dim, n_apply)
        assert report.stage_mults == expected
        if not k:  # no pair trains or applies; the transform still runs
            training = dim = 0
        assert report.training_mults_per_pair == training
        assert report.application_mults_per_snapshot == transform + dim

    def test_channelizer_tallies_by_hand(self):
        # 2 antennas, 256 samples x 2 pulses, 32 subbands: 8 x 2 blocks, each a
        # 32-point half-bin ramp and a radix-2 FFT of 16 * 5 twiddles
        chirp = ChirpParams(pulse_samples=256, num_pulses=2, pri=2e-6, bandwidth=400e6)
        scenario = Scenario(targets=(TargetSpec((0.0, 30.0, 0.0), 0.0),), noise_power=1e-2)
        cfg = PipelineConfig(
            scenario=scenario,
            method=METHOD_ANTENNA,
            subbands=32,
            window=(1, 2),
            train_pulses=2,
            geometry=ArrayGeometry(1, 2, 10e9),
            chirp=chirp,
        )
        mults = run_pipeline(cfg).complexity.stage_mults
        assert mults["channelize"] == 2 * (8 * 2) * (32 + 16 * 5)
        assert mults["synthesize"] == (8 * 2) * (16 * 5 + 32)

    def test_beamspace_tallies_share_the_transform(self):
        geom, chirp, scenario = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario, method=METHOD_BEAMSPACE)
        report = run_pipeline(cfg).complexity
        k = len(scenario.targets)
        n_sub = cfg.subbands
        plan = cfg.beamspace_plan()
        w = cfg.window[0] * cfg.window[1]
        s = chirp.pulse_samples // n_sub
        n_t = s * cfg.train_pulses
        n_apply = s * chirp.num_pulses
        fft_per_snap = beamspace_fft_mults(geom.n_x, plan.m_z, plan.m_x)
        # transform tallied once per snapshot, not once per target
        assert report.stage_mults["beamspace_fft"] == n_sub * n_apply * fft_per_snap
        assert report.stage_mults["covariance"] == k * n_sub * outer_product_mults(w, n_t)
        assert report.application_mults_per_snapshot == fft_per_snap + w

    def test_totals_are_additive(self):
        geom, chirp, scenario = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario)
        report = run_pipeline(cfg).complexity
        assert report.total_mults == sum(report.stage_mults.values())

    def test_full_window_training_close_to_antenna_cost(self):
        # W = M = N: same covariance/solve dimensions, so the reduced
        # pipeline's training tally is the antenna tally plus FFT overhead
        geom, chirp, scenario = tiny_setup()
        cfg_a = tiny_config(geom, chirp, scenario, method=METHOD_ANTENNA)
        cfg_b = tiny_config(geom, chirp, scenario, window=(2, 8))
        ant = run_pipeline(cfg_a).complexity.training_mults_per_pair
        beam = run_pipeline(cfg_b).complexity.training_mults_per_pair
        assert ant <= beam <= 2 * ant


class TestSweep:
    def test_empty_axis_writes_header_only(self, tmp_path):
        geom, chirp, scenario = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario)
        path = tmp_path / "sweep.csv"
        rows = sweep(cfg, "window", [], path)
        assert rows == []
        lines = path.read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("#")

    def test_window_axis(self, tmp_path):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        cfg = tiny_config(geom, chirp, scenario)
        rows = sweep(cfg, "window", [(1, 2), (2, 4)], tmp_path / "w.csv")
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)

    def test_failed_cell_recorded_and_sweep_continues(self, tmp_path):
        geom, chirp, scenario = tiny_setup(n_targets=2)
        cfg = tiny_config(geom, chirp, scenario)
        rows = sweep(cfg, "window", [(9, 9), (2, 4)], tmp_path / "f.csv")
        failed = [r for r in rows if r["status"] != "ok"]
        ok = [r for r in rows if r["status"] == "ok"]
        assert len(failed) == 1 and "window" in failed[0]["status"]
        assert len(ok) == 2
        assert [r["scenario"] for r in rows] == ["tiny"] * 3

    def test_scenario_axis_rows_are_each_scenes_report(self, tmp_path):
        geom, chirp, first = tiny_setup(n_targets=2)
        second = replace(tiny_setup(n_targets=1, seed=6)[2], label="")
        cfg = tiny_config(geom, chirp, None)
        sweep(cfg, "scenario", [first, second], tmp_path / "s.csv")
        swept = (tmp_path / "s.csv").read_text().splitlines()[2:]
        expected = []
        for k, scenario in enumerate((first, second)):
            write_reports(run_pipeline(replace(cfg, scenario=scenario)), tmp_path / str(k))
            expected += (tmp_path / str(k) / "detections.csv").read_text().splitlines()[2:]
        points = ["scenario=tiny seed=5"] * 2 + ["scenario=custom seed=6"]
        assert swept == [line + f",{point},ok" for line, point in zip(expected, points)]
        assert [line.split(",")[0] for line in swept] == ["tiny", "tiny", "custom"]
        with pytest.raises(ValueError, match="^scenario: expected a Scenario"):
            sweep(cfg, "scenario", ["A1"])

    def test_scenario_points_name_the_seed(self, tmp_path):
        # two seeds of one scene share its label, which is all a report row names
        geom, chirp, first = tiny_setup(n_targets=1)
        second = tiny_setup(n_targets=1, seed=6)[2]
        assert first.label == second.label and first.seed != second.seed
        cfg = tiny_config(geom, chirp, None)
        rows = sweep(cfg, "scenario", [first, second, first])
        assert [r["point"] for r in rows] == [
            "scenario=tiny seed=5",
            "scenario=tiny seed=6",
            "scenario=tiny seed=5",
        ]
        assert [r["scenario"] for r in rows] == ["tiny"] * 3
        write_reports(run_pipeline(replace(cfg, scenario=second)), tmp_path)
        assert (tmp_path / "detections.csv").read_bytes().startswith(REPORT_HEADER)

    def test_unknown_axis(self):
        geom, chirp, scenario = tiny_setup()
        cfg = tiny_config(geom, chirp, scenario)
        with pytest.raises(ValueError, match="^axis 'fft-size' not one of .*'fft_size'"):
            sweep(cfg, "fft-size", [(2, 8)])


#: One small scene with interference, synthesized and run by both MVDR
#: methods; saves the cube, the outputs and the detection cells to argv[1].
THREAD_COUNT_RUN = """
import sys
import numpy as np
from bsradar import (ArrayGeometry, ChirpParams, Direction, InterfererSpec, PipelineConfig,
                     Scenario, TargetSpec, process_cube, synthesize_datacube)

geom = ArrayGeometry(4, 8, 10e9)
chirp = ChirpParams(pulse_samples=256, num_pulses=16, pri=2e-6)
targets = tuple(
    TargetSpec((4.0 * k - 5.0, 30.0 + 9.0 * k, 1.0 - k), -20.0 + 15.0 * k, 1.0 + 0.5j)
    for k in range(3)
)
interferers = (
    InterfererSpec(Direction.from_degrees(-30.0, -20.0), power=1e3),
    InterfererSpec(Direction.from_degrees(25.0, -15.0), 1e2, "narrowband-tone"),
)
scenario = Scenario(targets=targets, interferers=interferers, noise_power=1e-2, seed=9)
cube = synthesize_datacube(scenario, geom, chirp)
saved = {"cube": cube.samples}
for method in ("beamspace-mvdr", "antenna-mvdr"):
    cfg = PipelineConfig(scenario=scenario, geometry=geom, chirp=chirp, subbands=16,
                         window=(2, 4), train_pulses=8, method=method)
    result = process_cube(cube, scenario, cfg)
    saved[method] = result.wideband_outputs
    cells = [(k, d.range_bin, d.velocity_bin)
             for k, found in enumerate(result.detections) for d in found]
    saved[method + " cells"] = np.array(cells, dtype=int).reshape(-1, 3)
np.savez(sys.argv[1], **saved)
"""


def test_blas_thread_count_moves_antenna_mvdr_at_roundoff_only(tmp_path):
    # the cube and beamspace outputs keep their bits at 1 and 2 BLAS threads;
    # LAPACK's Cholesky of a full antenna covariance may not
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        subprocess.run(
            [sys.executable, "-c", THREAD_COUNT_RUN, str(path)], env=env, check=True, timeout=300
        )
        runs.append(np.load(path))
    one, two = runs
    assert np.array_equal(one["cube"], two["cube"])
    assert np.array_equal(one["beamspace-mvdr"], two["beamspace-mvdr"])
    assert_within_roundoff(two["antenna-mvdr"], one["antenna-mvdr"])
    for method in ("beamspace-mvdr", "antenna-mvdr"):
        assert len(one[method + " cells"]) > 0
        assert np.array_equal(one[method + " cells"], two[method + " cells"])


def scaling_setup():
    """A 4x8 array over 512 samples and 16 pulses: four targets, a
    wideband-noise interferer and a tone."""
    geom = ArrayGeometry(4, 8, 10e9)
    chirp = ChirpParams(pulse_samples=512, num_pulses=16, pri=4e-6)
    targets = tuple(
        TargetSpec(pos, vel, np.exp(1j * phase))
        for pos, vel, phase in [
            ((5.0, 40.0, 4.0), -20.0, 0.4),
            ((-12.0, 70.0, -3.0), 15.0, 1.9),
            ((20.0, 95.0, 8.0), 35.0, 3.1),
            ((-2.0, 120.0, -10.0), -40.0, 5.0),
        ]
    )
    interferers = (
        InterfererSpec(Direction.from_degrees(25.0, -20.0), power=1e3),
        InterfererSpec(Direction.from_degrees(-35.0, -15.0), 1e3, "narrowband-tone"),
    )
    scenario = Scenario(targets=targets, interferers=interferers, seed=9, label="scaling")
    return geom, chirp, scenario


class TestPowerOfTwoScaling:
    """A cube times 2^k, with no sample or product overflowing or
    underflowing, gives every output times 2^k bit for bit: the load is a
    fraction of the trace, so the weights do not move, and the CFAR compares
    ratios."""

    @pytest.fixture(scope="class")
    def scene(self):
        geom, chirp, scenario = scaling_setup()
        return scenario, synthesize_datacube(scenario, geom, chirp)

    @pytest.mark.parametrize("fft_size", [None, (8, 16)], ids=["unpadded", "padded"])
    @pytest.mark.parametrize("method", METHODS)
    def test_outputs_scale_exactly(self, scene, method, fft_size):
        scenario, cube = scene
        cfg = tiny_config(cube.geometry, cube.chirp, scenario, method=method, fft_size=fft_size)
        base = process_cube(cube, scenario, cfg)
        assert base.detection_count > 0
        for k in (-20, 3, 40):
            scale = 2.0**k
            scaled = DataCube(cube.samples * scale, cube.geometry, cube.chirp)
            got = process_cube(scaled, scenario, cfg)
            assert np.array_equal(got.subband_outputs, base.subband_outputs * scale)
            assert np.array_equal(got.wideband_outputs, base.wideband_outputs * scale)
            assert got.detections == base.detections  # cells and margins
            for mine, theirs in zip(got.center_correlators, base.center_correlators):
                assert np.array_equal(mine.weights, theirs.weights)

    @pytest.mark.parametrize("method", [METHOD_ANTENNA, METHOD_BEAMSPACE])
    def test_overflowed_covariance_is_named(self, scene, method):
        scenario, cube = scene
        cfg = tiny_config(cube.geometry, cube.chirp, scenario, method=method)
        scaled = DataCube(cube.samples * 2.0**600, cube.geometry, cube.chirp)
        with pytest.raises(StageError, match="^stage 'beamform': .*overflow"):
            process_cube(scaled, scenario, cfg)

    # RuntimeWarnings are ignored here, as a caller's default filter may:
    # the stage must fail on the fault itself, not on the warning
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowed_map_fails_its_stage(self, scene):
        # the samples are finite, but |doppler|^2 overflows: inf maps, which
        # still scored every target as detected
        scenario, cube = scene
        cfg = tiny_config(cube.geometry, cube.chirp, scenario, method=METHOD_CONVENTIONAL)
        scaled = DataCube(cube.samples * 2.0**512, cube.geometry, cube.chirp)
        with pytest.raises(StageError, match="^stage 'range_doppler': overflow"):
            process_cube(scaled, scenario, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", [METHOD_ANTENNA, METHOD_BEAMSPACE])
    def test_underflowed_weights_fail_their_stage(self, scene, method):
        # the covariance trace is finite (about 5e-309), but a^H R^-1 a is
        # not: NaN weights, which detected nothing and raised nothing
        scenario, cube = scene
        cfg = tiny_config(cube.geometry, cube.chirp, scenario, method=method)
        scaled = DataCube(cube.samples * 2.0**-520, cube.geometry, cube.chirp)
        with pytest.raises(StageError, match="^stage 'beamform': invalid value"):
            process_cube(scaled, scenario, cfg)


class TestTargetOrderAndCommonPhase:
    """Two more relations on the scaling scene, for all three methods on the
    unpadded (4, 8) and the padded (8, 16) grid: reordering the targets
    reorders every per-target output bit for bit, and a common phase on the
    cube carries through to the outputs to roundoff with the same cells."""

    ORDER = [2, 0, 3, 1]
    PHASE = 0.7

    @pytest.fixture(scope="class")
    def scene(self):
        geom, chirp, scenario = scaling_setup()
        return scenario, synthesize_datacube(scenario, geom, chirp)

    @pytest.fixture(scope="class")
    def base_runs(self, scene):
        scenario, cube = scene
        runs = {}
        for method in METHODS:
            for fft_size in (None, (8, 16)):
                cfg = tiny_config(
                    cube.geometry, cube.chirp, scenario, method=method, fft_size=fft_size
                )
                runs[method, fft_size] = process_cube(cube, scenario, cfg)
        return runs

    @pytest.mark.parametrize("fft_size", [None, (8, 16)], ids=["unpadded", "padded"])
    @pytest.mark.parametrize("method", METHODS)
    def test_reordering_targets_reorders_outputs(self, scene, base_runs, method, fft_size):
        scenario, cube = scene
        base = base_runs[method, fft_size]
        assert base.detection_count > 0
        moved = replace(scenario, targets=tuple(scenario.targets[j] for j in self.ORDER))
        cfg = tiny_config(cube.geometry, cube.chirp, moved, method=method, fft_size=fft_size)
        got = process_cube(cube, moved, cfg)
        assert np.array_equal(got.subband_outputs, base.subband_outputs[self.ORDER])
        assert np.array_equal(got.wideband_outputs, base.wideband_outputs[self.ORDER])
        for k, j in enumerate(self.ORDER):
            assert np.array_equal(got.maps[k].power, base.maps[j].power)
            assert got.detections[k] == base.detections[j]  # cells and margins
            assert got.scores[k] == replace(base.scores[j], target_id=k)
            mine, theirs = got.center_correlators[k], base.center_correlators[j]
            assert np.array_equal(mine.weights, theirs.weights)
            assert mine.window == theirs.window

    @pytest.mark.parametrize("fft_size", [None, (8, 16)], ids=["unpadded", "padded"])
    @pytest.mark.parametrize("method", METHODS)
    def test_common_phase_carries_through(self, scene, base_runs, method, fft_size):
        scenario, cube = scene
        base = base_runs[method, fft_size]
        assert base.detection_count > 0
        phase = np.exp(1j * self.PHASE)
        cfg = tiny_config(cube.geometry, cube.chirp, scenario, method=method, fft_size=fft_size)
        got = process_cube(DataCube(cube.samples * phase, cube.geometry, cube.chirp), scenario, cfg)
        assert_within_roundoff(got.subband_outputs, base.subband_outputs * phase)
        assert_within_roundoff(got.wideband_outputs, base.wideband_outputs * phase)

        def cells(result):
            return [[det[:2] for det in found] for found in result.detections]

        assert cells(got) == cells(base)
