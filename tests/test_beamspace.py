import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bsradar import (
    BeamspacePlan,
    ChirpParams,
    DataCube,
    SpatialFrequencies,
    WindowSpec,
    adjoint_transform,
    beamspace_transform,
    channelize,
    extract_window,
    scatter_window,
    steering_vector,
    window_center,
    window_for,
    windowed_steering,
)
from bsradar.beamspace import window_rows

from conftest import random_complex

PLANS = [(4, 32), (8, 64), (16, 128)]


def dense_transform_matrix(plan: BeamspacePlan) -> np.ndarray:
    """Oracle: explicit scaled truncated-DFT Kronecker product."""
    d_v = np.exp(
        -2j * np.pi * np.outer(np.arange(plan.m_z), np.arange(plan.n_z)) / plan.m_z
    ) / np.sqrt(plan.m_z)
    d_h_t = np.exp(
        -2j * np.pi * np.outer(np.arange(plan.m_x), np.arange(plan.n_x)) / plan.m_x
    ) / np.sqrt(plan.m_x)
    return np.kron(d_h_t, d_v)


def dense_window_matrix(win: WindowSpec) -> np.ndarray:
    """Oracle: explicit 0/1 selector Kronecker product."""
    plan = win.plan
    rows = (win.center_row - win.w_z // 2 + np.arange(win.w_z)) % plan.m_z
    cols = (win.center_col - win.w_x // 2 + np.arange(win.w_x)) % plan.m_x
    s_v = np.zeros((win.w_z, plan.m_z))
    s_v[np.arange(win.w_z), rows] = 1.0
    s_h_t = np.zeros((win.w_x, plan.m_x))
    s_h_t[np.arange(win.w_x), cols] = 1.0
    return np.kron(s_h_t, s_v)


class TestTransform:
    @pytest.mark.parametrize("m_z,m_x", PLANS)
    def test_matches_dense_oracle(self, geom, rng, m_z, m_x):
        plan = BeamspacePlan(m_z, m_x, geom.n_z, geom.n_x)
        dense = dense_transform_matrix(plan)
        y = random_complex(rng, (geom.n, 50))
        assert np.max(np.abs(beamspace_transform(y, plan) - dense @ y)) < 1e-10

    def test_zero_in_zero_out(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        out = beamspace_transform(np.zeros(geom.n, dtype=complex), plan)
        assert np.array_equal(out, np.zeros(plan.m, dtype=complex))

    def test_on_grid_steering_hits_single_bin(self, geom):
        plan = BeamspacePlan.for_geometry(geom)  # m = n
        r = 3
        a = steering_vector(
            SpatialFrequencies(0.0, 2 * np.pi * r / plan.m_z), geom
        )
        beam = beamspace_transform(a, plan).reshape(plan.m_x, plan.m_z)
        assert abs(beam[0, r]) == pytest.approx(np.sqrt(geom.n), rel=1e-12)
        rest = beam.copy()
        rest[0, r] = 0.0
        assert np.max(np.abs(rest)) < 1e-10

    @pytest.mark.parametrize("m_z,m_x", PLANS)
    def test_isometry_energy_ratio_one(self, geom, rng, m_z, m_x):
        # columns of the transform matrix are orthonormal for any m >= n,
        # so the energy ratio is the same constant (one) for every input
        plan = BeamspacePlan(m_z, m_x, geom.n_z, geom.n_x)
        for _ in range(5):
            y = random_complex(rng, geom.n)
            ratio = np.linalg.norm(beamspace_transform(y, plan)) / np.linalg.norm(y)
            assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_adjoint_matches_dense(self, geom, rng):
        plan = BeamspacePlan(8, 64, geom.n_z, geom.n_x)
        dense = dense_transform_matrix(plan)
        x = random_complex(rng, plan.m)
        assert np.max(np.abs(adjoint_transform(x, plan) - dense.conj().T @ x)) < 1e-10

    def test_dimension_mismatch(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        with pytest.raises(ValueError):
            beamspace_transform(np.zeros(5), plan)

    def test_padding_only_enlarges(self, geom):
        with pytest.raises(ValueError):
            BeamspacePlan(2, 32, geom.n_z, geom.n_x)

    def test_for_geometry_defaults_only_a_missing_size(self, geom):
        assert BeamspacePlan.for_geometry(geom, None, 64) == BeamspacePlan(4, 64, 4, 32)
        for sizes in ((0, 32), (0, 0)):
            with pytest.raises(ValueError, match="must cover the array"):
                BeamspacePlan.for_geometry(geom, *sizes)


class TestWindowCenter:
    def test_zero_maps_to_origin(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        assert window_center(SpatialFrequencies(0.0, 0.0), plan) == (0, 0)

    def test_on_grid_row(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        sf = SpatialFrequencies(0.0, 2 * np.pi * 3 / plan.m_z)
        assert window_center(sf, plan) == (3, 0)

    def test_on_grid_col_positive_axis(self, geom):
        # a positive omega_x on-grid steering vector peaks at the matching
        # column, and the window center lands on that same bin
        plan = BeamspacePlan.for_geometry(geom)
        sf = SpatialFrequencies(2 * np.pi * 5 / plan.m_x, 0.0)
        a = steering_vector(sf, geom)
        beam = np.abs(beamspace_transform(a, plan)).reshape(plan.m_x, plan.m_z)
        col, row = np.unravel_index(np.argmax(beam), beam.shape)
        assert (row, col) == (0, 5)
        assert window_center(sf, plan) == (0, 5)

    def test_halfway_tie_breaks_toward_even(self, geom):
        plan = BeamspacePlan(8, 64, geom.n_z, geom.n_x)
        sf = SpatialFrequencies(0.0, 2 * np.pi * 3.5 / plan.m_z)
        row, col = window_center(sf, plan)
        assert row in (3, 4) and row == 4  # numpy half-to-even

    def test_halfway_capture_equal_for_odd_window(self, geom, rng):
        # both straddling centers capture the same energy with a symmetric
        # (odd) window, so the tie-break does not matter there
        plan = BeamspacePlan(8, 64, geom.n_z, geom.n_x)
        sf = SpatialFrequencies(0.0, 2 * np.pi * 3.5 / plan.m_z)
        a = steering_vector(sf, geom)
        beam = beamspace_transform(a, plan)
        captures = []
        for center in (3, 4):
            win = WindowSpec(plan, 3, plan.m_x, center, 0)
            captures.append(np.linalg.norm(extract_window(beam, win)) ** 2)
        assert captures[0] == pytest.approx(captures[1], rel=1e-12)


class TestExtractWindow:
    def test_full_window_is_norm_preserving_permutation(self, geom, rng):
        plan = BeamspacePlan.for_geometry(geom)
        beam = beamspace_transform(random_complex(rng, geom.n), plan)
        win = WindowSpec(plan, plan.m_z, plan.m_x, 2, 7)
        out = extract_window(beam, win)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(beam), rel=1e-12)
        assert np.allclose(np.sort(np.abs(out)), np.sort(np.abs(beam)))

    def test_matches_selector_matrix_oracle(self, geom, rng):
        plan = BeamspacePlan(8, 64, geom.n_z, geom.n_x)
        beam = random_complex(rng, plan.m)
        for _ in range(5):
            win = WindowSpec(
                plan,
                int(rng.integers(1, plan.m_z + 1)),
                int(rng.integers(1, plan.m_x + 1)),
                int(rng.integers(0, plan.m_z)),
                int(rng.integers(0, plan.m_x)),
            )
            oracle = dense_window_matrix(win) @ beam
            assert np.array_equal(extract_window(beam, win), oracle)

    def test_wrap_at_origin(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        beam = np.arange(plan.m, dtype=complex)
        win = WindowSpec(plan, 3, 1, 0, 0)
        out = extract_window(beam, win)
        grid = beam.reshape(plan.m_x, plan.m_z)
        assert np.array_equal(out, grid[0, [plan.m_z - 1, 0, 1]])

    def test_on_grid_bin_fully_captured(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        a = steering_vector(SpatialFrequencies(0.0, 2 * np.pi * 2 / plan.m_z), geom)
        beam = beamspace_transform(a, plan)
        win = window_for(SpatialFrequencies(0.0, 2 * np.pi * 2 / plan.m_z), plan, 2, 4)
        captured = np.linalg.norm(extract_window(beam, win)) ** 2
        assert captured == pytest.approx(np.linalg.norm(beam) ** 2, rel=1e-12)

    @pytest.mark.parametrize("axis", ["z", "x"])
    def test_half_grid_offset_capture_with_2x4_window(self, geom, axis):
        # worst-case straddle on one axis at a time; the off-axis stays on-grid
        plan = BeamspacePlan.for_geometry(geom)
        if axis == "z":
            sf = SpatialFrequencies(2 * np.pi * 9 / plan.m_x, 2 * np.pi * 1.5 / plan.m_z)
        else:
            sf = SpatialFrequencies(2 * np.pi * 9.5 / plan.m_x, 2 * np.pi * 1 / plan.m_z)
        a = steering_vector(sf, geom)
        beam = beamspace_transform(a, plan)
        win = window_for(sf, plan, 2, 4)
        captured = np.linalg.norm(extract_window(beam, win)) ** 2
        assert captured / np.linalg.norm(beam) ** 2 >= 0.8

    def test_capture_monotone_in_window_size(self, geom, rng):
        plan = BeamspacePlan.for_geometry(geom)
        sf = SpatialFrequencies(rng.uniform(0, np.pi), rng.uniform(0, np.pi))
        beam = beamspace_transform(steering_vector(sf, geom), plan)
        row, col = window_center(sf, plan)
        last = -1.0
        for w_z, w_x in [(1, 1), (1, 2), (2, 2), (2, 4), (3, 4), (4, 8), (4, 32)]:
            win = WindowSpec(plan, w_z, w_x, row, col)
            cap = np.linalg.norm(extract_window(beam, win)) ** 2
            assert cap >= last - 1e-12
            last = cap

    def test_window_exceeding_grid_rejected(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        with pytest.raises(ValueError):
            WindowSpec(plan, 8, 4, 0, 0)


class TestWindowedSteering:
    def test_boresight_dominant_entry_at_window_origin(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        a = steering_vector(SpatialFrequencies(0.0, 0.0), geom)
        win = WindowSpec(plan, 2, 4, 0, 0)
        out = windowed_steering(a, win)
        # window order: offsets (-1, 0) in z and (-2..1) in x; bin (0,0)
        # sits at x-offset index 2, z-offset index 1
        peak = np.argmax(np.abs(out))
        assert peak == 2 * win.w_z + 1
        assert abs(out[peak]) == pytest.approx(np.sqrt(geom.n), rel=1e-12)

    def test_full_window_preserves_norm(self, geom, rng):
        plan = BeamspacePlan.for_geometry(geom)
        sf = SpatialFrequencies(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        a = steering_vector(sf, geom)
        win = WindowSpec(plan, plan.m_z, plan.m_x, *window_center(sf, plan))
        out = windowed_steering(a, win)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(a), rel=1e-10)

    def test_partial_window_never_gains_norm(self, geom, rng):
        plan = BeamspacePlan.for_geometry(geom)
        for _ in range(10):
            sf = SpatialFrequencies(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
            a = steering_vector(sf, geom)
            win = window_for(sf, plan, 2, 4)
            out = windowed_steering(a, win)
            assert np.linalg.norm(out) <= np.linalg.norm(a) + 1e-12


class TestScatterAdjoint:
    def test_scatter_is_adjoint_of_extract(self, geom, rng):
        plan = BeamspacePlan(8, 64, geom.n_z, geom.n_x)
        win = WindowSpec(plan, 3, 5, 6, 60)
        beam = random_complex(rng, plan.m)
        values = random_complex(rng, win.w)
        lhs = np.vdot(values, extract_window(beam, win))
        rhs = np.vdot(scatter_window(values, win), beam)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@st.composite
def plans(draw):
    """An array of up to 6x6 elements on a beam grid at least as large."""
    n_z, n_x = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return BeamspacePlan(n_z + draw(st.integers(0, 6)), n_x + draw(st.integers(0, 10)), n_z, n_x)


class TestProperties:
    @given(plan=plans(), seed=st.integers(0, 2**32 - 1))
    def test_transform_is_an_isometry(self, plan, seed):
        y = random_complex(np.random.default_rng(seed), (plan.n, 3))
        beams = beamspace_transform(y, plan)
        norms = np.linalg.norm(y, axis=0)
        assert np.allclose(np.linalg.norm(beams, axis=0), norms, rtol=1e-12, atol=0)
        assert np.max(np.abs(adjoint_transform(beams, plan) - y)) <= 1e-12 * norms.max()

    @given(plan=plans(), seed=st.integers(0, 2**32 - 1))
    def test_adjoint_transform_is_the_adjoint(self, plan, seed):
        rng = np.random.default_rng(seed)
        y, x = random_complex(rng, plan.n), random_complex(rng, plan.m)
        lhs = np.vdot(beamspace_transform(y, plan), x)
        rhs = np.vdot(y, adjoint_transform(x, plan))
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(y) * np.linalg.norm(x)

    @given(plan=plans(), data=st.data())
    def test_window_rows_are_distinct_in_range_bins(self, plan, data):
        w_z, w_x = data.draw(st.integers(1, plan.m_z)), data.draw(st.integers(1, plan.m_x))
        if data.draw(st.booleans(), label="centered by window_for"):
            omega = st.floats(-4 * np.pi, 4 * np.pi)
            sf = SpatialFrequencies(data.draw(omega), data.draw(omega))
            win = window_for(sf, plan, w_z, w_x)
        else:
            row = data.draw(st.integers(0, plan.m_z - 1))
            win = WindowSpec(plan, w_z, w_x, row, data.draw(st.integers(0, plan.m_x - 1)))
        rows = window_rows(win)
        assert len(set(rows.tolist())) == len(rows) == w_z * w_x
        assert 0 <= rows.min() and rows.max() < plan.m
        assert win.center_col * plan.m_z + win.center_row in rows


class TestStridedSubband:
    """A subband's strided (antennas, snapshots, pulses) view of the
    channelizer's buffer is transformed where it lies, never gathered."""

    @staticmethod
    def subband(geom, rng, n_snap=32, n_pulses=64, L=4):
        chirp = ChirpParams(pulse_samples=n_snap * L, num_pulses=n_pulses, pri=1e-6)
        cube = DataCube(random_complex(rng, (geom.n, n_snap * L, n_pulses)), geom, chirp)
        return channelize(cube, L)[:, 1]

    @pytest.mark.parametrize("m_z,m_x", [(4, 32), (8, 64)])
    def test_strided_view_equals_contiguous_input(self, geom, rng, m_z, m_x):
        plan = BeamspacePlan.for_geometry(geom, m_z, m_x)
        view = self.subband(geom, rng)
        assert not view.flags.c_contiguous
        n_snap = view.shape[1] * view.shape[2]
        beams = beamspace_transform(view, plan)
        flat = np.ascontiguousarray(view).reshape(geom.n, n_snap)
        assert beams.shape == (plan.m, *view.shape[1:])
        assert np.array_equal(beams.reshape(plan.m, n_snap), beamspace_transform(flat, plan))

    @pytest.mark.parametrize("m_z,m_x", [(4, 32), (8, 64)])
    def test_strided_view_allocates_only_the_result(self, geom, rng, m_z, m_x):
        plan = BeamspacePlan.for_geometry(geom, m_z, m_x)
        view = self.subband(geom, rng)
        n_snap = view.shape[1] * view.shape[2]
        result = plan.m * n_snap * 16
        slack = 64 * 1024  # array headers; a gather would add the 4 MB view
        tracemalloc.start()
        try:
            beamspace_transform(view, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result <= peak <= result + slack


PLAN_2x8 = BeamspacePlan(2, 8, 2, 8)
WIN_2x4 = WindowSpec(PLAN_2x8, 2, 4, 0, 0)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: BeamspacePlan(4, 4, 0, 4), "^array dims must be >= 1"),
        (lambda: BeamspacePlan(4, 4, 4, 0), "^array dims must be >= 1"),
        (lambda: BeamspacePlan(4, 32.0, 4, 32), "^m_x: 32.0 is not an integer"),
        (lambda: BeamspacePlan(4, 32, 4.0, 32), "^n_z: 4.0 is not an integer"),
        (lambda: WindowSpec(PLAN_2x8, 0, 2, 0, 0), "^window dims must be >= 1"),
        (lambda: WindowSpec(PLAN_2x8, 2, 0, 0, 0), "^window dims must be >= 1"),
        (lambda: WindowSpec(PLAN_2x8, 2.0, 4, 0, 0), "^w_z: 2.0 is not an integer"),
        (lambda: WindowSpec(PLAN_2x8, 2, np.int64(4), 0, 0), "^w_x: .*4.* is not an integer"),
        (lambda: WindowSpec(PLAN_2x8, 2, 4, 1.5, 0), "^center_row: 1.5 is not an integer"),
        (lambda: WindowSpec(PLAN_2x8, 2, 4, 0, True), "^center_col: True is not an integer"),
        (
            lambda: WindowSpec(PLAN_2x8, 3, 4, 0, 0),
            r"^window \(3, 4\) exceeds beam grid \(2, 8\)",
        ),
        (
            lambda: WindowSpec(PLAN_2x8, 2, 4, 2, 0),
            r"^window center \(2, 0\) is off the beam grid \(2, 8\)",
        ),
        (
            lambda: WindowSpec(PLAN_2x8, 2, 4, 0, -1),
            r"^window center \(0, -1\) is off the beam grid \(2, 8\)",
        ),
        (
            lambda: adjoint_transform(np.zeros(15), PLAN_2x8),
            "^beam vector length 15 != grid size 16",
        ),
        (
            lambda: extract_window(np.zeros(15), WIN_2x4),
            "^beam vector length 15 != grid size 16",
        ),
        (
            lambda: scatter_window(np.zeros(7), WIN_2x4),
            "^expected 8 window values, got 7",
        ),
    ],
    ids=[
        "plan-n_z",
        "plan-n_x",
        "plan-m_x-float",
        "plan-n_z-float",
        "window-w_z",
        "window-w_x",
        "window-w_z-float",
        "window-w_x-numpy",
        "window-row-float",
        "window-col-bool",
        "window-wider-than-grid",
        "window-row-off-grid",
        "window-col-off-grid",
        "adjoint",
        "extract",
        "scatter",
    ],
)
def test_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()
