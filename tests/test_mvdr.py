import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import LinAlgError

from bsradar import (
    ArrayGeometry,
    BeamspacePlan,
    Correlator,
    Direction,
    WindowSpec,
    apply_correlator,
    beam_pattern,
    beamspace_transform,
    conventional_correlator,
    estimate_covariance,
    extract_window,
    lift_correlator,
    mvdr_correlator,
    SpatialFrequencies,
    spatial_frequencies,
    steering_vector,
    window_for,
    windowed_steering,
)

from conftest import random_complex


def steer(geom, az_deg, el_deg, freq=None):
    d = Direction.from_degrees(az_deg, el_deg)
    return steering_vector(spatial_frequencies(d, freq or geom.design_freq, geom), geom)


class TestEstimateCovariance:
    def test_single_snapshot_rank_one(self, rng):
        y = random_complex(rng, 6)
        cov = estimate_covariance(y[:, None], 0.0)
        assert np.allclose(cov.matrix, np.outer(y, y.conj()))
        assert cov.n_t == 1 and cov.loading == 0.0

    def test_white_noise_converges_to_identity(self, rng):
        dim, n_t = 8, 4000
        snaps = random_complex(rng, (dim, n_t)) / np.sqrt(2)
        cov = estimate_covariance(snaps, 0.0)
        err = np.linalg.norm(cov.matrix - np.eye(dim), "fro")
        assert err <= 5 * dim / np.sqrt(n_t)

    def test_two_snapshot_hand_average(self):
        y1 = np.array([1.0 + 0j, 1j])
        y2 = np.array([2.0 + 0j, 0.0])
        cov = estimate_covariance(np.column_stack([y1, y2]), 0.0)
        expected = 0.5 * (np.outer(y1, y1.conj()) + np.outer(y2, y2.conj()))
        assert np.allclose(cov.matrix, expected, rtol=0, atol=1e-15)

    def test_loading_level(self, rng):
        snaps = random_complex(rng, (4, 16))
        bare = estimate_covariance(snaps, 0.0)
        loaded = estimate_covariance(snaps, 1e-3)
        delta = 1e-3 * np.trace(bare.matrix).real / 4
        assert loaded.loading == pytest.approx(delta)
        assert np.allclose(loaded.matrix, bare.matrix + delta * np.eye(4))

    def test_hermitian(self, rng):
        cov = estimate_covariance(random_complex(rng, (5, 40)), 1e-3)
        assert np.max(np.abs(cov.matrix - cov.matrix.conj().T)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_covariance(np.zeros((4, 0)))

    @pytest.mark.parametrize(
        "loading,match",
        [
            (float("nan"), "^loading: nan is not a finite number"),
            (float("inf"), "^loading: inf is not a finite number"),
            (-1e-3, "^loading: must be >= 0"),
        ],
    )
    def test_load_must_be_finite_and_nonnegative(self, rng, loading, match):
        with pytest.raises(ValueError, match=match):
            estimate_covariance(random_complex(rng, (4, 8)), loading)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 4), ()])
    def test_only_dim_by_snapshot_arrays_accepted(self, rng, shape):
        with pytest.raises(ValueError, match=rf"got shape {re.escape(str(shape))}"):
            estimate_covariance(rng.standard_normal(shape) + 0j)


class TestMvdrCorrelator:
    def test_white_noise_gives_matched_filter(self, geom):
        a = np.ones(geom.n, dtype=complex)
        cov = estimate_covariance(np.eye(geom.n, dtype=complex), 0.0)
        cov.matrix = 2.5 * np.eye(geom.n, dtype=complex)
        corr = mvdr_correlator(cov, a)
        assert np.allclose(corr.weights, np.full(geom.n, 1.0 / geom.n))

    def test_orthogonal_interferer_is_ignored(self, rng):
        dim = 16
        a = random_complex(rng, dim)
        b = random_complex(rng, dim)
        b -= (np.vdot(a, b) / np.vdot(a, a)) * a  # b orthogonal to a
        cov = estimate_covariance(np.zeros((dim, 1)), 0.0)
        cov.matrix = np.eye(dim) + 50.0 * np.outer(b, b.conj())
        corr = mvdr_correlator(cov, a)
        assert np.allclose(corr.weights, a / np.linalg.norm(a) ** 2, atol=1e-12)

    def test_sherman_morrison_oracle_and_null(self, geom):
        # R = I + P b b^H : closed form via the rank-one update identity
        a = steer(geom, 0.0, 10.0)
        b = steer(geom, 0.0, 20.0)
        p = 100.0
        cov = estimate_covariance(np.zeros((geom.n, 1)), 0.0)
        cov.matrix = np.eye(geom.n) + p * np.outer(b, b.conj())
        corr = mvdr_correlator(cov, a)

        r_inv_a = a - (p * np.vdot(b, a) / (1 + p * np.vdot(b, b))) * b
        oracle = r_inv_a / np.vdot(a, r_inv_a)
        assert np.max(np.abs(corr.weights - oracle)) < 1e-10

        assert np.vdot(corr.weights, a) == pytest.approx(1.0, abs=1e-11)
        null = abs(np.vdot(corr.weights, b)) / (
            np.linalg.norm(corr.weights) * np.linalg.norm(b)
        )
        assert null < 0.05

    def test_distortionless_constraint(self, geom, rng):
        snaps = random_complex(rng, (geom.n, 300))
        cov = estimate_covariance(snaps, 1e-3)
        a = steer(geom, 12.0, -4.0)
        corr = mvdr_correlator(cov, a)
        assert abs(np.vdot(corr.weights, a) - 1.0) < 1e-9

    def test_minimum_variance_against_random_feasible_weights(self, rng):
        # brute-force oracle in small dimensions: no random weight meeting
        # the unit-gain constraint beats the closed form
        for dim in (2, 3, 4):
            snaps = random_complex(rng, (dim, 50))
            cov = estimate_covariance(snaps, 1e-2)
            a = random_complex(rng, dim)
            corr = mvdr_correlator(cov, a)
            best = np.real(np.vdot(corr.weights, cov.matrix @ corr.weights))

            basis, _ = np.linalg.qr(
                np.column_stack([a, random_complex(rng, (dim, dim - 1))])
            )
            perp = basis[:, 1:]
            z = random_complex(rng, (dim - 1, 20000))
            trials = a[:, None] / np.vdot(a, a) + perp @ z
            powers = np.real(np.einsum("in,ij,jn->n", trials.conj(), cov.matrix, trials))
            assert best <= powers.min() + 1e-10

    def test_non_positive_definite_names_pivot(self, geom):
        cov = estimate_covariance(np.zeros((4, 1)), 0.0)
        cov.matrix = np.diag([1.0, 1.0, -2.0, 1.0]).astype(complex)
        with pytest.raises(LinAlgError, match="pivot"):
            mvdr_correlator(cov, np.ones(4, dtype=complex))

    def test_factorization_error_names_its_minor_and_smallest_eigenvalue(self, rng):
        # a Hermitian matrix with one negative eigenvalue, in a random basis
        basis, _ = np.linalg.qr(random_complex(rng, (6, 6)))
        cov = estimate_covariance(np.zeros((6, 1)), 0.0)
        cov.matrix = (basis * [4.0, 3.0, 2.0, 1.0, 0.5, -0.25]) @ basis.conj().T
        with pytest.raises(LinAlgError) as failure:
            mvdr_correlator(cov, np.ones(6, dtype=complex))
        message = str(failure.value)

        # the first leading minor that is not positive definite
        minor = next(
            k for k in range(1, 7) if np.linalg.eigvalsh(cov.matrix[:k, :k]).min() <= 0
        )
        assert f"no positive pivot at leading minor {minor} of 6" in message
        printed = re.search(r"smallest eigenvalue (\S+)\)", message).group(1)
        assert printed == f"{np.linalg.eigvalsh(cov.matrix).min():.6e}"

    def test_one_factor_serves_every_solve_bit_for_bit(self, rng):
        snaps = random_complex(rng, (5, 40))
        shared = estimate_covariance(snaps, 1e-3)
        for a in random_complex(rng, (3, 5)):
            corr = mvdr_correlator(shared, a)
            own = mvdr_correlator(estimate_covariance(snaps, 1e-3), a)
            assert np.array_equal(corr.weights, own.weights)
        assert shared.factor() is shared.factor()

    def test_dimension_mismatch(self, rng):
        cov = estimate_covariance(random_complex(rng, (4, 8)), 1e-2)
        with pytest.raises(ValueError):
            mvdr_correlator(cov, np.ones(5, dtype=complex))


class TestReducedMvdr:
    def test_scalar_window_is_trivially_distortionless(self, rng):
        a_win = np.array([0.3 - 0.8j])
        win = WindowSpec(BeamspacePlan(1, 1, 1, 1), 1, 1, 0, 0)
        cov = estimate_covariance(random_complex(rng, (1, 30)), 1e-3)
        corr = mvdr_correlator(cov, a_win, win)
        assert corr.weights[0] == pytest.approx(1.0 / np.conj(a_win[0]))
        assert np.vdot(corr.weights, a_win) == pytest.approx(1.0)

    def test_full_window_lift_equals_antenna_mvdr(self, geom, rng):
        # m = n, W = M: the reduced pipeline is a unitary change of basis
        plan = BeamspacePlan.for_geometry(geom)
        win = WindowSpec(plan, plan.m_z, plan.m_x, 0, 0)
        snaps = random_complex(rng, (geom.n, 256)) + 0.5
        a = steer(geom, 8.0, 3.0)

        cov_ant = estimate_covariance(snaps, 0.0)
        c_ant = mvdr_correlator(cov_ant, a)

        beams = beamspace_transform(snaps, plan)
        reduced = extract_window(beams, win)
        a_win = windowed_steering(a, win)
        c_red = mvdr_correlator(estimate_covariance(reduced, 0.0), a_win, win)
        lifted = lift_correlator(c_red)

        scale = np.max(np.abs(c_ant.weights))
        assert np.max(np.abs(lifted.weights - c_ant.weights)) / scale < 1e-8

    def test_in_window_interferer_suppression_vs_conventional(self, geom, rng):
        # one strong interferer inside a W=4 window: adaptive weights beat
        # the non-adaptive windowed beamformer by at least 20 dB
        plan = BeamspacePlan.for_geometry(geom)
        target_sf = spatial_frequencies(Direction.from_degrees(5, 3), geom.design_freq, geom)
        interf_sf = spatial_frequencies(Direction.from_degrees(9, 5), geom.design_freq, geom)
        a_t = steering_vector(target_sf, geom)
        a_i = steering_vector(interf_sf, geom)

        n_t = 400
        interferer = np.sqrt(200.0) * np.outer(a_i, random_complex(rng, n_t) / np.sqrt(2))
        noise = random_complex(rng, (geom.n, n_t)) / np.sqrt(2)
        snaps = interferer + noise

        win = window_for(target_sf, plan, 1, 4)
        reduced = extract_window(beamspace_transform(snaps, plan), win)
        a_win = windowed_steering(a_t, win)
        i_win = windowed_steering(a_i, win)
        assert np.linalg.norm(i_win) > 1.0  # interference really is in-window

        adaptive = mvdr_correlator(estimate_covariance(reduced, 0.0), a_win, win)
        fixed = conventional_correlator(a_win, win)
        p_adaptive = abs(np.vdot(adaptive.weights, i_win)) ** 2
        p_fixed = abs(np.vdot(fixed.weights, i_win)) ** 2
        assert p_fixed / p_adaptive >= 100.0


class TestWindowGrowth:
    def test_training_output_power_monotone_in_window(self, geom, rng):
        # zero-extending any small-window feasible weight into a larger
        # window keeps the unit target gain, so the minimized training
        # power can only go down as the window grows
        plan = BeamspacePlan.for_geometry(geom)
        target_sf = spatial_frequencies(
            Direction.from_degrees(11.0, 7.0), geom.design_freq, geom
        )
        a = steering_vector(target_sf, geom)
        jam = steering_vector(
            spatial_frequencies(Direction.from_degrees(16.0, 2.0), geom.design_freq, geom),
            geom,
        )
        snaps = (
            np.sqrt(100.0) * np.outer(jam, random_complex(rng, 600) / np.sqrt(2))
            + random_complex(rng, (geom.n, 600)) / np.sqrt(2)
        )
        beams = beamspace_transform(snaps, plan)

        last_power = np.inf
        for w_z, w_x in [(1, 2), (2, 2), (2, 4), (4, 4), (4, 8), (4, 16), (4, 32)]:
            win = window_for(target_sf, plan, w_z, w_x)
            reduced = extract_window(beams, win)
            corr = mvdr_correlator(
                estimate_covariance(reduced, 0.0), windowed_steering(a, win), win
            )
            power = float(
                np.mean(np.abs(apply_correlator(corr, reduced)) ** 2)
            )
            assert power <= last_power + 1e-9
            last_power = power


class TestLiftCorrelator:
    def test_boresight_full_window_lifts_to_steering_direction(self, geom):
        plan = BeamspacePlan.for_geometry(geom)
        win = WindowSpec(plan, plan.m_z, plan.m_x, 0, 0)
        a = np.ones(geom.n, dtype=complex)
        lifted = lift_correlator(Correlator(windowed_steering(a, win) / geom.n, win))
        ratio = lifted.weights / (a / geom.n)
        assert np.allclose(ratio, ratio[0], atol=1e-12)

    def test_adjoint_identity(self, geom, rng):
        plan = BeamspacePlan(8, 64, geom.n_z, geom.n_x)
        win = WindowSpec(plan, 2, 4, 1, 9)
        c = random_complex(rng, win.w)
        y = random_complex(rng, geom.n)
        windowed = extract_window(beamspace_transform(y, plan), win)
        lhs = np.vdot(c, windowed)
        lifted = lift_correlator(Correlator(c, win))
        rhs = np.vdot(lifted.weights, y)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_dual_application_paths_agree(self, geom, rng):
        plan = BeamspacePlan.for_geometry(geom)
        win = WindowSpec(plan, 2, 4, 3, 20)
        c = Correlator(random_complex(rng, win.w), win)
        lifted = lift_correlator(c)
        snaps = random_complex(rng, (geom.n, 1000))
        via_beamspace = apply_correlator(
            c, extract_window(beamspace_transform(snaps, plan), win)
        )
        via_antenna = apply_correlator(lifted, snaps)
        assert np.max(np.abs(via_beamspace - via_antenna)) < 1e-10

    def test_only_beamspace_correlators_lift(self, geom):
        with pytest.raises(ValueError, match="^can only lift windowed-beamspace"):
            lift_correlator(Correlator(np.ones(geom.n)))

    def test_group_is_each_correlator_in_one_transform(self, geom, rng):
        plan = BeamspacePlan(8, 64, geom.n_z, geom.n_x)
        wins = [WindowSpec(plan, 2, 4, 1, 9), WindowSpec(plan, 3, 5, 0, 63)] * 2
        corrs = [Correlator(random_complex(rng, win.w), win) for win in wins]
        lifted = lift_correlator(corrs)
        assert len(lifted) == len(corrs)
        for group, corr in zip(lifted, corrs):
            assert group.window is None
            assert np.array_equal(group.weights, lift_correlator(corr).weights)
        assert lift_correlator([]) == []
        other = Correlator(np.ones(8), WindowSpec(BeamspacePlan.for_geometry(geom), 2, 4, 0, 0))
        with pytest.raises(ValueError, match="^can only lift correlators on one beam grid, got 2"):
            lift_correlator([corrs[0], other])

    def test_weights_must_match_their_window(self, geom):
        win = WindowSpec(BeamspacePlan.for_geometry(geom), 2, 4, 0, 0)
        with pytest.raises(ValueError, match=r"^weights length 9 != window size 8"):
            Correlator(np.ones(9, dtype=complex), win)


class TestApplyCorrelator:
    def test_unit_vector_picks_first_channel(self, rng):
        e1 = np.zeros(4, dtype=complex)
        e1[0] = 1.0
        snaps = random_complex(rng, (4, 10))
        out = apply_correlator(Correlator(e1), snaps)
        assert np.array_equal(out, snaps[0])

    def test_own_steering_gives_unity(self, geom, rng):
        a = steer(geom, -15.0, 8.0)
        cov = estimate_covariance(random_complex(rng, (geom.n, 300)), 1e-3)
        corr = mvdr_correlator(cov, a)
        assert apply_correlator(corr, a) == pytest.approx(1.0, abs=1e-9)

    def test_group_is_each_correlator_in_one_product(self, rng):
        corrs = [Correlator(random_complex(rng, 6)) for _ in range(3)]
        snaps = random_complex(rng, (6, 40))
        out = apply_correlator(corrs, snaps)
        assert out.shape == (3, 40)
        for row, corr in zip(out, corrs):
            assert np.array_equal(row, apply_correlator(corr, snaps))
        assert apply_correlator(corrs, snaps[:, 0]).shape == (3,)
        assert apply_correlator([], snaps).shape == (0, 40)
        with pytest.raises(ValueError, match="snapshot length"):
            apply_correlator(corrs, snaps[:5])

    def test_linearity(self, rng):
        corr = Correlator(random_complex(rng, 6))
        y1, y2 = random_complex(rng, 6), random_complex(rng, 6)
        lhs = apply_correlator(corr, y1 + 3j * y2)
        rhs = apply_correlator(corr, y1) + 3j * apply_correlator(corr, y2)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBeamPattern:
    def test_matched_weights_peak_at_unity(self, geom):
        a = steer(geom, 10.0, 5.0)
        corr = Correlator(a / np.linalg.norm(a) ** 2)
        az = np.deg2rad(np.array([0.0, 10.0, 20.0]))
        el = np.deg2rad(np.array([0.0, 5.0]))
        pattern = beam_pattern(corr, az, el, geom, geom.design_freq)
        assert pattern.shape == (2, 3)
        assert pattern[1, 1] == pytest.approx(1.0, rel=1e-12)
        assert np.all(pattern <= 1.0 + 1e-12)

    def test_trained_null_toward_interferer(self, geom, rng):
        a_t = steer(geom, 0.0, 12.0)
        a_i = steer(geom, 0.0, 22.0)
        snaps = (
            np.sqrt(1000.0) * np.outer(a_i, random_complex(rng, 500) / np.sqrt(2))
            + random_complex(rng, (geom.n, 500)) / np.sqrt(2)
        )
        corr = mvdr_correlator(estimate_covariance(snaps, 0.0), a_t)
        az = np.deg2rad(np.array([0.0]))
        el = np.deg2rad(np.array([12.0, 22.0]))
        pattern = beam_pattern(corr, az, el, geom, geom.design_freq)
        assert pattern[1, 0] <= 0.1 * pattern[0, 0]

    def test_zero_norm_rejected(self, geom):
        with pytest.raises(ValueError):
            beam_pattern(
                Correlator(np.zeros(geom.n, dtype=complex)),
                np.array([0.0]),
                np.array([0.0]),
                geom,
                geom.design_freq,
            )

    def test_windowed_correlator_pattern_is_its_lifts(self, geom, rng):
        win = WindowSpec(BeamspacePlan(8, 64, geom.n_z, geom.n_x), 2, 4, 1, 9)
        corr = Correlator(random_complex(rng, win.w), win)
        az, el = np.deg2rad(np.arange(-60.0, 61.0, 15.0)), np.deg2rad(np.array([-20.0, 0.0, 7.0]))
        pattern = beam_pattern(corr, az, el, geom, geom.design_freq)
        lifted = beam_pattern(lift_correlator(corr), az, el, geom, geom.design_freq)
        assert np.array_equal(pattern, lifted)


class TestDistortionlessProperty:
    """MVDR keeps w^H a = 1 for any training data, direction, window and
    loading, in either basis; lifted beamspace weights keep it on the antenna
    steering."""

    @given(
        n_z=st.integers(1, 4),
        n_x=st.integers(1, 6),
        pad=st.tuples(st.integers(0, 4), st.integers(0, 6)),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_w_h_a_is_one(self, n_z, n_x, pad, data, seed):
        rng = np.random.default_rng(seed)
        geom = ArrayGeometry(n_z, n_x, 10e9)
        plan = BeamspacePlan(n_z + pad[0], n_x + pad[1], n_z, n_x)
        sf = SpatialFrequencies(*rng.uniform(-np.pi, np.pi, 2))
        a = steering_vector(sf, geom)
        # colored snapshots give a random covariance; loading keeps it invertible
        n_t = data.draw(st.integers(1, 2 * geom.n))
        snaps = random_complex(rng, (geom.n, geom.n)) @ random_complex(rng, (geom.n, n_t))
        loading = data.draw(st.sampled_from([1e-3, 1e-1, 1.0]))

        w = mvdr_correlator(estimate_covariance(snaps, loading), a).weights
        assert abs(np.vdot(w, a) - 1) < 1e-9

        w_z, w_x = data.draw(st.integers(1, plan.m_z)), data.draw(st.integers(1, plan.m_x))
        win = window_for(sf, plan, w_z, w_x)
        a_w = windowed_steering(a, win)
        training = extract_window(beamspace_transform(snaps, plan), win)
        corr = mvdr_correlator(estimate_covariance(training, loading), a_w, win)
        assert abs(np.vdot(corr.weights, a_w) - 1) < 1e-9
        lifted = lift_correlator(corr).weights
        assert abs(np.vdot(lifted, a) - 1) < 1e-9


class TestReedMallettBrennan:
    """Sample MVDR's normalized SINR loss on Gaussian snapshots of a known
    covariance is Beta(n_t + 2 - W, W - 1) distributed, with mean
    (n_t + 2 - W)/(n_t + 1) (Reed, Mallett & Brennan, IEEE TAES 1974).  It
    holds unloaded only, in any basis the snapshots are taken in."""

    TRIALS = 4000

    @staticmethod
    def sinr_loss(w, a, cov):
        """Output SINR of ``w`` over the optimum's, under the true ``cov``."""
        optimum = np.vdot(a, np.linalg.solve(cov, a)).real
        return abs(np.vdot(w, a)) ** 2 / (np.vdot(w, cov @ w).real * optimum)

    @pytest.mark.parametrize("basis", ["antenna", "beamspace"])
    def test_mean_sinr_loss(self, basis):
        geom = ArrayGeometry(4, 4, 10e9)
        # unit thermal noise plus interferers at 20 and 30 dB INR
        cov = np.eye(geom.n, dtype=complex)
        for az, el, inr in ((25.0, 5.0, 100.0), (-12.0, -8.0, 1000.0)):
            a_i = steer(geom, az, el)
            cov += inr * np.outer(a_i, a_i.conj())
        direction = Direction.from_degrees(4.0, 2.0)
        plan = BeamspacePlan.for_geometry(geom, 4, 8)
        win = window_for(spatial_frequencies(direction, geom.design_freq, geom), plan, 2, 4)

        def select(snaps):
            """Antenna column(s) in the basis: every row, or the window's beams."""
            if basis == "antenna":
                return snaps
            return extract_window(beamspace_transform(snaps, plan), win)

        # the steering and the true covariance in the basis: S T a and S T R T^H S^H
        a = select(steer(geom, 4.0, 2.0))
        cov_rows = select(select(cov).conj().T)
        dim = len(a)
        n_t = 2 * dim

        rng = np.random.default_rng(1974)
        color = np.linalg.cholesky(cov)
        losses = np.empty(self.TRIALS)
        for i in range(self.TRIALS):
            white = rng.standard_normal((geom.n, n_t)) + 1j * rng.standard_normal((geom.n, n_t))
            training = select(color @ white / np.sqrt(2))
            w = mvdr_correlator(estimate_covariance(training, 0.0), a).weights
            losses[i] = self.sinr_loss(w, a, cov_rows)

        alpha, beta = n_t + 2 - dim, dim - 1
        mean = alpha / (n_t + 1)
        var = alpha * beta / ((n_t + 1) ** 2 * (n_t + 2))
        z = (losses.mean() - mean) / np.sqrt(var / self.TRIALS)
        assert abs(z) < 4, (losses.mean(), mean, z)
