"""Adaptive nulling in antenna space and in a reduced beamspace window.

Trains MVDR weights against a strong directional interferer and compares
them with the non-adaptive beamformer, in the full 128-dimensional antenna
space and in an 8-dimensional beamspace window.  The windowed weights are
lifted back to antenna space to show the two application paths agree.
"""

import numpy as np

from bsradar import (
    ArrayGeometry,
    BeamspacePlan,
    Direction,
    apply_correlator,
    beam_pattern,
    beamspace_transform,
    conventional_correlator,
    estimate_covariance,
    extract_window,
    lift_correlator,
    mvdr_correlator,
    spatial_frequencies,
    steering_vector,
    window_for,
    windowed_steering,
)


def main() -> None:
    rng = np.random.default_rng(7)
    geom = ArrayGeometry(n_z=4, n_x=32, design_freq=10e9)
    target = Direction.from_degrees(0.0, 12.0)
    jammer = Direction.from_degrees(0.0, 22.0)

    sf_t = spatial_frequencies(target, geom.design_freq, geom)
    sf_j = spatial_frequencies(jammer, geom.design_freq, geom)
    a_t = steering_vector(sf_t, geom)
    a_j = steering_vector(sf_j, geom)

    # 30 dB interferer plus unit noise, 512 training snapshots
    n_t = 512
    jam = np.sqrt(1000.0 / 2) * (rng.standard_normal(n_t) + 1j * rng.standard_normal(n_t))
    noise = (rng.standard_normal((geom.n, n_t)) + 1j * rng.standard_normal((geom.n, n_t))) / np.sqrt(2)
    snaps = np.outer(a_j, jam) + noise

    cov = estimate_covariance(snaps, loading_factor=1e-3)
    adaptive = mvdr_correlator(cov, a_t)
    fixed = conventional_correlator(a_t)

    def out_power(corr):
        return np.mean(np.abs(apply_correlator(corr, snaps)) ** 2)

    print("antenna-space beamformers against a 30 dB interferer:")
    print(f"  conventional output power: {10 * np.log10(out_power(fixed)):6.1f} dB")
    print(f"  MVDR output power:         {10 * np.log10(out_power(adaptive)):6.1f} dB")
    print(f"  both keep unit target gain: "
          f"{abs(np.vdot(adaptive.weights, a_t)):.6f}, "
          f"{abs(np.vdot(fixed.weights, a_t)):.6f}")

    # the same contest inside a 2x4 beamspace window
    plan = BeamspacePlan.for_geometry(geom)
    win = window_for(sf_t, plan, 2, 4)
    reduced = extract_window(beamspace_transform(snaps, plan), win)
    a_win = windowed_steering(a_t, win)
    small = mvdr_correlator(estimate_covariance(reduced, 1e-3), a_win, win)
    print(f"\nwindowed beamspace (W={win.w}): output power "
          f"{10 * np.log10(np.mean(np.abs(apply_correlator(small, reduced)) ** 2)):6.1f} dB")

    lifted = lift_correlator(small)
    dual = np.max(np.abs(
        apply_correlator(small, reduced) - apply_correlator(lifted, snaps)
    ))
    print(f"lifted weights reproduce the windowed output to {dual:.2e}")

    # pattern cuts along elevation through both sources; beam_pattern
    # evaluates the windowed weights through their lift
    elevations = np.deg2rad(np.arange(0.0, 35.0, 1.0))
    az = np.deg2rad([0.0])
    for label, corr in [("antenna MVDR", adaptive), ("lifted 2x4 MVDR", small)]:
        pattern = beam_pattern(corr, az, elevations, geom, geom.design_freq)[:, 0]
        at = pattern[12]
        nul = pattern[22]
        print(f"{label:>16}: gain(target) {at:.3f}, gain(jammer) {nul:.5f}, "
              f"depth {20 * np.log10(nul / at):6.1f} dB")


if __name__ == "__main__":
    main()
