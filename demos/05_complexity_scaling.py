"""Arithmetic-cost scaling of full-dimension vs windowed-beamspace MVDR.

Each run's complexity report models the complex multiplications of every
stage in closed form; this script collects the per-(target, subband)
training cost and the per-snapshot application cost as the array grows,
holding the window at 2x4.  Full-dimension training follows the cubic
trend while the reduced pipeline tracks the spatial-FFT cost.
"""

import numpy as np

from bsradar import ArrayGeometry, ChirpParams, PipelineConfig, Scenario, TargetSpec, run_pipeline


def bench_scene(seed=3):
    rng = np.random.default_rng(seed)
    targets = tuple(
        TargetSpec(
            position=(rng_m * np.sin(az), rng_m * np.cos(az), 0.0),
            radial_velocity=float(rng.uniform(-40, 40)),
        )
        for rng_m, az in zip((30.0, 60.0, 90.0, 120.0),
                             np.deg2rad((-20.0, -5.0, 10.0, 25.0)))
    )
    return Scenario(targets=targets, noise_power=1.0, seed=seed, label="bench")


def main() -> None:
    chirp = ChirpParams(pulse_samples=512, num_pulses=16, pri=2e-6)
    scene = bench_scene()

    print(f"{'array':>8} {'N':>5} | {'antenna train':>14} {'beam train':>11} "
          f"{'ratio':>6} | {'antenna apply':>13} {'beam apply':>10}")
    rows = []
    for n_z, n_x in [(2, 16), (4, 32), (8, 32), (8, 64)]:
        geom = ArrayGeometry(n_z, n_x, 10e9)
        # keep the training snapshot count at 2N as the array grows
        train_pulses = max(1, 2 * geom.n // (chirp.pulse_samples // 8))
        reports = {}
        for method in ("antenna-mvdr", "beamspace-mvdr"):
            cfg = PipelineConfig(
                scenario=scene, geometry=geom, chirp=chirp, method=method,
                subbands=8, window=(2, 4), train_pulses=train_pulses,
            )
            reports[method] = run_pipeline(cfg).complexity
        ant, beam = reports["antenna-mvdr"], reports["beamspace-mvdr"]
        ratio = ant.training_mults_per_pair / beam.training_mults_per_pair
        rows.append((geom.n, ant, beam))
        print(f"{n_z:>4}x{n_x:<3} {geom.n:>5} | {ant.training_mults_per_pair:>14,} "
              f"{beam.training_mults_per_pair:>11,} {ratio:>6.0f} | "
              f"{ant.application_mults_per_snapshot:>13,} "
              f"{beam.application_mults_per_snapshot:>10,}")

    n0, ant0, beam0 = rows[1]
    n1, ant1, beam1 = rows[2]
    print(f"\ndoubling N from {n0} to {n1}:")
    print(f"  antenna training grows "
          f"{ant1.training_mults_per_pair / ant0.training_mults_per_pair:.1f}x (cubic trend)")
    print(f"  beamspace per-snapshot cost grows "
          f"{beam1.application_mults_per_snapshot / beam0.application_mults_per_snapshot:.2f}x "
          "(FFT trend)")


if __name__ == "__main__":
    main()
