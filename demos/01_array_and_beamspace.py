"""Steering vectors, the beamspace transform, and window energy capture.

Walks the spatial side of the library: how a planar-array steering vector
is built, how the 2D spatial FFT concentrates a plane wave into a few beam
bins, and how much energy a small fixed window keeps as the arrival moves
off the bin grid.
"""

import numpy as np

from bsradar import (
    ArrayGeometry,
    BeamspacePlan,
    ChirpParams,
    Direction,
    beamspace_transform,
    bin_center_frequencies,
    extract_window,
    spatial_frequencies,
    steering_vector,
    window_for,
)


def main() -> None:
    geom = ArrayGeometry(n_z=4, n_x=32, design_freq=10e9)
    print(f"array: {geom.n_z} x {geom.n_x} = {geom.n} elements, "
          f"spacing {geom.spacing * 100:.2f} cm (half wavelength)")

    # subband centers: the widest and narrowest frequencies the pipeline sees
    freqs = bin_center_frequencies(128, ChirpParams())
    print(f"128 subbands span {freqs.min() / 1e9:.4f} .. {freqs.max() / 1e9:.4f} GHz")

    direction = Direction.from_degrees(azimuth_deg=20.0, elevation_deg=10.0)
    sf = spatial_frequencies(direction, geom.design_freq, geom)
    a = steering_vector(sf, geom)
    print(f"\narrival at (az 20, el 10) deg -> omega_x {sf.omega_x:+.3f}, "
          f"omega_z {sf.omega_z:+.3f} rad/element, ||a||^2 = {np.linalg.norm(a) ** 2:.0f}")

    # beamspace concentration without and with zero padding
    for m_z, m_x in [(4, 32), (8, 64)]:
        plan = BeamspacePlan(m_z, m_x, geom.n_z, geom.n_x)
        beam = beamspace_transform(a, plan)
        energy = np.abs(beam) ** 2 / np.linalg.norm(a) ** 2
        top = np.sort(energy)[::-1]
        print(f"plan {m_z}x{m_x}: strongest bin holds {top[0] * 100:5.1f}% of the "
              f"energy, top 8 bins {top[:8].sum() * 100:5.1f}%")

    # window capture as the target slides off the grid
    plan = BeamspacePlan.for_geometry(geom)
    print("\n2x4 window energy capture vs azimuth offset from a beam bin:")
    for frac in (0.0, 0.25, 0.5):
        sf_off = type(sf)(2 * np.pi * (9 + frac) / plan.m_x, 0.0)
        a_off = steering_vector(sf_off, geom)
        win = window_for(sf_off, plan, 2, 4)
        kept = np.linalg.norm(extract_window(beamspace_transform(a_off, plan), win)) ** 2
        print(f"  offset {frac:4.2f} bins -> {kept / geom.n * 100:5.1f}% captured")


if __name__ == "__main__":
    main()
