"""Critically sampled block-DFT channelizer and its exact inverse.

The fast-time axis is cut into consecutive length-L blocks and each block
is DFT'd after a half-bin upward modulation, so that subband ``l`` is
centered exactly on the subband-center frequency grid
f_c + (l - 1/2)/L * f_s with l in {-L/2+1, ..., L/2}.  DFT bin b maps to
subband index l = b for b <= L/2 and l = b - L above.  The forward DFT is
unscaled and the inverse carries the 1/L factor, so channelizing multiplies
total energy by exactly L and the round trip is lossless.
"""

from __future__ import annotations

import numpy as np

from .geometry import subband_center_freq
from .simulate import ChirpParams, DataCube


def subband_index_for_bin(bins, L: int):
    """Map DFT bin(s) 0..L-1 to subband indices l in {-L/2+1, ..., L/2}."""
    b = np.asarray(bins)
    l = np.where(b <= L // 2, b, b - L)
    return int(l) if np.isscalar(bins) else l


def bin_center_frequencies(L: int, chirp: ChirpParams) -> np.ndarray:
    """Subband center frequency for every DFT bin, in bin order."""
    if L == 1:
        return np.array([chirp.carrier_freq])
    l = subband_index_for_bin(np.arange(L), L)
    return subband_center_freq(l, L, chirp.carrier_freq, chirp.sample_rate)


def _half_bin_ramp(L: int) -> np.ndarray:
    return np.exp(1j * np.pi * np.arange(L) / L)


def channelize(cube: DataCube, L: int, *, _overwrite: bool = False) -> np.ndarray:
    """Split the cube's fast-time axis into L critically sampled subbands.

    L must divide the pulse length and be even; L == 1 passes the cube
    through as a single band.  Returns the subbands, shape (antennas,
    subbands, snapshots per pulse, pulses), the layout :func:`synthesize`
    takes.

    The result is a strided view: its buffer is laid out (antennas,
    snapshots per pulse, subbands, pulses), the order the per-block DFT
    writes it in, so ``result.transpose(0, 2, 1, 3)`` is C-contiguous, and
    a subband ``result[:, b]`` is a strided (antennas, snapshots, pulses)
    view that the beamspace transform reads in place.  By default the
    buffer is fresh, so the cube is left as it was and the caller holds two
    cube-sized arrays.  ``_overwrite`` is for a caller that owns a
    complex128 cube and will not read it again: the subbands are then
    written over the cube's own samples, so no second cube-sized array is
    made.  With a single subband the result is always a view of the cube's
    samples, to be read only.  The pipeline's beamforming is the subbands'
    last reader: ``run_pipeline`` and ``process_cube`` free the buffer when
    it returns, and a ``sweep`` keeps it only until the last of the points
    that share the cube has beamformed.
    """
    n_fast = cube.chirp.pulse_samples
    if n_fast % L != 0:
        raise ValueError(f"subband count {L} does not divide pulse_samples {n_fast}")
    if L == 1:
        return cube.samples[:, None, :, :]
    if L % 2 != 0:
        raise ValueError(f"subband count {L} must be even (or 1 for passthrough)")

    n_ant, _, n_pulses = cube.samples.shape
    n_snap = n_fast // L
    blocks = cube.samples.reshape(n_ant, n_snap, L, n_pulses)
    ramp = _half_bin_ramp(L)[None, :, None]
    # (antenna, snapshot, subband, pulse): each block's DFT lands where it was read
    dst = blocks if _overwrite else np.empty(blocks.shape, dtype=complex)
    # one antenna at a time, so no cube-sized temporary exists beside dst
    for ant in range(n_ant):
        np.multiply(blocks[ant], ramp, out=dst[ant])
        np.fft.fft(dst[ant], axis=1, out=dst[ant])
    return dst.transpose(0, 2, 1, 3)


def synthesize(subband_outputs: np.ndarray) -> np.ndarray:
    """Rebuild wideband series from per-subband snapshot streams.

    The trailing three axes are (subbands, snapshots, pulses); any leading
    axes are treated as independent streams.  Output trailing axes are
    (subbands * snapshots, pulses).  Exact inverse of :func:`channelize`.
    """
    arr = np.asarray(subband_outputs)
    if arr.ndim < 3:
        raise ValueError("expected trailing axes (subbands, snapshots, pulses)")
    L, n_snap, n_pulses = arr.shape[-3:]
    if L == 1:
        return arr.reshape(*arr.shape[:-3], n_snap, n_pulses)

    blocks = np.moveaxis(arr, -3, -2)  # (..., snapshots, L, pulses)
    # the inverse DFT lands in the output's own layout and is ramped there, so
    # the wideband series is the only array this allocates
    time_blocks = np.empty(blocks.shape, dtype=complex)
    np.fft.ifft(blocks, axis=-2, out=time_blocks)
    time_blocks *= _half_bin_ramp(L).conj()[:, None]
    return time_blocks.reshape(*arr.shape[:-3], n_snap * L, n_pulses)
