"""Critically sampled block-DFT channelizer and its exact inverse.

The fast-time axis is cut into consecutive length-L blocks and each block
is DFT'd after a half-bin upward modulation, so that every DFT bin is
centered exactly on its subband's frequency, the grid that
:func:`bin_center_frequencies` states and the beamformer steers by.  The
forward DFT is unscaled and the inverse carries the 1/L factor, so
channelizing multiplies total energy by exactly L and the round trip is
lossless.

Every length-L block lies within one pulse, so pulses channelize independently:
:func:`channelize_into` writes any range of a cube's pulses into a buffer of
that range's size, or over the range's own samples, and :func:`channelize`
writes every pulse into a fresh buffer.  Which cube may be written over is
the caller's to decide (the pipeline writes over the cubes it made itself).

:func:`check_subbands` is the one statement of which subband counts a
pulse admits; the channelizer applies it to every call, and
``PipelineConfig.validate`` asks it of a run's ``subbands`` before any
stage runs, so both reject a count with the same message.
"""

from __future__ import annotations

import numpy as np

from .geometry import is_count
from .simulate import ChirpParams, DataCube


def bin_center_frequencies(L: int, chirp: ChirpParams) -> np.ndarray:
    """Subband center frequency for every DFT bin, in bin order.

    Bin b is subband l = b for b <= L/2 and l = b - L above, centered at
    f_c + (l - 1/2)/L * f_s, so l runs over {-L/2+1, ..., L/2} and the
    centers step by f_s/L symmetrically about the carrier f_c.  A single
    subband is the carrier itself.  L must pass :func:`check_subbands` for
    the chirp's pulse."""
    check_subbands(L, chirp.pulse_samples)
    if L == 1:
        return np.array([chirp.carrier_freq])
    b = np.arange(L)
    l = np.where(b <= L // 2, b, b - L)
    return chirp.carrier_freq + (l - 0.5) / L * chirp.sample_rate


def check_subbands(L: int, pulse_samples: int) -> None:
    """Reject a subband count the channelizer cannot run: it is an int, at
    least 1, divides the pulse, and is even unless it is 1 (a passthrough)."""
    if not is_count(L):
        raise ValueError(f"subbands: {L!r} is not an integer")
    if L < 1:
        raise ValueError(f"subbands: {L} must be >= 1")
    if pulse_samples % L != 0:
        raise ValueError(f"subbands: {L} does not divide pulse_samples {pulse_samples}")
    if L != 1 and L % 2 != 0:
        raise ValueError(f"subbands: {L} must be even (or 1)")


def _half_bin_ramp(L: int) -> np.ndarray:
    return np.exp(1j * np.pi * np.arange(L) / L)


def channelize(cube: DataCube, L: int) -> np.ndarray:
    """Split the cube's fast-time axis into L critically sampled subbands.

    L must pass :func:`check_subbands`; L == 1 passes the cube through as
    a single band.  Returns the subbands, shape (antennas,
    subbands, snapshots per pulse, pulses), the layout :func:`synthesize`
    takes: :func:`channelize_into` over every pulse of the cube.

    The subbands are written into a fresh buffer, so the cube is left as it
    was and the caller holds two cube-sized arrays; a caller that owns its
    cube and will not read it again calls ``channelize_into(samples, L,
    samples)`` instead, which writes them over the cube's own samples.  With
    a single subband the result is a view of the cube's samples, to be read
    only.
    """
    samples = cube.samples
    out = samples if L == 1 else np.empty(samples.shape, dtype=complex)
    return channelize_into(samples, L, out)


def channelize_into(samples: np.ndarray, L: int, out: np.ndarray) -> np.ndarray:
    """Channelize (antennas, fast-time samples, pulses) into ``out``.

    ``samples`` may be any range of a cube's pulses, a strided view of its
    samples; ``out`` is a complex128 array of the same shape, or
    ``samples`` itself to channelize in place.  Returns the subbands
    (antennas, subbands, snapshots per pulse, pulses) as a strided view of
    ``out``: its buffer is laid out (antennas, snapshots per pulse,
    subbands, pulses), the order the per-block DFT writes it in, so
    ``result.transpose(0, 2, 1, 3)`` is laid out like ``out``, and a
    subband ``result[:, b]`` is a strided (antennas, snapshots, pulses)
    view.  Each fast-time block's DFT reads one pulse's samples only, so
    channelizing a cube a range of pulses at a time gives the same bits as
    channelizing it whole.  With L == 1 the result is a view of ``samples``
    and ``out`` is not written.  A count :func:`check_subbands` rejects
    raises its ``ValueError`` before anything is written.
    """
    n_ant, n_fast, n_pulses = samples.shape
    check_subbands(L, n_fast)
    if L == 1:
        return samples[:, None, :, :]

    n_snap = n_fast // L
    blocks = samples.reshape(n_ant, n_snap, L, n_pulses)
    ramp = _half_bin_ramp(L)[None, :, None]
    # (antenna, snapshot, subband, pulse): each block's DFT lands where it was read
    dst = out.reshape(n_ant, n_snap, L, n_pulses, copy=False)
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
