"""Closed-form complex-multiplication counts of the processing kernels.

The kernels only compute.  The pipeline tallies them: beside each kernel
call it adds the closed form below at that call's own dimensions to the
call's stage (see :mod:`bsradar.pipeline` for the accounting rule).  The
tallies are therefore deterministic, machine independent, additive across
stages, and reproducible run to run.  Real-by-complex scalings and
additions are not counted.
"""

from __future__ import annotations


def _log2_ceil(n: int) -> int:
    if n <= 1:
        return 0
    return (n - 1).bit_length()


def fft_mults(n: int) -> int:
    """Twiddle multiplies of a radix-2 FFT of length ``n``: (n/2) log2 n.

    Non-power-of-two lengths use ceil(log2 n); every counted path in this
    package uses power-of-two sizes.
    """
    if n <= 1:
        return 0
    return (n * _log2_ceil(n)) // 2


def beamspace_fft_mults(n_x: int, m_z: int, m_x: int) -> int:
    """Zero-padded 2D spatial FFT: n_x column FFTs of m_z, then m_z row FFTs of m_x.

    The first stage only runs over the n_x occupied columns; the padded
    columns are identically zero and are never transformed.
    """
    return n_x * fft_mults(m_z) + m_z * fft_mults(m_x)


def outer_product_mults(dim: int, n_snapshots: int) -> int:
    """Sample-covariance accumulation of n snapshot outer products."""
    return n_snapshots * dim * dim


def cholesky_mults(d: int) -> int:
    """Multiplies of an in-place Hermitian Cholesky factorization (~d^3/6)."""
    return d * (d - 1) // 2 + d * (d - 1) * (d + 1) // 6


def triangular_solve_mults(d: int) -> int:
    """Forward or back substitution against a d-by-d triangular factor."""
    return d * (d + 1) // 2


def matvec_mults(dim: int, n: int = 1) -> int:
    """n inner products (or one mat-vec with n columns) of length dim."""
    return dim * n


def mvdr_solve_mults(d: int) -> int:
    """Factor, two substitutions, and the distortionless normalization."""
    return cholesky_mults(d) + 2 * triangular_solve_mults(d) + matvec_mults(d)


def channelize_mults(n_streams: int, n_blocks: int, subbands: int) -> int:
    """Half-bin modulation plus one subband FFT per fast-time block."""
    if subbands <= 1:
        return 0
    return n_streams * n_blocks * (subbands + fft_mults(subbands))


def synthesize_mults(n_blocks: int, subbands: int) -> int:
    """Inverse of :func:`channelize_mults` for one output stream."""
    if subbands <= 1:
        return 0
    return n_blocks * (fft_mults(subbands) + subbands)


def range_doppler_mults(n_fast: int, n_pulses: int) -> int:
    """Circular matched filter per pulse plus the slow-time DFT per range bin."""
    return n_pulses * (2 * fft_mults(n_fast) + n_fast) + n_fast * fft_mults(n_pulses)
