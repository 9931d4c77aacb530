"""Zero-padded 2D spatial DFT (beamspace) and fixed rectangular windows.

The transform maps a length-N antenna snapshot onto an m_z-by-m_x beam grid
through the scaled truncated DFT pair, flattened x-major / z-fastest like
the steering vectors.  With the 1/sqrt(m_z m_x) scaling the transform is an
isometry for any m >= n: columns of the implied matrix are orthonormal, so
snapshot energy is preserved exactly (not merely up to a ratio).

Both directions run as per-axis ``scipy.fft`` transforms on a reshaped view
of their input, so a subband's strided (antennas, snapshots, pulses) view
of the channelizer's buffer is read in place, never gathered first.  The
second stage overwrites the first stage's result, and the scaling is done
in place, so a call allocates its result plus, when the x axis is padded,
the first stage.  (``channelizer`` and ``simulate`` keep ``np.fft``: they
write into preallocated buffers with ``out=``, which ``scipy.fft`` lacks.)

A window is a rectangle of bins on one plan's grid and carries that plan,
so it is checked against its grid once, when it is built, and the functions
that select, scatter or steer through it take the window alone.  Windows
wrap circularly (the spatial DFT is periodic); an even-width window spans
floor(w/2) bins below its center and the remainder above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .geometry import ArrayGeometry, SpatialFrequencies, check_count

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class BeamspacePlan:
    """Beam-grid sizes (m_z, m_x) over an n_z-by-n_x array; m >= n per axis."""

    m_z: int
    m_x: int
    n_z: int
    n_x: int

    def __post_init__(self) -> None:
        check_count(self, *vars(self))
        if self.n_z < 1 or self.n_x < 1:
            raise ValueError("array dims must be >= 1")
        if self.m_z < self.n_z or self.m_x < self.n_x:
            raise ValueError(
                f"FFT sizes ({self.m_z}, {self.m_x}) must cover the array "
                f"({self.n_z}, {self.n_x}); zero-padding only enlarges"
            )

    @classmethod
    def for_geometry(
        cls, geom: ArrayGeometry, m_z: int | None = None, m_x: int | None = None
    ) -> "BeamspacePlan":
        m_z, m_x = geom.n_z if m_z is None else m_z, geom.n_x if m_x is None else m_x
        return cls(m_z, m_x, geom.n_z, geom.n_x)

    @property
    def m(self) -> int:
        return self.m_z * self.m_x

    @property
    def n(self) -> int:
        return self.n_z * self.n_x


@dataclass(frozen=True)
class WindowSpec:
    """w_z-by-w_x rectangle of ``plan``'s beam bins centered at (center_row,
    center_col); it fits the grid and its center is a bin of the grid."""

    plan: BeamspacePlan
    w_z: int
    w_x: int
    center_row: int
    center_col: int

    def __post_init__(self) -> None:
        check_count(self, "w_z", "w_x", "center_row", "center_col")
        m_z, m_x = self.plan.m_z, self.plan.m_x
        if self.w_z < 1 or self.w_x < 1:
            raise ValueError("window dims must be >= 1")
        if self.w_z > m_z or self.w_x > m_x:
            raise ValueError(f"window ({self.w_z}, {self.w_x}) exceeds beam grid ({m_z}, {m_x})")
        if not (0 <= self.center_row < m_z and 0 <= self.center_col < m_x):
            center = (self.center_row, self.center_col)
            raise ValueError(f"window center {center} is off the beam grid ({m_z}, {m_x})")

    @property
    def w(self) -> int:
        return self.w_z * self.w_x


def beamspace_transform(y: np.ndarray, plan: BeamspacePlan) -> np.ndarray:
    """Project antenna snapshot(s) onto the beam grid.

    ``y`` is a length-N vector or an (N, ...) batch of snapshots, such as a
    subband's (antennas, snapshots, pulses) view; the result has length
    m_z*m_x per snapshot, x-major / z-fastest, over the same trailing axes.
    Implemented as a zero-padded two-stage FFT that reads ``y`` in place
    (any strides) and allocates little beyond its result; identical to the
    dense transform matrix product to floating-point roundoff.
    """
    arr = np.asarray(y)
    if arr.shape[0] != plan.n:
        raise ValueError(f"snapshot length {arr.shape[0]} != array size {plan.n}")
    snaps = arr.shape[1:]

    grid = arr.reshape(plan.n_x, plan.n_z, *snaps)
    stage_z = scipy.fft.fft(grid, n=plan.m_z, axis=1)
    out = scipy.fft.fft(stage_z, n=plan.m_x, axis=0, overwrite_x=True)
    out /= np.sqrt(plan.m)
    return out.reshape(plan.m, *snaps)


def adjoint_transform(x: np.ndarray, plan: BeamspacePlan) -> np.ndarray:
    """Apply the conjugate-transposed beamspace transform to beam vector(s)."""
    arr = np.asarray(x)
    if arr.shape[0] != plan.m:
        raise ValueError(f"beam vector length {arr.shape[0]} != grid size {plan.m}")
    snaps = arr.shape[1:]

    grid = arr.reshape(plan.m_x, plan.m_z, *snaps)
    stage_x = scipy.fft.ifft(grid, axis=0)[: plan.n_x]
    stage_x *= plan.m_x
    stage_z = scipy.fft.ifft(stage_x, axis=1, overwrite_x=True)[:, : plan.n_z]
    stage_z *= plan.m_z
    out = stage_z.reshape(plan.n, *snaps)
    out /= np.sqrt(plan.m)
    return out


def window_center(sf: SpatialFrequencies, plan: BeamspacePlan) -> tuple[int, int]:
    """Beam-grid bin (row, col) nearest to the given spatial frequencies.

    Rounds half-integer positions to the even bin (numpy rounding).  An
    on-grid steering vector maps to the single bin its transform occupies.
    """
    row = int(np.round(sf.omega_z * plan.m_z / TWO_PI)) % plan.m_z
    col = int(np.round(sf.omega_x * plan.m_x / TWO_PI)) % plan.m_x
    return row, col


def window_for(
    sf: SpatialFrequencies, plan: BeamspacePlan, w_z: int, w_x: int
) -> WindowSpec:
    """WindowSpec of the given size on ``plan``'s grid, centered on the bin nearest ``sf``."""
    return WindowSpec(plan, w_z, w_x, *window_center(sf, plan))


def window_rows(win: WindowSpec) -> np.ndarray:
    """Flat beam-grid indices of the window's (wrapped) bins, in window order."""
    rows = (win.center_row - win.w_z // 2 + np.arange(win.w_z)) % win.plan.m_z
    cols = (win.center_col - win.w_x // 2 + np.arange(win.w_x)) % win.plan.m_x
    return (cols[:, None] * win.plan.m_z + rows[None, :]).ravel()


def extract_window(beam: np.ndarray, win: WindowSpec) -> np.ndarray:
    """Select the window's bins from beam vector(s): the 0/1 selector product."""
    arr = np.asarray(beam)
    if arr.shape[0] != win.plan.m:
        raise ValueError(f"beam vector length {arr.shape[0]} != grid size {win.plan.m}")
    return arr[window_rows(win)]


def scatter_window(values: np.ndarray, win: WindowSpec) -> np.ndarray:
    """Adjoint of :func:`extract_window`: place window values on the full grid."""
    values = np.asarray(values)
    if values.shape[0] != win.w:
        raise ValueError(f"expected {win.w} window values, got {values.shape[0]}")
    grid = np.zeros(win.plan.m, dtype=complex)
    grid[window_rows(win)] = values
    return grid


def windowed_steering(steering: np.ndarray, win: WindowSpec) -> np.ndarray:
    """Length-W windowed beamspace image of an antenna steering vector."""
    return extract_window(beamspace_transform(steering, win.plan), win)
