"""Uniform planar array geometry, spatial frequencies, and steering vectors.

This module is the one array manifold: every other module turns a
direction and a frequency into element phases through it.

It is also the one home of the number contract every input is built
under.  A count is a Python ``int`` and not a bool; a NumPy int is not a
count, since a config file cannot store one and the cost tallies call
``int.bit_length``.  A real is a finite ``numbers.Real`` and not a bool,
NumPy's floats included; a Python int beyond float range is not finite.
A field of several reals (a target's position) is a tuple, list or array
of them; any other field holds one.  A complex number is accepted only
where a field asks for one, a target's amplitude.
Constructors check their fields with :func:`check_count` and
:func:`check_finite`, which name the field; a file reader or a function
argument tests a value with :func:`is_count`, :func:`is_real` and
:func:`is_finite`.

Conventions (fixed across the whole package):

* the array broadside points along +y; azimuth is measured from the y-axis
  toward +x, elevation from the y-axis toward +z, both in radians;
* a flattened length-N vector indexes the vertical element fastest, i.e.
  element ``i_x * n_z + i_z`` sits at (row ``i_z``, column ``i_x``), matching
  the horizontal-kron-vertical steering construction below.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


def is_count(value) -> bool:
    """Whether ``value`` is a count: a Python int and not a bool."""
    return type(value) is int


def is_real(value, complex_ok: bool = False) -> bool:
    """Whether ``value`` is a real (NumPy's included), or with ``complex_ok``
    a complex number, and not a bool; NaN and the infinities are reals."""
    kind = numbers.Complex if complex_ok else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def is_finite(value, complex_ok: bool = False) -> bool:
    """Whether ``value`` is a finite real (see :func:`is_real`), or with
    ``complex_ok`` a finite complex number; a Python int beyond float range
    is not finite, since no float can hold it."""
    try:
        return is_real(value, complex_ok) and bool(np.isfinite(complex(value)))
    except OverflowError:
        return False


def check_finite(obj, *names: str, each: bool = False, complex_ok: bool = False) -> None:
    """Reject the first named attribute of ``obj`` that is not a finite real
    (see :func:`is_finite`), naming the field.  With ``each``, a tuple, list
    or array of any rank is checked element by element."""
    for name in names:
        value = getattr(obj, name)
        items = value if each and isinstance(value, (tuple, list)) else (value,)
        if each and isinstance(value, np.ndarray):  # of any rank, 0-d included
            items = value.ravel()
        if not all(is_finite(v, complex_ok) for v in items):
            raise ValueError(f"{name}: {value!r} is not a finite number")


def check_count(obj, *names: str) -> None:
    """Reject the first named attribute of ``obj`` that is not a count (see
    :func:`is_count`), naming the field: "<name>: <value> is not an integer"."""
    for name in names:
        value = getattr(obj, name)
        if not is_count(value):
            raise ValueError(f"{name}: {value!r} is not an integer")


@dataclass(frozen=True)
class ArrayGeometry:
    """n_z-by-n_x uniform planar array with a design frequency in Hz.

    ``spacing`` is the inter-element distance in meters and defaults to
    half the design wavelength.
    """

    n_z: int
    n_x: int
    design_freq: float
    spacing: float | None = None

    def __post_init__(self) -> None:
        check_count(self, "n_z", "n_x")
        if self.n_z < 1 or self.n_x < 1:
            raise ValueError("element counts must be >= 1")
        check_finite(self, "design_freq")
        if self.design_freq <= 0:
            raise ValueError("design_freq must be positive")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        check_finite(self, "spacing")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def n(self) -> int:
        return self.n_z * self.n_x

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.design_freq


@dataclass(frozen=True)
class Direction:
    """Azimuth/elevation pair (radians) restricted to the front hemisphere."""

    azimuth: float
    elevation: float

    def __post_init__(self) -> None:
        check_finite(self, "azimuth", "elevation")
        half = np.pi / 2
        if not (abs(self.azimuth) < half and abs(self.elevation) < half):
            raise ValueError(
                f"direction (az={self.azimuth!r}, el={self.elevation!r}) is outside "
                "the front hemisphere (|angle| < pi/2)"
            )

    @classmethod
    def from_degrees(cls, azimuth_deg: float, elevation_deg: float) -> "Direction":
        angles = SimpleNamespace(azimuth_deg=azimuth_deg, elevation_deg=elevation_deg)
        check_finite(angles, "azimuth_deg", "elevation_deg")
        return cls(np.deg2rad(azimuth_deg), np.deg2rad(elevation_deg))

    @classmethod
    def from_position(cls, x: float, y: float, z: float) -> "Direction":
        """Direction of a point in array coordinates (+y broadside)."""
        check_finite(SimpleNamespace(x=x, y=y, z=z), "x", "y", "z")
        rng = float(np.sqrt(x * x + y * y + z * z))
        if rng == 0.0:
            raise ValueError("position coincides with the array origin")
        return cls(float(np.arctan2(x, y)), float(np.arcsin(z / rng)))


class SpatialFrequencies(NamedTuple):
    """Per-element phase advances (radians/element) along each array axis.

    Floats for one frequency, or arrays for an array of frequencies.
    """

    omega_x: float | np.ndarray
    omega_z: float | np.ndarray


def spatial_frequencies(
    direction: Direction, eval_freq: float | np.ndarray, geom: ArrayGeometry
) -> SpatialFrequencies:
    """Spatial frequencies of a far-field arrival at ``eval_freq`` Hz.

    At the design frequency with half-wavelength spacing these are
    pi*cos(el)*sin(az) and pi*sin(el); other evaluation frequencies scale
    both linearly by eval_freq/design_freq.  ``eval_freq`` may be a scalar
    or an array, which gives arrays of the same shape.
    """
    return angle_frequencies(direction.azimuth, direction.elevation, eval_freq, geom)


def angle_frequencies(
    azimuth, elevation, eval_freq: float | np.ndarray, geom: ArrayGeometry
) -> SpatialFrequencies:
    """:func:`spatial_frequencies` of raw angles in radians.

    Angles and frequencies may be scalars or arrays that broadcast
    together; the front-hemisphere check of :class:`Direction` is not made,
    so an angle grid may reach endfire.
    """
    if np.any(np.asarray(eval_freq) <= 0):
        raise ValueError("eval_freq must be positive")
    scale = (eval_freq / geom.design_freq) * (geom.spacing / (geom.wavelength / 2.0))
    u_x = np.cos(elevation) * np.sin(azimuth)
    u_z = np.sin(elevation)
    return SpatialFrequencies(np.pi * u_x * scale, np.pi * u_z * scale)


def steering_vector(sf: SpatialFrequencies, geom: ArrayGeometry) -> np.ndarray:
    """Length-N array response a_x(omega_x) kron a_z(omega_z).

    Entries have unit magnitude and the first entry is 1; the vertical
    element index varies fastest in the flattened output.  This is the one
    column of :func:`steering_matrix` for scalar ``sf``.
    """
    return steering_matrix(sf.omega_x, sf.omega_z, geom)[:, 0]


def steering_matrix(
    omega_x: np.ndarray, omega_z: np.ndarray, geom: ArrayGeometry
) -> np.ndarray:
    """Stack steering vectors for paired spatial-frequency arrays, shape (N, K)."""
    omega_x = np.atleast_1d(np.asarray(omega_x, dtype=float))
    omega_z = np.atleast_1d(np.asarray(omega_z, dtype=float))
    if omega_x.shape != omega_z.shape:
        raise ValueError("omega_x and omega_z must have matching shapes")
    a_x = np.exp(1j * np.outer(np.arange(geom.n_x), omega_x))
    a_z = np.exp(1j * np.outer(np.arange(geom.n_z), omega_z))
    return (a_x[:, None, :] * a_z[None, :, :]).reshape(geom.n, -1)
