"""Covariance estimation and MVDR correlators in antenna or windowed beamspace.

A :class:`Correlator`'s weights apply on the antennas, or on the bins of
its ``window``, which carries its beam grid; :func:`lift_correlator` maps
windowed weights back to the antennas, a group of them on one grid in one
adjoint transform.

The correlator solving min w^H R w subject to w^H a = 1 is computed from a
Hermitian positive-definite factorization (never an explicit inverse).  A
:class:`CovarianceEstimate` is factored once, by the first solve against
it, and every later steering vector solved against that estimate reuses
the factor, one column at a time, so targets that train on the same rows
share one covariance and one Cholesky factor and get the same bits as if
each had its own.  A factorization failure raises with the leading minor
at which the Cholesky found no positive pivot and the matrix's smallest
eigenvalue named, so the caller can judge the loading level; a zero
covariance (snapshots zero or underflowed) is named as such, since no
trace-relative load lifts it.  Snapshots whose outer products overflow are
rejected when the estimate is built.

:func:`check_loading` is the one statement of which loads are valid, a
finite relative load of at least 0; :func:`estimate_covariance` applies it
to every call, and ``PipelineConfig.validate`` asks it of a run's
``loading``, so both reject a load with the same message.

The products are small (a covariance of at most the array's size, and a
few dozen weights applied per subband), so a second BLAS thread only spins
between calls; :func:`_one_blas_thread` runs them on the calling thread.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, get_lapack_funcs
from scipy.linalg.blas import zgemm

from .beamspace import WindowSpec, adjoint_transform, scatter_window
from .geometry import ArrayGeometry, angle_frequencies, is_finite, steering_matrix

# the thread-count pair's names in the bundled OpenBLAS builds, by preference
_OPENBLAS_API = [f"{lib}_{{}}_num_threads{abi}" for lib in ("scipy_openblas", "openblas")
                 for abi in ("", "64_")]
_blas_lock = threading.Lock()
_blas_held: list[list[int]] = []  # per holder; the first's counts are at the bottom


@functools.cache
def _openblas_pools() -> list[tuple]:
    """The (get, set) thread-count pair of every OpenBLAS library loaded in
    this process, found in ``/proc/self/maps``; none without ``/proc``."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return []
    pools = []
    for path in sorted(p for p in paths if ".so" in p):
        lib = ctypes.CDLL(path)
        pairs = [[getattr(lib, n.format(v), None) for v in ("get", "set")] for n in _OPENBLAS_API]
        for get, put in [pair for pair in pairs if None not in pair][:1]:  # the first whole pair
            get.restype, put.argtypes, put.restype = ctypes.c_int, [ctypes.c_int], None
            pools.append((get, put))
    return pools


@contextmanager
def _one_blas_thread():
    """Run every OpenBLAS library of the process on one thread while held.

    The count is the process's, so holders share it under one lock: the
    first to enter saves each library's count and sets 1, and the last to
    leave restores those counts, whether its run returns or raises.
    """
    with _blas_lock:
        _blas_held.append([get() for get, _ in _openblas_pools()])
        if len(_blas_held) == 1:
            for _, put in _openblas_pools():
                put(1)
    try:
        yield
    finally:
        with _blas_lock:
            counts = _blas_held.pop()
            if not _blas_held:
                for (_, put), count in zip(_openblas_pools(), counts):
                    put(count)


@dataclass
class CovarianceEstimate:
    """Sample covariance with the absolute diagonal load that was added.

    Its Cholesky factor is computed by the first solve against it and kept
    for every later one; ``matrix`` must not change after that solve.
    """

    matrix: np.ndarray
    n_t: int
    loading: float
    _factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def factor(self) -> np.ndarray:
        """Lower Cholesky factor of ``matrix``, computed on the first call.

        Its strict upper triangle is left holding ``matrix``'s entries, which
        ``cho_solve(..., lower=True)`` does not read.  Raises LinAlgError
        naming the leading minor at which no positive pivot was found and the
        smallest eigenvalue of ``matrix``, and saying that the covariance
        is zero, not under-loaded, when ``matrix`` is all zeros.
        """
        if self._factor is None:
            (potrf,) = get_lapack_funcs(("potrf",), (self.matrix,))
            factor, info = potrf(self.matrix, lower=True, clean=False)
            if info > 0:
                smallest = float(np.min(np.linalg.eigvalsh(self.matrix)))
                # a relative load cannot lift a zero matrix
                cure = (
                    "the covariance is zero: its snapshots are zero or underflowed"
                    if not self.matrix.any()
                    else "increase diagonal loading or the snapshot count"
                )
                raise LinAlgError(
                    f"covariance factorization failed: no positive pivot at leading "
                    f"minor {info} of {self.dim} (smallest eigenvalue {smallest:.6e}); "
                    + cure
                )
            if info < 0:
                raise ValueError(f"potrf: illegal value in argument {-info}")
            self._factor = factor
        return self._factor


@dataclass
class Correlator:
    """Beamformer weights on ``window``'s beam bins, or on the antennas if None."""

    weights: np.ndarray
    window: WindowSpec | None = None

    def __post_init__(self) -> None:
        if self.window is not None and self.dim != self.window.w:
            raise ValueError(f"weights length {self.dim} != window size {self.window.w}")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def check_loading(loading_factor: float) -> None:
    """Reject a relative diagonal load that is not a finite real >= 0."""
    if not is_finite(loading_factor):
        raise ValueError(f"loading: {loading_factor!r} is not a finite number")
    if loading_factor < 0:
        raise ValueError("loading: must be >= 0")


def estimate_covariance(
    snapshots: np.ndarray, loading_factor: float = 0.0
) -> CovarianceEstimate:
    """Average snapshot outer products and add relative diagonal loading.

    ``snapshots`` is a (dim, n_t) array of column snapshots.  The load added
    is loading_factor * trace(R)/dim, which keeps the estimate invertible
    when n_t < dim and is invariant under unitary changes of basis and
    power-of-two scalings of the snapshots; a ``loading_factor``
    :func:`check_loading` rejects raises its error, and snapshots whose
    covariance trace is not finite (overflowed outer products) raise a
    ``ValueError`` that says so.
    """
    check_loading(loading_factor)
    arr = np.asarray(snapshots)
    if arr.ndim != 2:
        raise ValueError(f"expected (dim, n_t) snapshots, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError("covariance estimation needs at least one snapshot")
    dim, n_t = arr.shape
    arr = np.ascontiguousarray(arr, dtype=np.complex128)

    # zgemm conjugates the second factor in its kernel (trans_b=2): no
    # conjugate copy of the snapshots is made
    r = zgemm(1.0 / n_t, arr, arr, trans_b=2)

    trace = float(np.trace(r).real)
    if not np.isfinite(trace):
        raise ValueError(
            f"covariance trace is {trace}: the snapshots' outer products overflow "
            "or the snapshots are not finite"
        )
    loading = 0.0
    if loading_factor:
        loading = loading_factor * trace / dim
        r = r + loading * np.eye(dim)
    return CovarianceEstimate(r, n_t, loading)


def mvdr_correlator(
    cov: CovarianceEstimate, steering: np.ndarray, window: WindowSpec | None = None
) -> Correlator:
    """Closed-form MVDR weights R^-1 a / (a^H R^-1 a), solved against ``cov``'s
    Cholesky factor, which the first solve computes."""
    a = np.asarray(steering)
    if a.shape[0] != cov.dim:
        raise ValueError(f"steering length {a.shape[0]} != covariance dim {cov.dim}")
    x = cho_solve((cov.factor(), True), a, check_finite=False)
    denom = a.conj() @ x
    return Correlator(x / denom, window)


def conventional_correlator(
    steering: np.ndarray, window: WindowSpec | None = None
) -> Correlator:
    """Non-adaptive distortionless weights a / ||a||^2."""
    a = np.asarray(steering)
    return Correlator(a / (np.linalg.norm(a) ** 2), window)


def lift_correlator(
    corr: Correlator | Sequence[Correlator],
) -> Correlator | list[Correlator]:
    """Map windowed-beamspace weights to the equivalent antenna-space weights.

    Applying the lifted weights to raw snapshots reproduces the windowed
    beamspace output exactly (adjoint of transform-then-window).  ``corr``
    is one correlator, or a sequence of correlators on one beam grid lifted
    in one adjoint transform, giving one antenna correlator each.
    """
    group = not isinstance(corr, Correlator)
    corrs = list(corr) if group else [corr]
    if any(c.window is None for c in corrs):
        raise ValueError("can only lift windowed-beamspace correlators, got an antenna one")
    plans = {c.window.plan for c in corrs}
    if len(plans) > 1:
        raise ValueError(f"can only lift correlators on one beam grid, got {len(plans)}")
    if not corrs:
        return []
    full = np.stack([scatter_window(c.weights, c.window) for c in corrs], axis=1)
    lifted = [Correlator(w) for w in adjoint_transform(full, plans.pop()).T]
    return lifted if group else lifted[0]


def apply_correlator(
    corr: Correlator | Sequence[Correlator], snapshots: np.ndarray
) -> np.ndarray:
    """Beamformer output series w^H y[n] for column snapshot(s).

    ``corr`` is one correlator, or a sequence of correlators of one
    dimension applied in one matrix product, giving one output row each (no
    row for an empty sequence).
    """
    group = not isinstance(corr, Correlator)
    corrs = list(corr) if group else [corr]
    arr = np.asarray(snapshots)
    dim = arr.shape[0]
    for c in corrs:
        if c.dim != dim:
            raise ValueError(f"snapshot length {dim} != correlator dim {c.dim}")
    weights = np.array([c.weights for c in corrs], dtype=complex).reshape(len(corrs), dim)
    # conj(W) Y with the snapshots on the product's N axis, so a snapshot's
    # output takes the same operations at any product width: the weights and
    # the snapshots' C-ordered (dim, n) matrix (a copy only if they are
    # strided) enter as Fortran-ordered transposes that the BLAS wrapper does
    # not copy, and trans_a=2 conjugates the weights in the kernel
    out = zgemm(1.0, weights.T, arr.reshape(dim, -1).T, trans_a=2, trans_b=1)
    out = np.moveaxis(out.T.reshape(*arr.shape[1:], len(corrs)), -1, 0)
    return out if group else out[0]


def beam_pattern(
    corr: Correlator,
    azimuths: np.ndarray,
    elevations: np.ndarray,
    geom: ArrayGeometry,
    eval_freq: float,
) -> np.ndarray:
    """Cosine similarity |<w, a(az, el)>| / (||w|| ||a||) over an angle grid.

    ``azimuths`` and ``elevations`` are 1D arrays in radians; the result has
    shape (len(elevations), len(azimuths)) with values in [0, 1].  A
    windowed correlator is evaluated through its lift to the antennas.
    """
    if corr.window is not None:
        corr = lift_correlator(corr)
    w_norm = np.linalg.norm(corr.weights)
    if w_norm == 0:
        raise ValueError("zero-norm correlator has no beam pattern")

    az_grid, el_grid = np.meshgrid(azimuths, elevations)
    sf = angle_frequencies(az_grid.ravel(), el_grid.ravel(), eval_freq, geom)
    responses = steering_matrix(*sf, geom)
    inner = np.abs(corr.weights.conj() @ responses)
    norms = np.linalg.norm(responses, axis=0)
    return (inner / (w_norm * norms)).reshape(el_grid.shape)


def write_beam_pattern_csv(
    path,
    pattern: np.ndarray,
    azimuths: np.ndarray,
    elevations: np.ndarray,
) -> None:
    """Beam-pattern export: one row per grid point, angles in degrees."""
    with open(path, "w", newline="") as handle:
        handle.write("# bsradar beam pattern v1\n")
        writer = csv.writer(handle)
        writer.writerow(["azimuth_deg", "elevation_deg", "gain_linear", "gain_db"])
        for i, el in enumerate(elevations):
            for j, az in enumerate(azimuths):
                gain = float(pattern[i, j])
                gain_db = 20.0 * np.log10(gain) if gain > 0 else float("-inf")
                writer.writerow(
                    [
                        f"{np.rad2deg(az):.6f}",
                        f"{np.rad2deg(el):.6f}",
                        f"{gain:.10e}",
                        f"{gain_db:.6f}",
                    ]
                )
