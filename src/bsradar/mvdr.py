"""Covariance estimation and MVDR correlators in antenna or windowed beamspace.

The correlator solving min w^H R w subject to w^H a = 1 is computed from a
Hermitian positive-definite factorization (never an explicit inverse); a
factorization failure raises with the smallest diagonal pivot named so the
caller can judge the loading level.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.linalg.blas import zgemm

from .beamspace import BeamspacePlan, WindowSpec, adjoint_transform, scatter_window
from .geometry import ArrayGeometry, angle_frequencies, steering_matrix

ANTENNA_SPACE = "antenna"
BEAMSPACE_WINDOWED = "windowed-beamspace"


@dataclass
class CovarianceEstimate:
    """Sample covariance with the absolute diagonal load that was added."""

    matrix: np.ndarray
    n_t: int
    loading: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class Correlator:
    """Beamformer weight vector tagged with the space it applies in."""

    weights: np.ndarray
    space: str = ANTENNA_SPACE

    @property
    def dim(self) -> int:
        return self.weights.shape[0]


def estimate_covariance(
    snapshots: np.ndarray, loading_factor: float = 0.0
) -> CovarianceEstimate:
    """Average snapshot outer products and add relative diagonal loading.

    ``snapshots`` is a (dim, n_t) array of column snapshots.  The load added
    is loading_factor * trace(R)/dim, which keeps the estimate invertible
    when n_t < dim and is invariant under unitary changes of basis.
    """
    arr = np.asarray(snapshots)
    if arr.ndim != 2:
        raise ValueError(f"expected (dim, n_t) snapshots, got shape {arr.shape}")
    if arr.shape[1] == 0:
        raise ValueError("covariance estimation needs at least one snapshot")
    dim, n_t = arr.shape
    arr = np.ascontiguousarray(arr, dtype=np.complex128)

    # scipy BLAS keeps the whole dense path (gemm + Cholesky) in one
    # threadpool; mixing numpy's and scipy's OpenBLAS builds in a tight
    # loop makes their idle spinners fight for cores
    r = zgemm(1.0 / n_t, arr, arr, trans_b=2)

    loading = 0.0
    if loading_factor:
        loading = loading_factor * float(np.trace(r).real) / dim
        r = r + loading * np.eye(dim)
    return CovarianceEstimate(r, n_t, loading)


def _solve_hpd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        factor = cho_factor(matrix, lower=True, check_finite=False)
    except LinAlgError as exc:
        min_pivot = float(np.min(np.linalg.eigvalsh(matrix)))
        raise LinAlgError(
            f"covariance factorization failed (min pivot {min_pivot:.6e}); "
            "increase diagonal loading or the snapshot count"
        ) from exc
    return cho_solve(factor, rhs, check_finite=False)


def mvdr_correlator(
    cov: CovarianceEstimate, steering: np.ndarray, space: str = ANTENNA_SPACE
) -> Correlator:
    """Closed-form MVDR weights R^-1 a / (a^H R^-1 a)."""
    a = np.asarray(steering)
    if a.shape[0] != cov.dim:
        raise ValueError(f"steering length {a.shape[0]} != covariance dim {cov.dim}")
    x = _solve_hpd(cov.matrix, a)
    denom = a.conj() @ x
    return Correlator(x / denom, space)


def conventional_correlator(steering: np.ndarray, space: str = ANTENNA_SPACE) -> Correlator:
    """Non-adaptive distortionless weights a / ||a||^2."""
    a = np.asarray(steering)
    return Correlator(a / (np.linalg.norm(a) ** 2), space)


def lift_correlator(
    corr: Correlator, plan: BeamspacePlan, win: WindowSpec
) -> Correlator:
    """Map windowed-beamspace weights to the equivalent antenna-space weights.

    Applying the lifted weights to raw snapshots reproduces the windowed
    beamspace output exactly (adjoint of transform-then-window).
    """
    if corr.space != BEAMSPACE_WINDOWED:
        raise ValueError(f"can only lift windowed-beamspace correlators, got {corr.space}")
    full = scatter_window(corr.weights, plan, win)
    return Correlator(adjoint_transform(full, plan), ANTENNA_SPACE)


def apply_correlator(
    corr: Correlator | Sequence[Correlator], snapshots: np.ndarray
) -> np.ndarray:
    """Beamformer output series w^H y[n] for column snapshot(s).

    ``corr`` is one correlator, or a sequence of correlators of one
    dimension applied in one matrix product, giving one output row each.
    """
    group = not isinstance(corr, Correlator)
    weights = np.array([c.weights for c in corr] if group else [corr.weights])
    n_corr, dim = weights.shape
    arr = np.asarray(snapshots)
    if arr.shape[0] != dim:
        raise ValueError(f"snapshot length {arr.shape[0]} != correlator dim {dim}")
    out = zgemm(1.0, np.conj(weights), arr.reshape(dim, -1))
    out = out.reshape(n_corr, *arr.shape[1:])
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
    shape (len(elevations), len(azimuths)) with values in [0, 1].  Beamspace
    correlators must be lifted to antenna space first.
    """
    if corr.space != ANTENNA_SPACE:
        raise ValueError("lift the correlator to antenna space before evaluating")
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
