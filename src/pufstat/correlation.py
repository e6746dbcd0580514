"""Pearson correlation profiles and the pair-difference covariance matrix.

A correlation profile correlates every row of a matrix against its last row.
On the deviation matrix this exposes spatial structure shared between ROs; on
the pair-difference matrix the differencing acts as a spatial high-pass
filter and the profile collapses to noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientSampleError, StructuralError
from .matrices import as_matrix


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length vectors."""
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.shape != yv.shape:
        raise StructuralError(f"length mismatch: {xv.size} vs {yv.size}")
    if xv.size < 3:
        raise InsufficientSampleError(f"need at least 3 points, got {xv.size}")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    ssx = float(np.dot(xc, xc))
    ssy = float(np.dot(yc, yc))
    if ssx == 0.0 or ssy == 0.0:
        raise DegenerateDataError("correlation undefined for a constant series")
    r = float(np.dot(xc, yc)) / np.sqrt(ssx * ssy)
    return float(min(1.0, max(-1.0, r)))


@dataclass(frozen=True)
class CorrelationProfile:
    reference_index: int
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients.setflags(write=False)


def profile(matrix) -> CorrelationProfile:
    """Correlate each row against the last row, the profile's
    ``reference_index``."""
    m = as_matrix(matrix, "matrix", np.float64)
    if m.shape[0] == 0:
        raise StructuralError("matrix has no rows")
    if m.shape[1] < 3:
        raise InsufficientSampleError(f"need at least 3 columns, got {m.shape[1]}")
    ref = m.shape[0] - 1
    centered = m - m.mean(axis=1, keepdims=True)
    norms2 = np.einsum("ij,ij->i", centered, centered)
    flat = np.flatnonzero(norms2 == 0.0)
    if flat.size:
        raise DegenerateDataError(f"constant rows have no correlation: {flat.tolist()}")
    dots = centered @ centered[ref]
    coeffs = np.clip(dots / np.sqrt(norms2 * norms2[ref]), -1.0, 1.0)
    return CorrelationProfile(reference_index=ref, coefficients=coeffs)


def fit_line(values) -> tuple[float, float]:
    """Least-squares slope and intercept of a series against its index."""
    y = np.asarray(values, dtype=np.float64).ravel()
    if y.size < 2:
        raise InsufficientSampleError(f"need at least 2 points for a line, got {y.size}")
    x = np.arange(y.size, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def covariance_matrix(diff) -> np.ndarray:
    """Covariance of the pair-difference rows over devices.

    Uses the population divisor (the device count), which is what makes the
    one-new-device update identity in the covariance-fitting attack exact.
    """
    d = as_matrix(diff, "difference matrix", np.float64)
    if d.shape[1] < 2:
        raise InsufficientSampleError("need at least 2 devices for a covariance")
    # Finite differences too large to square overflow to inf or nan here
    # without a warning; covfit.check_covariance rejects such a matrix.
    with np.errstate(over="ignore", invalid="ignore"):
        centered = d - d.mean(axis=1, keepdims=True)
        return (centered @ centered.T) / d.shape[1]
