"""Anderson-Darling tests of normality for matrix rows.

Each row is standardized with its own sample mean and sample standard
deviation (N-1 divisor) before the statistic is computed, so the test is
invariant under affine transformations of the row. The tail weights are
evaluated in log space, which keeps extreme order statistics from
underflowing the standard normal CDF.

The raw statistic is rescaled by a small-sample correction factor
``1 + 4/N + 25/N**2`` before comparison against the 1% critical value.

Every row of a matrix is tested in one numpy pass over a C-contiguous
copy. On a Fortran-ordered view (``build_matrices`` returns ``freq`` as
one) reductions along a row add in another order, which moves the
statistic in its last bits; on the copy each row adds exactly as it does
alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientSampleError

# 1% critical value for the corrected statistic with estimated mean/variance.
REJECT_1PCT = 1.047

# Below this many observations the corrected statistic is not meaningful.
MIN_SAMPLES = 8


@functools.cache
def _special():
    """``scipy.special``, imported on first use: importing scipy costs about
    0.3 s, and the commands that never test normality or bias skip it."""
    from scipy import special

    return special


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to better than 1e-12 absolute."""
    return float(_special().ndtr(x))


@dataclass(frozen=True)
class ADResult:
    """Statistic for one sample: raw, corrected, and the 1% decision."""

    a2: float
    a2_star: float
    reject_at_1pct: bool


@dataclass(frozen=True)
class ADSummary:
    """Nearest-rank quantiles (the ceil(q*n)-th smallest) of the corrected
    statistic across rows."""

    quantile_50: float
    quantile_90: float
    quantile_99: float
    max: float


def sample_size_correction(n: int) -> float:
    return 1.0 + 4.0 / n + 25.0 / (n * n)


def _row_statistics(matrix, min_samples: int) -> np.recarray:
    """``a2``, ``a2_star`` and ``reject_at_1pct`` of every row of a matrix.

    Raises for the first failing row: InsufficientSampleError below
    ``min_samples`` columns, DegenerateDataError for a row with zero
    variance or a statistic that is not finite.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DegenerateDataError(f"expected a 2-dimensional matrix, got {m.shape}")
    n = m.shape[1]
    if n < min_samples:
        raise InsufficientSampleError(
            f"row 0: need at least {min_samples} observations, got {n}"
        )
    std = m.std(axis=1, ddof=1, keepdims=True)
    flat = ~(std[:, 0] > 0.0)
    # Flat rows are divided by 1, not 0, and fail below.
    y = np.sort((m - m.mean(axis=1, keepdims=True)) / np.where(flat[:, None], 1.0, std), axis=1)
    log_ndtr = _special().log_ndtr
    weights = 2.0 * np.arange(n) + 1.0
    a2 = -np.sum(weights * (log_ndtr(y) + log_ndtr(-y)[:, ::-1]), axis=1) / n - n
    a2_star = a2 * sample_size_correction(n)
    failed = np.flatnonzero(flat | ~(np.isfinite(a2) & np.isfinite(a2_star)))
    if failed.size:
        i = failed[0]
        reason = "sample has zero standard deviation" if flat[i] else "statistic is not finite"
        raise DegenerateDataError(f"row {i}: {reason}")
    return np.rec.fromarrays([a2, a2_star, a2_star > REJECT_1PCT],
                             names="a2,a2_star,reject_at_1pct")


def anderson_darling(sample, min_samples: int = MIN_SAMPLES) -> ADResult:
    """Test one sample for normality, as row 0 of a one-row matrix."""
    (row,) = _row_statistics(np.reshape(sample, (1, -1)), min_samples)
    return ADResult(float(row.a2), float(row.a2_star), bool(row.reject_at_1pct))


def test_rows(matrix, min_samples: int = MIN_SAMPLES) -> tuple[np.recarray, ADSummary]:
    """Test every row of a matrix. Returns the per-row statistics, a record
    array with fields ``a2``, ``a2_star`` and ``reject_at_1pct`` (one record
    per row), and the summary of ``a2_star``."""
    stats = _row_statistics(matrix, min_samples)
    q50, q90, q99 = np.quantile(stats.a2_star, (0.50, 0.90, 0.99), method="inverted_cdf")
    return stats, ADSummary(float(q50), float(q90), float(q99), float(stats.a2_star.max()))


# Not a test case despite the name; keeps pytest from collecting it on import.
test_rows.__test__ = False
