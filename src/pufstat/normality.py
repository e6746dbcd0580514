"""Anderson-Darling tests of normality for matrix rows.

Each row is standardized with its own sample mean and sample standard
deviation (N-1 divisor) before the statistic is computed, so the test is
invariant under affine transformations of the row. The tail weights are
evaluated in log space, which keeps extreme order statistics from
underflowing the standard normal CDF.

The raw statistic is rescaled by a small-sample correction factor
``1 + 4/N + 25/N**2`` before comparison against the 1% critical value.
"""

from __future__ import annotations

import functools
import math
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


def log_normal_cdf(x: float) -> float:
    """log(Phi(x)), stable far into the lower tail."""
    return float(_special().log_ndtr(x))


def log_normal_sf(x: float) -> float:
    """log(1 - Phi(x)), stable far into the upper tail."""
    return float(_special().log_ndtr(-x))


@dataclass(frozen=True)
class ADResult:
    """Statistic for one row: raw, corrected, and the 1% decision."""

    row_index: int
    a2: float
    a2_star: float
    reject_at_1pct: bool


@dataclass(frozen=True)
class ADSummary:
    """Nearest-rank quantiles of the corrected statistic across rows."""

    quantile_50: float
    quantile_90: float
    quantile_99: float
    max: float


def sample_size_correction(n: int) -> float:
    return 1.0 + 4.0 / n + 25.0 / (n * n)


def anderson_darling(sample, row_index: int = 0, min_samples: int = MIN_SAMPLES) -> ADResult:
    """Test one sample for normality.

    Raises InsufficientSampleError below ``min_samples`` observations and
    DegenerateDataError when the sample has zero variance.
    """
    x = np.asarray(sample, dtype=np.float64).ravel()
    n = x.size
    if n < min_samples:
        raise InsufficientSampleError(
            f"need at least {min_samples} observations, got {n}"
        )
    std = x.std(ddof=1)
    if not std > 0.0:
        raise DegenerateDataError("sample has zero standard deviation")
    y = np.sort((x - x.mean()) / std)
    log_ndtr = _special().log_ndtr
    log_cdf = log_ndtr(y)
    log_sf = log_ndtr(-y)
    weights = 2.0 * np.arange(n) + 1.0
    a2 = -np.sum(weights * (log_cdf + log_sf[::-1])) / n - n
    a2_star = a2 * sample_size_correction(n)
    if not (math.isfinite(a2) and math.isfinite(a2_star)):
        raise DegenerateDataError("statistic is not finite")
    return ADResult(
        row_index=row_index,
        a2=float(a2),
        a2_star=float(a2_star),
        reject_at_1pct=bool(a2_star > REJECT_1PCT),
    )


def nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest value (1-based)."""
    n = sorted_values.size
    rank = max(1, math.ceil(q * n))
    return float(sorted_values[rank - 1])


def test_rows(matrix, min_samples: int = MIN_SAMPLES) -> tuple[list[ADResult], ADSummary]:
    """Run the test on every row of a matrix and summarize the statistics."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DegenerateDataError(f"expected a 2-dimensional matrix, got {m.shape}")
    results = []
    for i in range(m.shape[0]):
        try:
            results.append(anderson_darling(m[i], row_index=i, min_samples=min_samples))
        except DegenerateDataError as exc:
            raise type(exc)(f"row {i}: {exc}") from exc
    stars = np.sort(np.asarray([r.a2_star for r in results]))
    summary = ADSummary(
        quantile_50=nearest_rank(stars, 0.50),
        quantile_90=nearest_rank(stars, 0.90),
        quantile_99=nearest_rank(stars, 0.99),
        max=float(stars[-1]),
    )
    return results, summary


# Not a test case despite the name; keeps pytest from collecting it on import.
test_rows.__test__ = False
