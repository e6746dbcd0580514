"""Anderson-Darling tests of normality for matrix rows.

Each row is standardized with its own sample mean and sample standard
deviation (N-1 divisor) before the statistic is computed, so the test is
invariant under affine transformations of the row. The tail weights are
evaluated in log space, which keeps extreme order statistics from
underflowing the standard normal CDF.

The raw statistic is rescaled by a small-sample correction factor
``1 + 4/N + 25/N**2`` before comparison against the 1% critical value.

The rows of a matrix are tested in blocks of whole rows, at most
``_BLOCK_CELLS`` cells each (one row if a row is longer), and each block is
copied C-contiguous on its own, so the pass holds one block's temporaries,
not the whole matrix's. On a Fortran-ordered view (``build_matrices``
returns ``freq`` as one) reductions along a row add in another order, which
moves the statistic in its last bits; on a C-contiguous block each row adds
exactly as it does alone, so the statistics do not depend on where the
blocks are cut. Before any arithmetic on a block, a row holding a value
that is not finite fails as such.

The normal tails come from numpy alone: ``ndtr`` and ``log_ndtr`` share one
kernel, W. J. Cody's rational Chebyshev approximations ("Rational Chebyshev
approximations for the error function", Math. Comp. 23 (1969) 631-637, as
coded in his CALERF). It has three branches in t = |x|/sqrt 2:

* t <= 0.46875: ``erf(t)`` by a rational form in t**2;
* 0.46875 < t <= 4: ``erfcx(t) = exp(t**2) erfc(t)`` by a rational form in t;
* t > 4: ``erfcx(t)`` by a rational form in 1/t**2.

Outside the first, ``erfc(t) = exp(-s**2/2) exp(-(|x|-s)(|x|+s)/2) erfcx(t)``
with ``s = trunc(16|x|)/16``. Cody splits t**2 the same way on t; splitting
x**2/2 on x keeps the rounding of x/sqrt 2 out of the exponent, which makes
the far tails about a hundred times more exact than scipy's ``ndtr``.
``log_ndtr`` takes scipy's two branches: below x = -1 it is
``log(erfcx(-x/sqrt 2)/2) - x**2/2``, which never underflows, and above it
``log1p(-erfc(x/sqrt 2)/2)``. Importing ``scipy.special`` instead would cost
about 0.3 s, several times the statistic on all three matrices of the
reference shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientSampleError

# 1% critical value for the corrected statistic with estimated mean/variance.
REJECT_1PCT = 1.047

# Below this many observations the corrected statistic is not meaningful.
MIN_SAMPLES = 8

# Cells per block of rows: a block's dozen temporaries stay near 1.5 MiB,
# which keeps the pass off the peak of a chain at the reference shape.
_BLOCK_CELLS = 2**14


# Cody's coefficients, in the order of his DATA statements: erf on
# [0, 0.46875] in t**2; erfcx on (0.46875, 4] in t; erfcx above 4 in 1/t**2.
# Each denominator is monic; ``_rational`` says which coefficient goes where.
_ERF_NUM = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
            3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_DEN = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
            2.84423683343917062e03)
_MID_NUM = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
            2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
            2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_MID_DEN = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
            1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
            3.43936767414372164e03, 1.23033935480374942e03)
_TAIL_NUM = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
             1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_TAIL_DEN = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
             6.05183413124413191e-2, 2.33520497626869185e-3)
_INV_SQRT_PI = 5.6418958354775628695e-1
_SQRT_HALF = 0.70710678118654752440
# Cody's XSMALL: below it erf's t**2 is taken as 0. His XHUGE: above it
# erfcx(t) is 1/(t sqrt(pi)) to the last bit. In place of his XBIG, above
# _TAIL_ZERO the tail erfc(x/sqrt 2)/2 = Phi(-x) is below the smallest normal
# double, and it is 0.
_TINY = 1.11e-16
_ERFCX_ASYMPTOTE = 6.71e7
_TAIL_ZERO = 37.519379


def _rational(u, num, den):
    """Cody's numerator and denominator polynomials in u, in his order of
    operations; ``num`` has one more coefficient than ``den``."""
    top, bottom = num[-1] * u, u
    for a, b in zip(num[:-2], den[:-1]):
        top, bottom = (top + a) * u, (bottom + b) * u
    return top + num[-2], bottom + den[-1]


def _erfcx(t):
    """``exp(t**2) erfc(t)`` of an array t >= 0; Cody uses it above 0.46875."""
    top, bottom = _rational(np.minimum(t, 4.0), _MID_NUM, _MID_DEN)
    u = np.clip(t, 4.0, _ERFCX_ASYMPTOTE)  # no 1/t**2 of a small or huge t
    v = 1.0 / (u * u)
    tail_top, tail_bottom = _rational(v, _TAIL_NUM, _TAIL_DEN)
    tail = (_INV_SQRT_PI - v * tail_top / tail_bottom) / u
    tail = np.where(t >= _ERFCX_ASYMPTOTE, _INV_SQRT_PI / t, tail)
    return np.where(t <= 4.0, top / bottom, tail)


def _erfc_pair(a):
    """``erfc(a/sqrt 2)``, ``erfc(-a/sqrt 2)`` and ``erfcx(a/sqrt 2)`` of a
    flat array a >= 0. The first is 0 or a normal double, never a subnormal
    one; the third is 1 where Cody's first branch serves."""
    y = _SQRT_HALF * a
    near = y <= 0.46875
    lo, hi, ex = np.empty_like(a), np.empty_like(a), np.ones_like(a)
    t = y[near]
    w = np.where(t > _TINY, t, 0.0)
    top, bottom = _rational(w * w, _ERF_NUM, _ERF_DEN)
    erf = t * top / bottom
    lo[near], hi[near] = 1.0 - erf, 1.0 + erf
    # Beyond the first branch the exponent a**2/2 is split on a, where s**2/2
    # and a - s are exact, so that rounding a/sqrt 2 does not enter it.
    far = ~near
    ex[far] = _erfcx(y[far])
    live = far & (a < _TAIL_ZERO)
    b = a[live]
    s = np.trunc(16.0 * b) / 16.0
    lo[far] = np.where(a[far] >= _TAIL_ZERO, 0.0, np.nan)  # NaN stays NaN
    lo[live] = np.exp(-0.5 * (s * s)) * np.exp(-0.5 * ((b - s) * (b + s))) * ex[live]
    hi[far] = 2.0 - lo[far]
    return lo, hi, ex


def ndtr(x):
    """Standard normal CDF of an array, ``erfc(-x/sqrt 2)/2``."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi, _ = _erfc_pair(np.abs(x).ravel())
    return 0.5 * np.where(x < 0.0, lo.reshape(x.shape), hi.reshape(x.shape))


def _log_tails(x):
    """``log_ndtr(x)`` and ``log_ndtr(-x)`` of an array x, from one pass of
    the kernel over |x|."""
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x).ravel()
    lo, hi, ex = _erfc_pair(a)
    # log Phi(a) and log Phi(-a); the latter below -1 as log(erfcx/2) - a**2/2.
    up = np.log1p(-0.5 * lo)
    down = np.empty_like(a)
    deep = a > 1.0
    b = a[deep]
    with np.errstate(over="ignore", divide="ignore"):  # -inf above 1.3e154
        down[deep] = np.log(0.5 * ex[deep]) - 0.5 * (b * b)
    down[~deep] = np.log1p(-0.5 * hi[~deep])
    up, down = up.reshape(x.shape), down.reshape(x.shape)
    neg = x < 0.0
    return np.where(neg, down, up), np.where(neg, up, down)


def log_ndtr(x):
    """Log of the standard normal CDF of an array. Below x = -1 it is
    ``log(erfcx(-x/sqrt 2)/2) - x**2/2``, which never underflows; above, it
    is ``log1p(-erfc(x/sqrt 2)/2)``."""
    return _log_tails(x)[0]


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to better than 1e-12 absolute."""
    return float(ndtr(x))


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


def _block_a2(block, weights, first: int) -> np.ndarray:
    """``a2`` of every row of a C-contiguous block whose first row is row
    ``first`` of the matrix; raises for the block's first failing row."""
    bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
    stop = bad[0] if bad.size else len(block)
    m, n = block[:stop], block.shape[1]
    std = m.std(axis=1, ddof=1, keepdims=True)
    flat = ~(std[:, 0] > 0.0)
    # Flat rows are divided by 1, not 0, and fail below.
    y = np.sort((m - m.mean(axis=1, keepdims=True)) / np.where(flat[:, None], 1.0, std), axis=1)
    log_cdf, log_sf = _log_tails(y)
    a2 = -np.sum(weights * (log_cdf + log_sf[:, ::-1]), axis=1) / n - n
    # a2_star = a2 * (1 + 4/n + 25/n**2) is finite where a2 is: |a2| is
    # of order n**2 at most, as |y| <= (n-1)/sqrt(n).
    failed = np.flatnonzero(flat | ~np.isfinite(a2))
    if failed.size:
        i = failed[0]
        reason = "sample has zero standard deviation" if flat[i] else "statistic is not finite"
        raise DegenerateDataError(f"row {first + i}: {reason}")
    if bad.size:
        raise DegenerateDataError(f"row {first + stop}: sample is not finite")
    return a2


def _row_statistics(matrix, min_samples: int) -> np.recarray:
    """``a2``, ``a2_star`` and ``reject_at_1pct`` of every row of a matrix,
    computed block by block.

    Raises for the first failing row: InsufficientSampleError below
    ``min_samples`` columns, DegenerateDataError for a row with a value that
    is not finite, zero variance or a statistic that is not finite, and
    DegenerateDataError for a matrix with no rows.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise DegenerateDataError(f"expected a 2-dimensional matrix, got {m.shape}")
    rows, n = m.shape
    if rows == 0:
        raise DegenerateDataError("matrix has no rows")
    if n < min_samples:
        raise InsufficientSampleError(
            f"row 0: need at least {min_samples} observations, got {n}"
        )
    weights = 2.0 * np.arange(n) + 1.0
    step = max(1, _BLOCK_CELLS // max(n, 1))
    a2 = np.empty(rows)
    for first in range(0, rows, step):
        block = np.ascontiguousarray(m[first:first + step])
        a2[first:first + step] = _block_a2(block, weights, first)
    a2_star = a2 * sample_size_correction(n)
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
