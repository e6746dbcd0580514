import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstat import normality
from pufstat.errors import DegenerateDataError, InsufficientSampleError
from pufstat.normality import (
    ADSummary,
    MIN_SAMPLES,
    REJECT_1PCT,
    anderson_darling,
    log_ndtr,
    ndtr,
    normal_cdf,
    sample_size_correction,
    test_rows,
)

from oracles import (ad_statistic_reference, log_phi_quadrature, nearest_rank_reference,
                     normal_tail_grid, phi_quadrature, relative_error, test_rows_reference)


def test_normal_cdf_against_quadrature_grid():
    for x in np.linspace(-8.0, 8.0, 25):
        assert abs(normal_cdf(float(x)) - phi_quadrature(float(x))) <= 1e-12


def test_tail_functions_match_mpmath_no_worse_than_scipy():
    # On each range, the largest relative error against 50-digit mpmath is no
    # larger than scipy.special's on the same points, or than one rounding of
    # the result (2**-52), which is as close as a double can come.
    from scipy import special

    xs, phi, log_phi = normal_tail_grid()
    tiny = np.finfo(np.float64).tiny
    normal = phi >= tiny
    with np.errstate(all="raise"):
        ours_log, ours = log_ndtr(xs), ndtr(xs)
    theirs_log, theirs = special.log_ndtr(xs), special.ndtr(xs)
    for inside in (xs < 0.0, (xs >= 0.0) & (xs < 3.0), xs >= 3.0):
        assert inside.sum() >= 300
        want = log_phi[inside]
        worst = relative_error(ours_log[inside], want).max()
        assert worst <= max(relative_error(theirs_log[inside], want).max(), 2.0**-52)
        on = inside & normal
        worst = relative_error(ours[on], phi[on]).max()
        assert worst <= max(relative_error(theirs[on], phi[on]).max(), 2.0**-52)
    # Below the smallest normal double Phi is 0 or within one of it.
    assert (~normal).sum() > 50
    assert (np.abs(ours - phi)[~normal] < tiny).all()
    assert (ours[~normal] == 0.0).all()
    assert relative_error(ours_log, theirs_log).max() <= 2e-14
    # scipy's own ndtr error grows as x**2 in the lower tail; above -10 it is
    # below 1e-14.
    above = xs >= -10.0
    assert relative_error(ours[above], theirs[above]).max() <= 2e-14


def test_tail_functions_propagate_nan_and_saturate():
    with np.errstate(all="raise"):
        assert np.isnan(ndtr(np.nan)) and np.isnan(log_ndtr(np.nan))
        assert ndtr([-np.inf, np.inf]).tolist() == [0.0, 1.0]
        assert log_ndtr([-np.inf, np.inf]).tolist() == [-np.inf, 0.0]
        assert log_ndtr(-1e200) == -np.inf
        assert ndtr(np.zeros((2, 3))).shape == (2, 3)


def test_normal_cdf_known_point():
    assert abs(normal_cdf(1.0) - 0.841344746068543) < 1e-12
    assert normal_cdf(0.0) == 0.5


def test_normal_cdf_monotone_and_open_interval():
    xs = np.linspace(-37.0, 37.0, 4001)
    vals = np.asarray([normal_cdf(float(x)) for x in xs])
    assert (np.diff(vals) >= 0.0).all()
    # Strictly inside (0, 1) wherever a double away from the endpoint exists:
    # below about -37 the lower tail underflows, above about +8.2 the nearest
    # representable double is exactly 1. log_ndtr, which the statistic
    # uses for both tails, carries them.
    inside = (xs >= -37.0) & (xs <= 8.0)
    assert (vals[inside] > 0.0).all()
    assert (vals[inside] < 1.0).all()
    assert math.isfinite(log_ndtr(-30.0)) and log_ndtr(-30.0) < -400.0
    assert math.isfinite(log_ndtr(-37.0))


def test_log_tails_match_quadrature():
    # The statistic's tail weights: log Phi(x) and log(1 - Phi(x)) = log Phi(-x).
    for x in [-12.0, -8.5, -5.0, -1.0, 0.0, 1.0, 5.0, 8.5, 12.0]:
        assert log_ndtr(x) == pytest.approx(log_phi_quadrature(x), rel=1e-10)
        assert log_ndtr(-x) == pytest.approx(log_phi_quadrature(-x), rel=1e-10)


def _seeded_samples():
    rng = np.random.default_rng(20260816)
    samples = []
    for i in range(100):
        n = int(rng.integers(8, 200))
        kind = i % 4
        if kind == 0:
            s = rng.normal(203.0, 1.7, size=n)
        elif kind == 1:
            s = rng.uniform(-3.0, 2.0, size=n)
        elif kind == 2:
            s = rng.exponential(2.5, size=n)
        else:
            s = rng.normal(0.0, 1.0, size=n) + rng.normal(4.0, 0.3, size=n)
        samples.append(s)
    return samples


def test_statistic_matches_reference_on_seeded_samples():
    for sample in _seeded_samples():
        result = anderson_darling(sample)
        expected = ad_statistic_reference(sample)
        assert abs(result.a2 - expected) <= 1e-10
        assert result.a2_star == pytest.approx(
            expected * sample_size_correction(sample.size), abs=1e-9
        )
        assert result.reject_at_1pct == (result.a2_star > REJECT_1PCT)


def test_statistic_small_fixed_vector_lowered_gate():
    sample = [-1.2, -0.5, 0.0, 0.4, 1.3]
    result = anderson_darling(sample, min_samples=5)
    expected = ad_statistic_reference(sample, min_n=5)
    assert abs(result.a2 - expected) <= 1e-10
    assert result.a2_star == result.a2 * sample_size_correction(5)
    with pytest.raises(InsufficientSampleError):
        anderson_darling(sample)  # default gate is 8


def test_correction_factor_shape():
    assert sample_size_correction(100) == pytest.approx(1.0 + 0.04 + 0.0025)
    assert sample_size_correction(10) > sample_size_correction(1000) > 1.0


def test_affine_invariance_fixed():
    rng = np.random.default_rng(7)
    x = rng.normal(size=60)
    base = anderson_darling(x).a2
    shifted = anderson_darling(3.0 * x + 5.0).a2
    assert abs(base - shifted) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=1e4),
    shift=st.floats(min_value=-1e4, max_value=1e4),
)
def test_affine_invariance_property(scale, shift):
    rng = np.random.default_rng(11)
    x = rng.normal(size=40)
    assert anderson_darling(scale * x + shift).a2 == pytest.approx(
        anderson_darling(x).a2, abs=1e-9
    )


def test_permutation_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=50)
    shuffled = x.copy()
    rng.shuffle(shuffled)
    assert anderson_darling(x).a2 == anderson_darling(shuffled).a2


def test_uniform_sample_rejected_normal_not():
    rng = np.random.default_rng(99)
    assert anderson_darling(rng.uniform(size=400)).reject_at_1pct
    assert not anderson_darling(rng.normal(size=400)).reject_at_1pct


def test_degenerate_sample_errors():
    with pytest.raises(DegenerateDataError):
        anderson_darling(np.full(20, 3.25))
    with pytest.raises(InsufficientSampleError):
        anderson_darling([1.0, 2.0, 3.0])


def test_nearest_rank_quantiles():
    vals = [1.0, 2.0, 3.0, 4.0]
    assert nearest_rank_reference(vals, 0.50) == 2.0
    assert nearest_rank_reference(vals, 0.90) == 4.0
    assert nearest_rank_reference(vals, 0.99) == 4.0
    assert nearest_rank_reference(vals, 0.25) == 1.0
    # The summary's numpy quantile is the same rank at every size it can meet.
    rng = np.random.default_rng(8)
    for n in range(1, 1001):
        vals = np.sort(rng.normal(size=n))
        got = np.quantile(vals, (0.50, 0.90, 0.99), method="inverted_cdf")
        assert got.tolist() == [nearest_rank_reference(vals, q) for q in (0.50, 0.90, 0.99)]


def test_rows_summary_is_nearest_rank_of_row_stats():
    rng = np.random.default_rng(42)
    matrix = rng.normal(size=(20, 64))
    stats, summary = test_rows(matrix)
    assert len(stats) == 20
    stars = np.sort(stats.a2_star)
    assert summary == ADSummary(
        quantile_50=nearest_rank_reference(stars, 0.50),
        quantile_90=nearest_rank_reference(stars, 0.90),
        quantile_99=nearest_rank_reference(stars, 0.99),
        max=float(stars[-1]),
    )


@settings(max_examples=200, deadline=None)
@given(
    num_rows=st.integers(1, 12),
    num_cols=st.integers(MIN_SAMPLES, 80),
    scale=st.floats(min_value=1e-3, max_value=1e4),
    offset=st.floats(min_value=-1e4, max_value=1e4),
    order=st.sampled_from(["C", "F", "transposed view"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rows_equal_row_by_row_reference(num_rows, num_cols, scale, offset, order, seed):
    rng = np.random.default_rng(seed)
    if order == "transposed view":  # how build_matrices returns freq
        matrix = (offset + scale * rng.normal(size=(num_cols, num_rows))).T
    else:
        matrix = np.asarray(offset + scale * rng.normal(size=(num_rows, num_cols)), order=order)
    stats, summary = test_rows(matrix)
    rows, expected_summary = test_rows_reference(matrix)
    assert stats.tolist() == rows
    assert (summary.quantile_50, summary.quantile_90, summary.quantile_99,
            summary.max) == expected_summary


def _laid_out(rng, num_rows, num_cols, order):
    if order == "transposed view":  # how build_matrices returns freq
        return (203.0 + 1.7 * rng.normal(size=(num_cols, num_rows))).T
    return np.asarray(203.0 + 1.7 * rng.normal(size=(num_rows, num_cols)), order=order)


def _assert_rows_equal_reference(matrix):
    stats, summary = test_rows(matrix)
    rows, expected_summary = test_rows_reference(matrix)
    a2, a2_star, reject = zip(*rows)
    assert stats.a2.tobytes() == np.array(a2).tobytes()
    assert stats.a2_star.tobytes() == np.array(a2_star).tobytes()
    assert stats.reject_at_1pct.tolist() == list(reject)
    assert (summary.quantile_50, summary.quantile_90, summary.quantile_99,
            summary.max) == expected_summary


_STEP_193 = normality._BLOCK_CELLS // 193  # rows of 193 cells per block


@pytest.mark.parametrize("order", ["C", "F", "transposed view"])
@pytest.mark.parametrize("num_rows, num_cols", [
    (2 * _STEP_193 + 5, 193),             # two full blocks, then a partial one
    (3 * _STEP_193, 193),                 # full blocks only
    (1, normality._BLOCK_CELLS + 7),      # one row longer than a block
    (3, normality._BLOCK_CELLS + 7),      # one such row per block
    (2, normality._BLOCK_CELLS // 2 + 1),  # rows that do not share a block
])
def test_rows_across_blocks_equal_row_by_row_reference(num_rows, num_cols, order):
    matrix = _laid_out(np.random.default_rng(num_rows * num_cols), num_rows, num_cols, order)
    assert num_rows * num_cols > normality._BLOCK_CELLS or num_rows == 1
    _assert_rows_equal_reference(matrix)


@settings(max_examples=100, deadline=None)
@given(
    block_cells=st.integers(1, 400),
    num_rows=st.integers(1, 30),
    num_cols=st.integers(MIN_SAMPLES, 60),
    order=st.sampled_from(["C", "F", "transposed view"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rows_equal_reference_wherever_blocks_are_cut(block_cells, num_rows, num_cols,
                                                       order, seed):
    matrix = _laid_out(np.random.default_rng(seed), num_rows, num_cols, order)
    with mock.patch.object(normality, "_BLOCK_CELLS", block_cells):
        _assert_rows_equal_reference(matrix)


def test_rows_traced_peak_is_one_block():
    # One pass over the whole matrix peaks near 11.4 MiB on this matrix;
    # one block's temporaries stay near 2 MiB.
    matrix = np.random.default_rng(20140512).normal(size=(512, 193))
    test_rows(matrix)
    tracemalloc.start()
    try:
        test_rows(matrix)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_rows_match_scipy_statistic():
    # The same statistic with scipy.special's tails, computed row by row.
    from scipy.special import log_ndtr as scipy_log_ndtr

    rng = np.random.default_rng(20261019)
    for n in (8, 30, 193, 2000):
        matrix = np.vstack([rng.normal(size=(6, n)), rng.exponential(size=(3, n)),
                            rng.uniform(size=(3, n))])
        stats, _ = test_rows(matrix)
        for row, got in zip(matrix, stats):
            y = np.sort((row - row.mean()) / row.std(ddof=1))
            weights = 2.0 * np.arange(n) + 1.0
            a2 = -np.sum(weights * (scipy_log_ndtr(y) + scipy_log_ndtr(-y)[::-1])) / n - n
            assert got.a2 == pytest.approx(a2, rel=1e-12, abs=0.0)
            assert got.a2_star == pytest.approx(a2 * sample_size_correction(n), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [8, 193, 20_000])
def test_rows_extreme_outlier_raises_nothing(n):
    # One reading far from the rest puts |y| at its largest, (n-1)/sqrt(n),
    # on either side; no numpy floating-point event may fire, underflow
    # included.
    rng = np.random.default_rng(n)
    spike = np.zeros(n)
    spike[n // 2] = 1.0
    far = rng.normal(size=n)
    far[0] = 1e6
    matrix = np.vstack([spike, -spike, far, rng.normal(size=n)])
    with np.errstate(all="raise"):
        stats, summary = test_rows(matrix)
    assert np.isfinite(stats.a2).all() and np.isfinite(stats.a2_star).all()
    assert math.isfinite(summary.max)
    y = (n - 1) / math.sqrt(n)
    with np.errstate(all="raise"):
        assert np.isfinite(log_ndtr([y, -y])).all()


def test_rows_error_names_row():
    # The first failing row, found without a numpy warning (which the test
    # configuration makes an error) from dividing the flat rows by zero.
    matrix = np.random.default_rng(1).normal(size=(5, 30))
    matrix[3, :] = 4.0
    matrix[2, :] = 1.25
    with pytest.raises(DegenerateDataError,
                       match="^row 2: sample has zero standard deviation$"):
        test_rows(matrix)
    with pytest.raises(InsufficientSampleError,
                       match="^row 0: need at least 8 observations, got 5$"):
        test_rows(matrix[:, :5])


def _failing(matrix, message):
    with np.errstate(all="raise"):
        with pytest.raises(DegenerateDataError, match=f"^{message}$"):
            test_rows(matrix)


def test_rows_first_failing_row_in_a_later_block():
    matrix = np.random.default_rng(2).normal(size=(3 * _STEP_193, 193))
    last = 3 * _STEP_193 - 1
    matrix[last, :] = 2.0
    _failing(matrix, f"row {last}: sample has zero standard deviation")
    matrix[_STEP_193 + 4, :] = -1.5
    _failing(matrix, f"row {_STEP_193 + 4}: sample has zero standard deviation")


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("gap", [1, _STEP_193])  # the same block, or the next
def test_rows_first_failing_row_wins_whatever_its_reason(bad, gap):
    # No numpy warning fires (the test configuration makes one an error),
    # and none under errstate(all="raise") either.
    def flat_and_bad(flat_row, bad_row):
        matrix = np.random.default_rng(3).normal(size=(3 * _STEP_193, 193))
        matrix[flat_row, :] = 7.0
        matrix[bad_row, 100] = bad
        return matrix

    _failing(flat_and_bad(5, 5 + gap), "row 5: sample has zero standard deviation")
    _failing(flat_and_bad(5 + gap, 5), "row 5: sample is not finite")


def test_rows_non_finite_row_is_named_as_such():
    for bad in (np.inf, np.nan):
        _failing(np.array([[1.0] * 9 + [bad]]), "row 0: sample is not finite")
        with pytest.raises(DegenerateDataError, match="^row 0: sample is not finite$"):
            anderson_darling([bad] + [1.0, 2.0, 3.0] * 4)


def test_rows_empty_matrix_is_degenerate():
    for shape in ((0, 10), (0, 3)):
        _failing(np.zeros(shape), "matrix has no rows")


def test_rejection_rate_calibrated_on_normal_rows():
    rng = np.random.default_rng(20140512)
    matrix = rng.normal(size=(512, 193))
    stats, _ = test_rows(matrix)
    assert len(stats) == 512
    assert stats.reject_at_1pct.mean() <= 0.03


def test_min_samples_gate_respected():
    rng = np.random.default_rng(5)
    x = rng.normal(size=MIN_SAMPLES)
    anderson_darling(x)  # exactly at the gate: fine
    with pytest.raises(InsufficientSampleError):
        anderson_darling(x[:-1])
