import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstat.errors import DegenerateDataError, InsufficientSampleError
from pufstat.normality import (
    ADSummary,
    MIN_SAMPLES,
    REJECT_1PCT,
    anderson_darling,
    normal_cdf,
    sample_size_correction,
    test_rows,
)

from oracles import (ad_statistic_reference, log_phi_quadrature, nearest_rank_reference,
                     phi_quadrature, test_rows_reference)


def test_normal_cdf_against_quadrature_grid():
    for x in np.linspace(-8.0, 8.0, 25):
        assert abs(normal_cdf(float(x)) - phi_quadrature(float(x))) <= 1e-12


def test_tail_functions_are_scipy_values():
    from scipy import special

    for x in (-40.0, -8.5, -1.0, -1e-3, 0.0, 0.25, 3.0, 12.0):
        assert normal_cdf(x) == float(special.ndtr(x))


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
    from scipy.special import log_ndtr

    inside = (xs >= -37.0) & (xs <= 8.0)
    assert (vals[inside] > 0.0).all()
    assert (vals[inside] < 1.0).all()
    assert math.isfinite(log_ndtr(-30.0)) and log_ndtr(-30.0) < -400.0
    assert math.isfinite(log_ndtr(-37.0))


def test_log_tails_match_quadrature():
    # The statistic's tail weights: log Phi(x) and log(1 - Phi(x)) = log Phi(-x).
    from scipy.special import log_ndtr

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
