import numpy as np
import pytest

from oracles import covariance_reference, pearson_reference
from pufstat.correlation import (
    CorrelationProfile,
    covariance_matrix,
    fit_line,
    pearson,
    profile,
)
from pufstat.errors import DegenerateDataError, InsufficientSampleError
from pufstat.geometry import GridGeometry
from pufstat.matrices import build_matrices
from pufstat.syngen import SynthConfig, generate


def test_pearson_frozen_value():
    # Hand-checked: covariance 3/4, both stds sqrt(5)/2 -> r = 0.6.
    assert pearson([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-15)


def test_pearson_perfect_and_inverse():
    x = np.asarray([0.0, 1.0, 2.0, 5.0])
    assert pearson(x, 3.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -2.0 * x) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_matches_reference():
    rng = np.random.default_rng(77)
    for _ in range(20):
        x = rng.normal(size=30)
        y = rng.normal(size=30) + 0.3 * x
        assert pearson(x, y) == pytest.approx(pearson_reference(x, y), abs=1e-12)


def test_pearson_guards():
    with pytest.raises(InsufficientSampleError):
        pearson([1.0, 2.0], [3.0, 4.0])
    with pytest.raises(DegenerateDataError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_profile_reference_row_self_correlation():
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(6, 40))
    result = profile(matrix)
    assert isinstance(result, CorrelationProfile)
    assert result.reference_index == 5
    assert result.coefficients[5] == pytest.approx(1.0, abs=1e-12)
    assert result.coefficients.shape == (6,)

    other = profile(matrix[:3])
    assert other.reference_index == 2
    assert other.coefficients[2] == pytest.approx(1.0, abs=1e-12)


def test_profile_matches_pairwise_pearson():
    rng = np.random.default_rng(6)
    matrix = rng.normal(size=(5, 25))
    result = profile(matrix)
    for i in range(5):
        assert result.coefficients[i] == pytest.approx(
            pearson_reference(matrix[i], matrix[4]), abs=1e-12
        )


def test_profile_iid_null_stays_small():
    # Independent rows at 193 devices: sample correlations near zero.
    rng = np.random.default_rng(20140193)
    matrix = rng.normal(size=(32, 193))
    result = profile(matrix)
    off = np.delete(result.coefficients, result.reference_index)
    assert np.max(np.abs(off)) < 0.3


def test_profile_constant_row_error():
    matrix = np.vstack([np.ones(10), np.arange(10.0)])
    with pytest.raises(DegenerateDataError, match="\\[0\\]"):
        profile(matrix)


def test_covariance_matches_double_loop():
    rng = np.random.default_rng(99)
    data = rng.normal(size=(7, 25))
    got = covariance_matrix(data)
    want = covariance_reference(data)
    assert np.max(np.abs(got - want)) < 1e-12


def test_covariance_population_divisor():
    # Single pair of columns: population covariance divides by n, not n-1.
    data = np.asarray([[1.0, 3.0]])
    assert covariance_matrix(data)[0, 0] == pytest.approx(1.0)


def test_covariance_symmetry_and_psd():
    rng = np.random.default_rng(123)
    data = rng.normal(size=(12, 30))
    c = covariance_matrix(data)
    assert np.allclose(c, c.T)
    eigs = np.linalg.eigvalsh(c)
    assert eigs.min() > -1e-10 * max(1.0, eigs.max())


def test_fit_line():
    slope, intercept = fit_line([1.0, 3.0, 5.0])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)
    assert fit_line([2.0, 5.0]) == pytest.approx((3.0, 2.0), abs=1e-12)


@pytest.mark.parametrize("values", [[], [4.0]])
def test_fit_line_refuses_fewer_than_two_points(values):
    with pytest.raises(InsufficientSampleError, match=f"2 points for a line, got {len(values)}$"):
        fit_line(values)


def test_spatial_gradient_separates_dev_from_diff():
    # A smooth planted gradient correlates rows of the per-device-centered
    # matrix strongly, while pairing neighbours steps the gradient by a
    # single grid unit, so the difference profile collapses towards noise.
    config = SynthConfig(
        num_devices=128,
        num_ros=512,
        num_samples=2,
        geometry=GridGeometry(16, 32, "col"),
        seed=424242,
        device_sigma=3.0,
        gradient_x_sigma=0.3,
        gradient_y_sigma=0.3,
        local_sigma=1.0,
        meas_sigma=0.02,
    )
    readings, _, _ = generate(config)
    matrices = build_matrices(readings)

    dev_profile = profile(matrices.dev)
    diff_profile = profile(matrices.diff)

    dev_mean = float(
        np.mean(np.abs(np.delete(dev_profile.coefficients, dev_profile.reference_index)))
    )
    diff_mean = float(
        np.mean(np.abs(np.delete(diff_profile.coefficients, diff_profile.reference_index)))
    )
    assert dev_mean > 5.0 * diff_mean
