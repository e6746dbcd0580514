import numpy as np
import pytest

from pufstat.errors import (ConfigurationError, DegenerateDataError, InsufficientSampleError,
                            StructuralError)
from pufstat.geometry import GridGeometry
from pufstat.matrices import build_matrices, pair_differences, response_bits
from pufstat.pca import (
    ScaledData,
    loading_map,
    pc_key_correlation,
    pca,
    standardize,
    truncated_bits,
)
from pufstat.syngen import SynthConfig, generate, preset


def _scaled_from(matrix):
    y = np.asarray(matrix, dtype=np.float64)
    return ScaledData(
        y=y.copy(),
        col_means=np.zeros(y.shape[1]),
        col_stds=np.ones(y.shape[1]),
    )


def test_hand_checked_singular_values():
    # Columns are already orthogonal with norms 2 and 1.
    y = np.asarray([[0.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    result = pca(_scaled_from(y))
    assert result.singular_values == pytest.approx([2.0, 1.0])
    assert result.variance_fractions == pytest.approx([0.8, 0.2])
    assert result.rank == 2
    # Sign convention: dominant loading entries positive.
    assert result.loadings[0, 0] == pytest.approx(1.0)
    assert result.loadings[1, 1] == pytest.approx(1.0)
    assert result.scores[:, 0] == pytest.approx([0.0, 2.0, 0.0])
    assert result.scores[:, 1] == pytest.approx([1.0, 0.0, 0.0])


def test_standardize_two_device_row():
    freq = np.asarray([[99.0, 101.0], [200.0, 196.0]])
    scaled = standardize(freq)
    root_half = np.sqrt(0.5)
    want = np.asarray([[-root_half, root_half], [root_half, -root_half]])
    assert np.allclose(scaled.y, want, atol=1e-12)
    assert scaled.col_means == pytest.approx([100.0, 198.0])
    assert scaled.col_stds == pytest.approx([np.sqrt(2.0), np.sqrt(8.0)])
    assert np.allclose(scaled.unscale(), freq, atol=1e-12)


def test_standardize_guards():
    with pytest.raises(DegenerateDataError, match="\\[1\\]"):
        standardize(np.asarray([[1.0, 2.0], [5.0, 5.0]]))
    with pytest.raises(InsufficientSampleError, match="2 devices"):
        standardize(np.asarray([[1.0], [2.0]]))
    with pytest.raises(StructuralError):
        standardize(np.zeros(4))


def test_loadings_orthonormal_and_reconstruction(small_matrices):
    scaled = standardize(small_matrices.freq)
    result = pca(scaled)
    gram = result.loadings.T @ result.loadings
    assert np.max(np.abs(gram - np.eye(result.rank))) < 1e-8
    recon = result.scores @ result.loadings.T
    assert np.max(np.abs(recon - scaled.y)) < 1e-8
    # Scores are the projections of the standardized rows.
    assert np.max(np.abs(scaled.y @ result.loadings - result.scores)) < 1e-8


def test_variance_fractions_normalized(small_matrices):
    result = pca(standardize(small_matrices.freq))
    fr = result.variance_fractions
    assert float(fr.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(fr) <= 1e-15)
    assert np.all(fr >= 0.0)
    sv = result.singular_values
    assert np.all(np.diff(sv) <= 1e-12)


def test_pca_deterministic_bytes(small_matrices):
    scaled = standardize(small_matrices.freq)
    a = pca(scaled)
    b = pca(standardize(small_matrices.freq))
    assert a.loadings.tobytes() == b.loadings.tobytes()
    assert a.scores.tobytes() == b.scores.tobytes()
    assert a.singular_values.tobytes() == b.singular_values.tobytes()
    assert a.variance_fractions.tobytes() == b.variance_fractions.tobytes()


def test_sign_convention_fixes_svd_ambiguity(small_matrices):
    result = pca(standardize(small_matrices.freq))
    for col in range(result.rank):
        anchor = np.argmax(np.abs(result.loadings[:, col]))
        assert result.loadings[anchor, col] > 0.0


def test_full_rank_truncation_agrees_exactly(small_matrices):
    scaled = standardize(small_matrices.freq)
    result = pca(scaled)
    bits_hat, agreement = truncated_bits(result, scaled, result.rank)
    assert agreement == 1.0
    assert bits_hat.shape == (small_matrices.num_pairs, small_matrices.num_devices)
    assert np.array_equal(bits_hat, small_matrices.bits)


def test_truncation_agreement_monotone_trend(small_matrices):
    scaled = standardize(small_matrices.freq)
    result = pca(scaled)
    agreements = [truncated_bits(result, scaled, r)[1] for r in (1, 8, 24, result.rank)]
    assert agreements[-1] == 1.0
    assert all(0.0 <= a <= 1.0 for a in agreements)
    # More retained structure cannot hurt much; the tail must recover fully.
    assert agreements[2] >= agreements[0] - 0.05


def test_unreduced_bits_derived_once_and_read_only(small_matrices):
    scaled = standardize(small_matrices.freq)
    bits = scaled.bits
    assert scaled.bits is bits
    assert not bits.flags.writeable
    with pytest.raises(ValueError):
        bits[0, 0] = 1 - bits[0, 0]
    assert np.array_equal(bits, response_bits(pair_differences(scaled.unscale())))
    assert np.array_equal(bits, small_matrices.bits)
    result = pca(scaled)
    for r in (1, 3):
        bits_hat, agreement = truncated_bits(result, scaled, r)
        assert agreement == float((bits_hat == small_matrices.bits).mean())
    assert scaled.bits is bits


def test_truncated_bits_rank_guards(small_matrices):
    scaled = standardize(small_matrices.freq)
    result = pca(scaled)
    for bad in (0, result.rank + 1, -3):
        with pytest.raises(ConfigurationError):
            truncated_bits(result, scaled, bad)


def test_truncated_bits_odd_ro_count_is_the_pairing_error():
    # Five ROs cannot be paired; the sweep fails as build_matrices does.
    scaled = _scaled_from(np.random.default_rng(3).normal(size=(6, 5)))
    result = pca(scaled)
    with pytest.raises(ConfigurationError,
                       match="^RO count must be even for pairwise grouping, got 5$"):
        truncated_bits(result, scaled, 2)


def test_loading_map_reshape():
    y = np.asarray([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    result = pca(_scaled_from(y))
    grid = loading_map(result, 1, GridGeometry(2, 2, "row"))
    vec = result.loadings[:, 0]
    assert grid.shape == (2, 2)
    assert grid[0, 0] == vec[0] and grid[0, 1] == vec[1]
    assert grid[1, 0] == vec[2] and grid[1, 1] == vec[3]

    col_grid = loading_map(result, 1, GridGeometry(2, 2, "col"))
    assert col_grid[0, 0] == vec[0] and col_grid[1, 0] == vec[1]
    assert col_grid[0, 1] == vec[2] and col_grid[1, 1] == vec[3]


def test_loading_map_guards(small_matrices):
    result = pca(standardize(small_matrices.freq))
    with pytest.raises(ConfigurationError, match="out of range"):
        loading_map(result, 0, GridGeometry(8, 8, "col"))
    with pytest.raises(ConfigurationError, match="cells"):
        loading_map(result, 1, GridGeometry(4, 4, "row"))


def test_planted_gradient_recovered_in_loadings():
    # One strong linear component along y: some leading PC's loading vector
    # must align with the centered y coordinate.
    config = SynthConfig(
        num_devices=200,
        num_ros=64,
        num_samples=1,
        geometry=GridGeometry(8, 8, "col"),
        seed=777,
        device_sigma=5.0,
        gradient_y_sigma=0.4,
        local_sigma=0.02,
    )
    readings, _, truth = generate(config)
    matrices = build_matrices(readings)
    scaled = standardize(matrices.freq)
    result = pca(scaled)
    yc = truth.coord_y - truth.coord_y.mean()
    yc = yc / np.linalg.norm(yc)
    best = max(
        abs(float(np.dot(result.loadings[:, col], yc)))
        / float(np.linalg.norm(result.loadings[:, col]))
        for col in range(2)
    )
    assert best > 0.99


def test_pc_key_correlation_null_small():
    # Without planted structure the per-device ones count should not follow
    # any single component's scores.
    values = []
    for seed in range(20):
        config = preset("null", seed=seed)
        readings, _, _ = generate(config)
        matrices = build_matrices(readings)
        result = pca(standardize(matrices.freq))
        values.append(abs(pc_key_correlation(result, matrices.bits, 3)))
    assert max(values) < 0.2


def test_pc_key_correlation_detects_device_bias():
    # Give each device a random per-pair-polarity push tied to its top score:
    # stronger devices set more ones, so the count tracks the component.
    rng = np.random.default_rng(91)
    num_ros, num_devices = 64, 150
    strength = rng.normal(size=num_devices)
    polarity = np.tile([1.0, -1.0], num_ros // 2)
    freq = 200.0 + np.outer(polarity, 3.0 * strength) + 0.5 * rng.normal(
        size=(num_ros, num_devices)
    )
    bits = (freq[1::2] - freq[0::2] > 0.0).astype(np.uint8)
    result = pca(standardize(freq))
    assert abs(pc_key_correlation(result, bits, 1)) > 0.8


def test_pc_key_correlation_guards(small_matrices):
    result = pca(standardize(small_matrices.freq))
    with pytest.raises(StructuralError):
        pc_key_correlation(result, small_matrices.bits[:, :10], 1)
    with pytest.raises(ConfigurationError):
        pc_key_correlation(result, small_matrices.bits, 0)


def test_results_write_protected(small_matrices):
    scaled = standardize(small_matrices.freq)
    result = pca(scaled)
    with pytest.raises(ValueError):
        result.loadings[0, 0] = 9.9
    with pytest.raises(ValueError):
        scaled.y[0, 0] = 9.9
