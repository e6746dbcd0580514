import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pufstat.bias import bias_binary, bias_normal
from pufstat.correlation import covariance_matrix, profile
from pufstat.covfit import evaluate_attack
from pufstat.dataset import ReadingsTensor
from pufstat.errors import (
    ConfigurationError,
    DegenerateDataError,
    InsufficientSampleError,
    StructuralError,
    ValidationError,
)
from pufstat.matrices import build_matrices, pack_bits, response_bits, row_stds, unpack_bits
from pufstat.normality import test_rows
from pufstat.pca import pc_key_correlation, pca, standardize
from pufstat.similarity import group_variance_map


def tensor_from(values):
    return ReadingsTensor(np.asarray(values, dtype=np.float64))


def test_minimal_example_all_matrices():
    # One device, one pair; two samples per RO.
    readings = tensor_from([[[100.0, 102.0], [99.0, 97.0]]])
    m = build_matrices(readings)
    assert m.freq[:, 0] == pytest.approx([101.0, 98.0])
    assert m.dev[:, 0] == pytest.approx([1.5, -1.5])
    assert m.diff[:, 0] == pytest.approx([-3.0])
    assert m.bits[0, 0] == 0


def test_zero_difference_maps_to_zero_bit():
    readings = tensor_from([[[100.0], [100.0]]])
    m = build_matrices(readings)
    assert m.diff[0, 0] == 0.0
    assert m.bits[0, 0] == 0


def test_bit_rule_sign_flip():
    values = np.asarray([3.0, -2.0, 0.0, 1e-300, -1e-300])
    flipped = response_bits(-values)
    straight = response_bits(values)
    nonzero = values != 0.0
    assert (flipped[nonzero] == 1 - straight[nonzero]).all()
    assert straight[values == 0.0].item() == 0
    assert flipped[values == 0.0].item() == 0


def test_response_bits_matches_inline_rule():
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(5)
    values = np.concatenate([
        [-1.0, 0.0, 2.0, -0.0, tiny, -tiny, 1e-310, -1e-310, np.inf, -np.inf],
        rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, size=200),
    ])
    expected = [1 if x > 0.0 else 0 for x in values.tolist()]
    bits = response_bits(values)
    assert bits.dtype == np.uint8
    assert bits.tolist() == expected
    grid = response_bits(values.reshape(10, 21))
    assert grid.tolist() == [expected[k:k + 21] for k in range(0, 210, 21)]


def test_deviation_columns_sum_to_zero(small_matrices):
    m = small_matrices
    bound = 1e-9 * m.num_ros * np.abs(m.freq).max()
    assert np.abs(m.dev.sum(axis=0)).max() < bound


def test_sample_mean_matches_fsum():
    rng = np.random.default_rng(8)
    values = rng.normal(200.0, 5.0, size=(3, 4, 25))
    m = build_matrices(tensor_from(values))
    for j in range(3):
        for i in range(4):
            expected = math.fsum(values[j, i]) / 25
            assert m.freq[i, j] == pytest.approx(expected, abs=1e-12)


def test_matrix_shapes(small_matrices):
    m = small_matrices
    assert m.freq.shape == (64, 48)
    assert m.dev.shape == (64, 48)
    assert m.diff.shape == (32, 48)
    assert m.bits.shape == (32, 48)
    assert m.num_pairs == m.num_ros // 2


def test_odd_ro_count_rejected():
    with pytest.raises(ConfigurationError,
                       match="^RO count must be even for pairwise grouping, got 3$"):
        build_matrices(tensor_from(np.ones((2, 3, 4))))


def test_matrices_are_immutable(small_matrices):
    with pytest.raises(ValueError):
        small_matrices.freq[0, 0] = 1.0


def test_pack_single_device_msb_first():
    bits = np.zeros((8, 1), dtype=np.uint8)
    bits[0, 0] = 1
    assert pack_bits(bits) == b"\x80"
    bits[7, 0] = 1
    assert pack_bits(bits) == b"\x81"


def test_pack_device_major_order():
    bits = np.zeros((8, 2), dtype=np.uint8)
    bits[0, 1] = 1  # second device, first pair
    assert pack_bits(bits) == b"\x00\x80"


def test_pack_rejects_non_multiple_of_eight():
    with pytest.raises(ConfigurationError):
        pack_bits(np.zeros((12, 3), dtype=np.uint8))


def test_pack_refuses_an_entry_other_than_0_or_1():
    bits = np.zeros((8, 2), dtype=np.uint8)
    bits[3, 1] = 2
    with pytest.raises(ValidationError, match="^bit matrix entries must be 0 or 1$"):
        pack_bits(bits)


def test_row_stds_owns_the_spread_rule():
    m = np.asarray([[1.0, 2.0, 4.0], [5.0, 5.0, 5.0], [0.0, 3.0, 0.0], [7.0, 7.0, 7.0]])
    assert row_stds(m[[0, 2]], "ROs").tolist() == m[[0, 2]].std(axis=1, ddof=1).tolist()
    with pytest.raises(DegenerateDataError) as excinfo:
        row_stds(m, "pair rows")
    assert not isinstance(excinfo.value, InsufficientSampleError)
    assert str(excinfo.value) == "pair rows with zero spread across devices: [1, 3]"
    with pytest.raises(InsufficientSampleError, match="^a spread needs at least 2 devices, got 1$"):
        row_stds(m[:, :1], "ROs")


def test_pack_reference_shape_size():
    rng = np.random.default_rng(0)
    bits = (rng.random((256, 193)) > 0.5).astype(np.uint8)
    packed = pack_bits(bits)
    assert len(packed) == 6176
    assert np.array_equal(unpack_bits(packed, 256, 193), bits)


def test_unpack_length_mismatch():
    with pytest.raises(StructuralError):
        unpack_bits(b"\x00" * 10, 16, 4)


@settings(max_examples=40, deadline=None)
@given(
    pairs=st.integers(min_value=1, max_value=4).map(lambda k: 8 * k),
    devices=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_pack_unpack_round_trip(pairs, devices, seed):
    rng = np.random.default_rng(seed)
    bits = (rng.random((pairs, devices)) > 0.5).astype(np.uint8)
    assert np.array_equal(unpack_bits(pack_bits(bits), pairs, devices), bits)


def _pc_key_correlation(bits):
    freq = np.random.default_rng(5).normal(200.0, 1.0, size=(8, 6))
    return pc_key_correlation(pca(standardize(freq)), bits, 1)


@pytest.mark.parametrize("call, name", [
    (bias_binary, "bit matrix"),
    (bias_normal, "difference matrix"),
    (profile, "matrix"),
    (covariance_matrix, "difference matrix"),
    (lambda diff: evaluate_attack(diff, [0], [0]), "difference matrix"),
    (pack_bits, "bit matrix"),
    (test_rows, "matrix"),
    (standardize, "frequency matrix"),
    (_pc_key_correlation, "bit matrix"),
    (group_variance_map, "deviation matrix"),
], ids=["bias_binary", "bias_normal", "profile", "covariance_matrix", "evaluate_attack",
        "pack_bits", "test_rows", "standardize", "pc_key_correlation", "group_variance_map"])
@pytest.mark.parametrize("shape", [(8,), (8, 6, 2)], ids=["1-D", "3-D"])
def test_analysis_input_that_is_not_a_matrix_is_structural(call, name, shape):
    # Every statistic takes its matrices through matrices.as_matrix.
    with pytest.raises(StructuralError) as excinfo:
        call(np.zeros(shape, dtype=np.uint8))
    assert str(excinfo.value) == f"{name} must be 2-dimensional, got {shape}"
