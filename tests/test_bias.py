import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pufstat.bias import (
    bias_binary,
    bias_histogram,
    bias_normal,
    bias_report,
    clamp_probabilities,
    entropy,
    key_logprob,
)
from pufstat.errors import (DegenerateDataError, InsufficientSampleError, StructuralError,
                            ValidationError)

from oracles import relative_error


def test_bias_binary_basic():
    bits = np.asarray([[1, 1, 1, 1], [1, 0, 1, 0], [0, 0, 0, 0]], dtype=np.uint8)
    assert bias_binary(bits) == pytest.approx([1.0, 0.5, 0.0])


def test_bias_normal_zero_mean_is_half():
    diff = np.asarray([[-1.0, 1.0, -2.0, 2.0]])
    assert bias_normal(diff)[0] == 0.5


def test_bias_normal_three_sigma():
    # Two devices with mean exactly 3 and sample std exactly 1.
    half = math.sqrt(2.0) / 2.0
    diff = np.asarray([[3.0 - half, 3.0 + half]])
    assert bias_normal(diff)[0] == pytest.approx(0.998650101968370, abs=1e-12)


def test_bias_report_normal_model_matches_mpmath():
    # Phi(mean/std) per pair, against 50-digit mpmath: no further than
    # scipy.special.ndtr is from it, or than one rounding, and within 2e-14
    # of scipy's value.
    import mpmath
    from scipy import special

    rng = np.random.default_rng(17)
    diff = rng.normal(0.3, 2.0, size=(24, 30))
    diff[:4] += 9.0 * rng.normal(size=(4, 1))  # a few pairs far in a tail
    report = bias_report(diff, (diff > 0).astype(np.uint8))
    ratio = diff.mean(axis=1) / diff.std(axis=1, ddof=1)
    with mpmath.workdps(50):
        want = np.array([float(mpmath.ncdf(mpmath.mpf(float(r)))) for r in ratio])
    theirs = special.ndtr(ratio)
    worst = relative_error(report.p_normal, want).max()
    assert worst <= max(relative_error(theirs, want).max(), 2.0**-52)
    assert relative_error(report.p_normal, theirs).max() <= 2e-14
    assert report.entropy_normal == entropy(report.p_normal)


def test_bias_normal_degenerate_row():
    diff = np.asarray([[1.0, 1.0, 1.0], [0.5, 1.0, 2.0]])
    with pytest.raises(DegenerateDataError, match="\\[0\\]"):
        bias_normal(diff)
    with pytest.raises(InsufficientSampleError, match="2 devices"):
        bias_normal(diff[:, :1])


def test_entropy_exact_values():
    assert entropy(np.full(256, 0.5)) == 256.0
    assert entropy([0.0, 1.0, 0.5]) == 1.0
    assert entropy([]) == 0.0
    with pytest.raises(ValidationError):
        entropy([1.1])


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_entropy_symmetry(p):
    assert entropy([p]) == pytest.approx(entropy([1.0 - p]), abs=1e-12)


def test_entropy_maximized_at_half():
    grid = np.linspace(0.0, 1.0, 101)
    values = [entropy([p]) for p in grid]
    assert max(values) == entropy([0.5]) == 1.0


def test_entropy_of_unbiased_binomial_sampling():
    # Exact expectation of the per-bit entropy when p_hat ~ Bin(J, 1/2)/J.
    num_devices, num_pairs = 200, 64
    counts = np.arange(num_devices + 1)
    pmf = stats.binom.pmf(counts, num_devices, 0.5)
    p_hat = counts / num_devices
    inner = (p_hat > 0) & (p_hat < 1)
    h = np.zeros_like(p_hat)
    h[inner] = -(
        p_hat[inner] * np.log2(p_hat[inner])
        + (1 - p_hat[inner]) * np.log2(1 - p_hat[inner])
    )
    e_bit = float(np.sum(pmf * h))
    var_bit = float(np.sum(pmf * (h - e_bit) ** 2))

    rng = np.random.default_rng(2718)
    bits = (rng.random((num_pairs, num_devices)) > 0.5).astype(np.uint8)
    total = entropy(bias_binary(bits))
    assert abs(total - num_pairs * e_bit) < 5.0 * math.sqrt(num_pairs * var_bit)


def test_clamp_probabilities():
    clamped = clamp_probabilities([0.0, 0.5, 1.0], num_devices=100)
    assert clamped == pytest.approx([0.005, 0.5, 0.995])
    with pytest.raises(ValidationError):
        clamp_probabilities([0.5], 0)


def test_key_logprob_uniform():
    p = np.full(16, 0.5)
    for key in (np.zeros(16, dtype=int), np.ones(16, dtype=int)):
        assert key_logprob(key, p) == -16.0


def test_key_logprob_validation():
    with pytest.raises(StructuralError):
        key_logprob([1, 0], [0.5])
    with pytest.raises(ValidationError):
        key_logprob([1], [1.0])


def test_key_ranking_matches_exhaustive_enumeration():
    rng = np.random.default_rng(31)
    p = clamp_probabilities(rng.uniform(0.05, 0.95, size=8), 100)
    keys = [np.array([(k >> b) & 1 for b in range(8)]) for k in range(256)]
    by_logprob = sorted(range(256), key=lambda k: -key_logprob(keys[k], p))
    direct = [
        float(np.prod(np.where(keys[k] == 1, p, 1.0 - p))) for k in range(256)
    ]
    by_product = sorted(range(256), key=lambda k: -direct[k])
    assert by_logprob == by_product
    # Probabilities are properly normalized over the key space.
    assert math.fsum(direct) == pytest.approx(1.0, abs=1e-12)


def test_key_logprob_single_flip_direction():
    p = np.asarray([0.9, 0.2, 0.6])
    key = np.asarray([1, 0, 1])  # the most likely key for these p
    best = key_logprob(key, p)
    for flip in range(3):
        other = key.copy()
        other[flip] ^= 1
        assert key_logprob(other, p) < best


def test_bias_report_and_histogram(small_matrices):
    report = bias_report(small_matrices.diff, small_matrices.bits)
    assert report.p_binary.shape == report.p_normal.shape
    assert report.entropy_binary <= small_matrices.num_pairs
    assert report.entropy_normal <= small_matrices.num_pairs
    assert report.num_devices == small_matrices.num_devices
    edges, counts_bin, counts_norm = bias_histogram(report)
    assert edges[0] == -0.5 and edges[-1] == pytest.approx(0.5)
    assert counts_bin.sum() == small_matrices.num_pairs
    assert counts_norm.sum() == small_matrices.num_pairs


def test_histogram_bin_edges_left_closed():
    # Biases -0.5, -0.44, 0.01, 0.44 and 0.5, and five of 0.
    class FakeReport:
        p_binary = np.asarray([0.0, 0.06, 0.51, 0.94, 1.0])
        p_normal = np.full(5, 0.5)

    edges, counts_bin, counts_norm = bias_histogram(FakeReport())
    assert counts_bin.tolist() == [2, 0, 0, 0, 0, 1, 0, 0, 0, 2]
    assert counts_norm.tolist() == [0, 0, 0, 0, 0, 5, 0, 0, 0, 0]


def test_mismatched_pair_counts():
    with pytest.raises(StructuralError):
        bias_report(np.random.default_rng(0).normal(size=(4, 6)),
                    np.zeros((5, 6), dtype=np.uint8))
