import numpy as np
import pytest

from oracles import group_variance_reference
from pufstat.correlation import pearson
from pufstat.dataset import DeviceMeta
from pufstat.errors import (
    ConfigurationError,
    DegenerateDataError,
    UnavailableAnalysisError,
)
from pufstat.similarity import (
    GroupVarianceMap,
    group_variance,
    group_variance_map,
    serial_correlation,
)


def test_group_variance_hand_case():
    dev = np.asarray([[-1.0, 1.0]])
    assert group_variance(dev, 0, 1) == pytest.approx(2.0)
    dev2 = np.asarray([[-1.0, 1.0], [0.0, 4.0]])
    assert group_variance(dev2, 0, 1) == pytest.approx((2.0 + 8.0) / 2.0)


def test_group_variance_guards():
    dev = np.zeros((3, 6))
    with pytest.raises(ConfigurationError):
        group_variance(dev, 2, 1)
    with pytest.raises(ConfigurationError):
        group_variance(dev, 0, 6)
    with pytest.raises(ConfigurationError):
        group_variance(dev, 3, 3)


def test_map_matches_brute_force():
    rng = np.random.default_rng(8)
    dev = rng.normal(size=(12, 15))
    gv = group_variance_map(dev, min_group=3)
    assert gv.values.shape == (15, 15)
    for a in range(15):
        for b in range(15):
            if b - a + 1 >= 3:
                want = group_variance_reference(dev, a, b)
                assert gv.values[a, b] == pytest.approx(want, abs=1e-10)
            else:
                assert np.isnan(gv.values[a, b])


def test_map_agrees_with_single_window_function():
    rng = np.random.default_rng(9)
    dev = rng.normal(size=(20, 30)) * 4.0
    gv = group_variance_map(dev, min_group=5)
    for a, b in [(0, 4), (3, 17), (25, 29), (0, 29)]:
        assert gv.values[a, b] == pytest.approx(group_variance(dev, a, b), rel=1e-9)


def test_window_variance_permutation_invariant():
    rng = np.random.default_rng(10)
    dev = rng.normal(size=(6, 10))
    shuffled = dev.copy()
    shuffled[:, 2:7] = shuffled[:, [4, 6, 2, 5, 3]]
    assert group_variance(dev, 2, 6) == pytest.approx(
        group_variance(shuffled, 2, 6), abs=1e-12
    )


def test_map_guards():
    with pytest.raises(ConfigurationError):
        group_variance_map(np.zeros((3, 4)), min_group=1)
    with pytest.raises(ConfigurationError):
        group_variance_map(np.zeros((3, 4)), min_group=5)
    gv = group_variance_map(np.random.default_rng(0).normal(size=(3, 8)), min_group=4)
    short = np.subtract.outer(np.arange(8), np.arange(8)) > -3  # b - a + 1 < 4
    assert np.isnan(gv.values[short]).all()
    assert not np.isnan(gv.values[~short]).any()


def test_serial_correlation_shift_invariance():
    rng = np.random.default_rng(11)
    dev = rng.normal(size=(10, 25))
    serials = np.sort(rng.integers(1000, 9000, size=25)).astype(np.int64)
    serials += np.arange(25, dtype=np.int64)  # break ties so spans vary
    r1 = serial_correlation(dev, DeviceMeta(serials=serials), group_size=5)
    r2 = serial_correlation(dev, DeviceMeta(serials=serials + 100000), group_size=5)
    assert r1 == pytest.approx(r2, abs=1e-12)
    assert -1.0 <= r1 <= 1.0


def test_serial_correlation_reads_the_map_diagonal():
    # The windows serial_correlation computes are the map's diagonal b = a + g - 1.
    rng = np.random.default_rng(15)
    dev = rng.normal(size=(9, 40)) + rng.normal(scale=30.0, size=(9, 1))
    serials = np.cumsum(rng.integers(1, 500, size=40)).astype(np.int64)
    gv = group_variance_map(dev, min_group=3)
    for g in (3, 7, 20):
        starts = np.arange(40 - g + 1)
        want = pearson(gv.values[starts, starts + g - 1],
                       (serials[starts + g - 1] - serials[starts]).astype(np.float64))
        got = serial_correlation(dev, DeviceMeta(serials=serials), group_size=g)
        assert got == pytest.approx(want, rel=1e-12)


def test_serial_correlation_detects_planted_link():
    # Devices produced in far-apart batches get extra spread: window variance
    # then grows with the serial span of the window.
    rng = np.random.default_rng(12)
    num_devices = 60
    serials = np.cumsum(rng.integers(1, 2000, size=num_devices)).astype(np.int64)
    scale = serials / serials.max()
    dev = rng.normal(size=(40, num_devices)) + 8.0 * scale * rng.normal(
        size=(40, num_devices)
    )
    r = serial_correlation(dev, DeviceMeta(serials=serials), group_size=10)
    assert r > 0.3


def test_serial_correlation_null_is_small():
    rng = np.random.default_rng(13)
    dev = rng.normal(size=(64, 120))
    jitter = np.cumsum(rng.integers(1, 50, size=120)).astype(np.int64)
    r = serial_correlation(dev, DeviceMeta(serials=jitter), group_size=10)
    assert abs(r) < 0.35


def test_serial_correlation_guards():
    rng = np.random.default_rng(14)
    dev = rng.normal(size=(6, 12))
    serials = np.arange(12, dtype=np.int64) * 7
    with pytest.raises(UnavailableAnalysisError):
        serial_correlation(dev, None, group_size=5)
    with pytest.raises(ConfigurationError):
        serial_correlation(dev, DeviceMeta(serials=serials), group_size=1)
    with pytest.raises(ConfigurationError):
        serial_correlation(dev[0], DeviceMeta(serials=serials), group_size=5)
    with pytest.raises(ConfigurationError):
        serial_correlation(dev, DeviceMeta(serials=np.arange(9, dtype=np.int64)), 5)
    with pytest.raises(DegenerateDataError, match="windows"):
        serial_correlation(dev, DeviceMeta(serials=serials), group_size=11)
    with pytest.raises(DegenerateDataError, match="constant"):
        serial_correlation(dev, DeviceMeta(serials=serials), group_size=5)


def test_map_is_write_protected():
    gv = group_variance_map(np.random.default_rng(1).normal(size=(4, 8)), min_group=3)
    assert isinstance(gv, GroupVarianceMap)
    with pytest.raises(ValueError):
        gv.values[0, 4] = 0.0


@pytest.mark.parametrize("offset", [0.0, 3.0, 30.0, 300.0])
def test_map_accurate_under_per_ro_offset(offset):
    # A per-row offset (the spatial trend of a real dev matrix) must not cost
    # digits: random windows plus every window of min_group devices.
    rng = np.random.default_rng(16)
    num_rows, num_devices, min_group = 32, 2000, 5
    dev = rng.normal(size=(num_rows, num_devices)) \
        + rng.normal(scale=offset, size=(num_rows, 1))
    gv = group_variance_map(dev, min_group=min_group)
    starts = rng.integers(0, num_devices - min_group + 1, size=40)
    windows = [(int(a), int(rng.integers(a + min_group - 1, num_devices))) for a in starts]
    for a, b in windows:
        assert gv.values[a, b] == pytest.approx(group_variance_reference(dev, a, b), rel=1e-12)
    a = np.arange(num_devices - min_group + 1)
    direct = np.array([group_variance_reference(dev, int(s), int(s) + min_group - 1)
                       for s in a])
    np.testing.assert_allclose(gv.values[a, a + min_group - 1], direct, rtol=1e-12, atol=0)
