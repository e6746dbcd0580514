import numpy as np
import pytest

from oracles import group_variance_reference
from pufstat.correlation import pearson
from pufstat.dataset import DeviceMeta
from pufstat.errors import (
    ConfigurationError,
    DegenerateDataError,
    StructuralError,
    UnavailableAnalysisError,
)
from pufstat.similarity import (
    GroupVarianceMap,
    group_variance_map,
    serial_correlation,
)


def _window(gv, a, b):
    """The variance of the window a..b, found by its bounds."""
    (index,) = np.flatnonzero((gv.first == a) & (gv.last == b))
    return gv.values[index]


def test_group_variance_hand_case():
    dev = np.asarray([[-1.0, 1.0]])
    assert group_variance_map(dev, min_group=2).values.tolist() == [pytest.approx(2.0)]
    dev2 = np.asarray([[-1.0, 1.0], [0.0, 4.0]])
    assert group_variance_map(dev2, min_group=2).values.tolist() == \
        [pytest.approx((2.0 + 8.0) / 2.0)]


def test_map_matches_brute_force():
    # Every window, under per-RO offsets up to 300 times the noise.
    rng = np.random.default_rng(8)
    noise = rng.normal(size=(12, 15))
    trend = rng.normal(size=(12, 1))
    for offset in (0.0, 3.0, 30.0, 300.0):
        dev = noise + offset * trend
        gv = group_variance_map(dev, min_group=3)
        assert gv.values.shape == (13 * 14 // 2,)
        for a, b, s2 in zip(gv.first.tolist(), gv.last.tolist(), gv.values.tolist()):
            assert s2 == pytest.approx(group_variance_reference(dev, a, b), rel=1e-12)


def test_map_agrees_with_single_window_function():
    rng = np.random.default_rng(9)
    dev = rng.normal(size=(20, 30)) * 4.0
    gv = group_variance_map(dev, min_group=5)
    for a, b in [(0, 4), (3, 17), (25, 29), (0, 29)]:
        assert _window(gv, a, b) == pytest.approx(group_variance_reference(dev, a, b), rel=1e-9)


def test_window_variance_permutation_invariant():
    rng = np.random.default_rng(10)
    dev = rng.normal(size=(6, 10))
    shuffled = dev.copy()
    shuffled[:, 2:7] = shuffled[:, [4, 6, 2, 5, 3]]
    assert _window(group_variance_map(dev), 2, 6) == pytest.approx(
        _window(group_variance_map(shuffled), 2, 6), abs=1e-12
    )


def test_map_guards():
    for min_group in (1, 0, -10**9):  # refused before a table is sized from it
        with pytest.raises(ConfigurationError, match="at least 2 devices"):
            group_variance_map(np.zeros((3, 4)), min_group=min_group)
    with pytest.raises(ConfigurationError):
        group_variance_map(np.zeros((3, 4)), min_group=5)
    gv = group_variance_map(np.random.default_rng(0).normal(size=(3, 8)), min_group=4)
    assert gv.values.size == 5 * 6 // 2
    assert (gv.last - gv.first + 1 >= 4).all()
    assert np.isfinite(gv.values).all()
    # As many devices as min_group: the one window of all of them.
    dev = np.random.default_rng(0).normal(size=(3, 5))
    gv = group_variance_map(dev, min_group=5)
    assert (gv.first.tolist(), gv.last.tolist(), gv.num_devices) == ([0], [4], 5)
    assert gv.values.tolist() == [pytest.approx(group_variance_reference(dev, 0, 4), rel=1e-12)]


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
    # One kernel computes both: on each shape, for every g from min_group
    # up, serial_correlation is pearson of the map's windows of g devices
    # against their serial spans, exactly, and the map is the oracle's.
    rng = np.random.default_rng(15)
    for rows, num_devices, min_group in [(9, 40, 3), (1, 7, 2), (16, 23, 5), (4, 14, 12)]:
        dev = rng.normal(size=(rows, num_devices)) + rng.normal(scale=30.0, size=(rows, 1))
        serials = np.cumsum(rng.integers(1, 500, size=num_devices)).astype(np.int64)
        gv = group_variance_map(dev, min_group=min_group)
        for a, b, s2 in zip(gv.first.tolist(), gv.last.tolist(), gv.values.tolist()):
            assert s2 == pytest.approx(group_variance_reference(dev, a, b), rel=1e-12)
        for g in range(min_group, num_devices - 1):
            starts = np.arange(num_devices - g + 1)
            want = pearson(gv.values[gv.last - gv.first == g - 1],
                           (serials[starts + g - 1] - serials[starts]).astype(np.float64))
            assert serial_correlation(dev, DeviceMeta(serials=serials), group_size=g) == want


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
    with pytest.raises(StructuralError, match="^deviation matrix must be 2-dimensional"):
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
    for column in (gv.first, gv.last, gv.values):
        with pytest.raises(ValueError):
            column[0] = 0


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
        assert _window(gv, a, b) == pytest.approx(group_variance_reference(dev, a, b), rel=1e-12)
    shortest = gv.last - gv.first == min_group - 1
    np.testing.assert_array_equal(gv.first[shortest], np.arange(num_devices - min_group + 1))
    direct = np.array([group_variance_reference(dev, int(s), int(s) + min_group - 1)
                       for s in gv.first[shortest]])
    np.testing.assert_allclose(gv.values[shortest], direct, rtol=1e-12, atol=0)


@pytest.mark.parametrize("num_devices, min_group", [(2, 2), (5, 5), (6, 2), (9, 4), (40, 7)])
def test_windows_are_the_upper_triangle_in_int32(num_devices, min_group):
    dev = np.random.default_rng(num_devices).normal(size=(3, num_devices))
    gv = group_variance_map(dev, min_group=min_group)
    want_a, want_b = np.triu_indices(num_devices, min_group - 1)
    assert gv.first.dtype == gv.last.dtype == np.int32
    np.testing.assert_array_equal(gv.first, want_a)
    np.testing.assert_array_equal(gv.last, want_b)
    assert gv.values.shape == want_a.shape
    assert gv.num_devices == num_devices
