"""Group-variance whiteness check against production order.

For a window of devices ``a..b`` the group variance is the mean over all RO
rows of the within-window sample variance of the deviation matrix. If
devices that left the fab close together were more alike, windows of nearby
devices would show systematically smaller variance, and the group variance
would correlate with how far apart the window endpoints' serial numbers are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import pearson
from .dataset import DeviceMeta
from .errors import ConfigurationError, DegenerateDataError, UnavailableAnalysisError


def group_variance(dev, a: int, b: int) -> float:
    """Mean over rows of the sample variance of columns a..b inclusive."""
    d = np.asarray(dev, dtype=np.float64)
    if d.ndim != 2:
        raise ConfigurationError(f"deviation matrix must be 2-dimensional, got {d.shape}")
    if not (0 <= a <= b < d.shape[1]):
        raise ConfigurationError(
            f"window {a}..{b} out of range for {d.shape[1]} devices"
        )
    if b - a + 1 < 2:
        raise ConfigurationError("window must span at least 2 devices")
    return float(d[:, a : b + 1].var(axis=1, ddof=1).mean())


@dataclass(frozen=True)
class GroupVarianceMap:
    """Group variance for every window of at least ``min_group`` devices.

    ``values[a, b]`` holds the variance for window a..b; entries for windows
    shorter than ``min_group`` are NaN.
    """

    values: np.ndarray
    min_group: int

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def num_devices(self) -> int:
        return self.values.shape[0]


def group_variance_map(dev, min_group: int = 5) -> GroupVarianceMap:
    """Compute all windows at once via prefix sums, O(rows * devices^2)."""
    d = np.asarray(dev, dtype=np.float64)
    if d.ndim != 2:
        raise ConfigurationError(f"deviation matrix must be 2-dimensional, got {d.shape}")
    if min_group < 2:
        raise ConfigurationError("min_group must be at least 2")
    num_rows, num_devices = d.shape
    if num_devices < min_group:
        raise ConfigurationError(
            f"need at least {min_group} devices, got {num_devices}"
        )
    zeros = np.zeros((num_rows, 1))
    cum1 = np.concatenate([zeros, np.cumsum(d, axis=1)], axis=1)
    cum2 = np.concatenate([zeros, np.cumsum(d * d, axis=1)], axis=1)
    values = np.full((num_devices, num_devices), np.nan)
    for a in range(num_devices - min_group + 1):
        ends = np.arange(a + min_group - 1, num_devices)
        n = (ends - a + 1).astype(np.float64)
        s1 = cum1[:, ends + 1] - cum1[:, a : a + 1]
        s2 = cum2[:, ends + 1] - cum2[:, a : a + 1]
        var = (s2 - s1 * s1 / n) / (n - 1.0)
        values[a, ends] = var.mean(axis=0)
    return GroupVarianceMap(values=values, min_group=min_group)


def serial_correlation(gv: GroupVarianceMap, meta: DeviceMeta, group_size: int) -> float:
    """Correlate window variance with the window's serial-number span.

    Slides a window of ``group_size`` consecutive devices across the dataset
    and computes the Pearson correlation between the group variance and the
    difference of the serial numbers at the window ends.
    """
    if meta is None:
        raise UnavailableAnalysisError("serial-number metadata is required")
    if group_size < gv.min_group:
        raise ConfigurationError(
            f"group size {group_size} below map minimum {gv.min_group}"
        )
    num_devices = gv.num_devices
    if meta.num_devices != num_devices:
        raise ConfigurationError(
            f"metadata covers {meta.num_devices} devices, map covers {num_devices}"
        )
    starts = np.arange(0, num_devices - group_size + 1)
    if starts.size < 3:
        raise DegenerateDataError(
            f"only {starts.size} windows of size {group_size}; need at least 3"
        )
    ends = starts + group_size - 1
    variances = gv.values[starts, ends]
    spans = (meta.serials[ends] - meta.serials[starts]).astype(np.float64)
    if np.ptp(spans) == 0.0:
        raise DegenerateDataError("serial spans are constant across windows")
    return pearson(variances, spans)
