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


def _centred(dev) -> np.ndarray:
    """``dev`` as a 2-D float64 array with each row's mean subtracted.

    Window variances do not change under a per-row shift, and summing
    centred values keeps the digits that a per-RO offset would cost.
    """
    d = np.asarray(dev, dtype=np.float64)
    if d.ndim != 2:
        raise ConfigurationError(f"deviation matrix must be 2-dimensional, got {d.shape}")
    return d - d.mean(axis=1, keepdims=True)


def group_variance_map(dev, min_group: int = 5) -> GroupVarianceMap:
    """Compute all windows at once from prefix sums of the centred rows,
    O(rows * devices^2).

    For the window a..a+n-1, the sum over rows of squared deviations from
    each row's window mean is ``sum(x^2) - sum_rows(s1^2) / n``, where
    ``s1`` is a row's window sum; ``sum(x^2)`` comes from one prefix over
    the column sums of squares.
    """
    c = _centred(dev)
    if min_group < 2:
        raise ConfigurationError("min_group must be at least 2")
    num_rows, num_devices = c.shape
    if num_devices < min_group:
        raise ConfigurationError(
            f"need at least {min_group} devices, got {num_devices}"
        )
    prefix = np.zeros((num_rows, num_devices + 1))
    np.cumsum(c, axis=1, out=prefix[:, 1:])
    squares = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->j", c, c))])
    lengths = np.arange(1, num_devices + 1, dtype=np.float64)
    values = np.full((num_devices, num_devices), np.nan)
    for a in range(num_devices - min_group + 1):
        s1 = prefix[:, a + min_group:] - prefix[:, a:a + 1]
        n = lengths[min_group - 1:num_devices - a]
        ss = np.einsum("ij,ij->j", s1, s1)
        values[a, a + min_group - 1:] = \
            ((squares[a + min_group:] - squares[a]) - ss / n) / ((n - 1.0) * num_rows)
    return GroupVarianceMap(values=values, min_group=min_group)


def serial_correlation(dev, meta: DeviceMeta, group_size: int) -> float:
    """Correlate window variance with the window's serial-number span.

    Slides a window of ``group_size`` consecutive devices across ``dev``
    and computes the Pearson correlation between the group variance and the
    difference of the serial numbers at the window ends. Only these windows
    are computed, directly from the centred rows; the full map is not needed.
    """
    if meta is None:
        raise UnavailableAnalysisError("serial-number metadata is required")
    c = _centred(dev)
    if group_size < 2:
        raise ConfigurationError(f"group size {group_size} below 2")
    num_devices = c.shape[1]
    if meta.num_devices != num_devices:
        raise ConfigurationError(
            f"metadata covers {meta.num_devices} devices, dev covers {num_devices}"
        )
    starts = np.arange(0, num_devices - group_size + 1)
    if starts.size < 3:
        raise DegenerateDataError(
            f"only {starts.size} windows of size {group_size}; need at least 3"
        )
    ends = starts + group_size - 1
    # Two passes over the window offsets, so the temporaries stay rows x
    # windows; a (rows, windows, group_size) view's var() copies all of it.
    offsets = [c[:, k:k + starts.size] for k in range(group_size)]
    means = sum(offsets) / group_size
    squares = sum((window - means) ** 2 for window in offsets)
    variances = (squares / (group_size - 1)).mean(axis=0)
    spans = (meta.serials[ends] - meta.serials[starts]).astype(np.float64)
    if np.ptp(spans) == 0.0:
        raise DegenerateDataError("serial spans are constant across windows")
    return pearson(variances, spans)
