"""Group-variance whiteness check against production order.

For a window of devices ``a..b`` the group variance is the mean over all RO
rows of the within-window sample variance of the deviation matrix. If
devices that left the fab close together were more alike, windows of nearby
devices would show systematically smaller variance, and the group variance
would correlate with how far apart the window endpoints' serial numbers are.
One kernel computes the windows of one length from prefix sums of the
centred rows. ``group_variance_map`` calls it for every length and lists
every window as one table, the rows of ``group_variance.dat``;
``serial_correlation`` calls it for the windows the claim reads alone, so
``serial_corr.csv`` can be recomputed from ``group_variance.dat``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import pearson
from .dataset import DeviceMeta
from .errors import ConfigurationError, DegenerateDataError, UnavailableAnalysisError
from .matrices import as_matrix

DEFAULT_MIN_GROUP = 5
# The window sizes whose serial correlations the paper compares.
DEFAULT_GROUP_SIZES = (5, 10, 20)


@dataclass(frozen=True)
class GroupVarianceMap:
    """Group variance of every window of at least ``min_group`` devices.

    Window ``i`` is devices ``first[i]..last[i]`` with variance ``values[i]``,
    ordered by ``first`` then ``last``, ascending: the order of
    ``np.triu_indices(num_devices, min_group - 1)``. ``first`` and ``last``
    are int32.
    """

    first: np.ndarray
    last: np.ndarray
    values: np.ndarray
    min_group: int

    def __post_init__(self):
        for column in (self.first, self.last, self.values):
            column.setflags(write=False)

    @property
    def num_devices(self) -> int:
        return int(self.last[-1]) + 1


def _prefix_sums(dev) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums over the devices of each row of ``dev``, less its mean,
    and of their squares summed over rows. Window variances do not change
    under a per-row shift, and centred sums keep the digits that a per-RO
    offset would cost."""
    d = as_matrix(dev, "deviation matrix", np.float64)
    c = d - d.mean(axis=1, keepdims=True)
    prefix = np.zeros((c.shape[0], c.shape[1] + 1))
    np.cumsum(c, axis=1, out=prefix[:, 1:])
    squares = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->j", c, c))])
    return prefix, squares


def check_group_size(n):
    """``n``, if a window of ``n`` devices has a variance; else a ``ConfigurationError``."""
    if n >= 2:
        return n
    raise ConfigurationError(f"a window needs at least 2 devices, got {n}")


def _window_variances(prefix: np.ndarray, squares: np.ndarray, n: int) -> np.ndarray:
    """The group variance of every window of ``n`` devices, first device
    ascending: ``(sum(x^2) - sum_rows(s1^2) / n) / ((n - 1) * rows)``, where
    ``s1`` is a row's window sum."""
    s1 = prefix[:, n:] - prefix[:, :-n]
    ss = np.einsum("ij,ij->j", s1, s1)
    return ((squares[n:] - squares[:-n]) - ss / n) / ((n - 1) * prefix.shape[0])


def group_variance_map(dev, min_group: int = DEFAULT_MIN_GROUP) -> GroupVarianceMap:
    """Compute all windows, O(rows * devices^2), one window length at a
    time, each placed in its rows of the table."""
    prefix, squares = _prefix_sums(dev)
    num_devices = prefix.shape[1] - 1
    if num_devices < check_group_size(min_group):  # before the table is sized from it
        raise ConfigurationError(f"need at least {min_group} devices, got {num_devices}")
    # First device a has starts - a rows, one per length, shortest first.
    starts = num_devices - min_group + 1
    offsets = np.concatenate([[0], np.cumsum(np.arange(starts, 1, -1))])
    first = np.repeat(np.arange(starts, dtype=np.int32), np.arange(starts, 0, -1))
    last = np.empty_like(first)
    values = np.empty(first.size)
    for n in range(min_group, num_devices + 1):
        index = offsets[:num_devices - n + 1] + (n - min_group)
        values[index] = _window_variances(prefix, squares, n)
        last[index] = np.arange(n - 1, num_devices, dtype=np.int32)
    return GroupVarianceMap(first, last, values, min_group)


def serial_correlation(dev, meta: DeviceMeta, group_size: int) -> float:
    """Correlate window variance with the window's serial-number span.

    Slides a window of ``group_size`` consecutive devices across ``dev``
    and computes the Pearson correlation between the group variance and the
    difference of the serial numbers at the window ends. The windows are
    ``group_variance_map``'s of that length, bit for bit.
    """
    if meta is None:
        raise UnavailableAnalysisError("serial-number metadata is required")
    prefix, squares = _prefix_sums(dev)
    num_devices = prefix.shape[1] - 1
    if meta.num_devices != num_devices:
        raise ConfigurationError(
            f"metadata covers {meta.num_devices} devices, dev covers {num_devices}"
        )
    variances = _window_variances(prefix, squares, check_group_size(group_size))
    if variances.size < 3:
        raise DegenerateDataError(
            f"only {variances.size} windows of size {group_size}; need at least 3"
        )
    spans = (meta.serials[group_size - 1:] - meta.serials[:variances.size]).astype(np.float64)
    if np.ptp(spans) == 0.0:
        raise DegenerateDataError("serial spans are constant across windows")
    return pearson(variances, spans)
