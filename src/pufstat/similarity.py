"""Group-variance whiteness check against production order.

For a window of devices ``a..b`` the group variance is the mean over all RO
rows of the within-window sample variance of the deviation matrix. If
devices that left the fab close together were more alike, windows of nearby
devices would show systematically smaller variance, and the group variance
would correlate with how far apart the window endpoints' serial numbers are.
``group_variance_map`` lists every window as one table, the rows of
``group_variance.dat``; ``serial_correlation`` computes only the windows
the claim reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import pearson
from .dataset import DeviceMeta
from .errors import ConfigurationError, DegenerateDataError, UnavailableAnalysisError
from .matrices import as_matrix

DEFAULT_MIN_GROUP = 5


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


def _centred(dev) -> np.ndarray:
    """``dev`` as a 2-D float64 array with each row's mean subtracted.

    Window variances do not change under a per-row shift, and summing
    centred values keeps the digits that a per-RO offset would cost.
    """
    d = as_matrix(dev, "deviation matrix", np.float64)
    return d - d.mean(axis=1, keepdims=True)


def group_variance_map(dev, min_group: int = DEFAULT_MIN_GROUP) -> GroupVarianceMap:
    """Compute all windows from prefix sums of the centred rows,
    O(rows * devices^2), one slice of the table per first device.

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
    devices = np.arange(num_devices, dtype=np.int32)
    starts = num_devices - min_group + 1
    first = np.empty(starts * (starts + 1) // 2, dtype=np.int32)
    last = np.empty_like(first)
    values = np.empty(first.size)
    lo = 0
    for a in range(starts):
        s1 = prefix[:, a + min_group:] - prefix[:, a:a + 1]
        n = lengths[min_group - 1:num_devices - a]
        ss = np.einsum("ij,ij->j", s1, s1)
        hi = lo + n.size
        first[lo:hi] = a
        last[lo:hi] = devices[a + min_group - 1:]
        values[lo:hi] = ((squares[a + min_group:] - squares[a]) - ss / n) / ((n - 1.0) * num_rows)
        lo = hi
    return GroupVarianceMap(first, last, values, min_group)


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
