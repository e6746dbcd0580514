"""Derived matrices: mean frequencies, deviations, pair differences, bits.

From a readings tensor we derive, in order:

* ``freq``: per-RO mean frequency over the measurement samples, one column
  per device (num_ros x num_devices).
* ``dev``: ``freq`` minus each device's mean over its ROs, which removes the
  per-device global offset.
* ``diff``: difference within adjacent RO pairs, row k holds
  ``freq[2k+1] - freq[2k]`` (num_pairs x num_devices).
* ``bits``: the response bit per pair and device, 1 where the difference is
  strictly positive, 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ReadingsTensor
from .errors import (ConfigurationError, DegenerateDataError, InsufficientSampleError,
                     StructuralError, ValidationError)


@dataclass(frozen=True)
class PufMatrices:
    freq: np.ndarray
    dev: np.ndarray
    diff: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        for name in ("freq", "dev", "diff", "bits"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def num_ros(self) -> int:
        return self.freq.shape[0]

    @property
    def num_devices(self) -> int:
        return self.freq.shape[1]

    @property
    def num_pairs(self) -> int:
        return self.diff.shape[0]


def as_matrix(value, name: str, dtype=None) -> np.ndarray:
    """``value`` as a 2-D array (of ``dtype``, where given), or a
    StructuralError that names the matrix ``name``."""
    array = np.asarray(value, dtype=dtype)
    if array.ndim != 2:
        raise StructuralError(f"{name} must be 2-dimensional, got {array.shape}")
    return array


def row_stds(matrix: np.ndarray, rows: str) -> np.ndarray:
    """Each row's sample std (N-1 divisor) across the devices (columns) of
    a 2-D float matrix: an InsufficientSampleError below 2 devices, a
    DegenerateDataError that names the ``rows`` without spread."""
    if matrix.shape[1] < 2:
        raise InsufficientSampleError(f"a spread needs at least 2 devices, got {matrix.shape[1]}")
    stds = matrix.std(axis=1, ddof=1)
    flat = np.flatnonzero(~(stds > 0.0))
    if flat.size:
        raise DegenerateDataError(f"{rows} with zero spread across devices: {flat.tolist()}")
    return stds


def pair_differences(freq) -> np.ndarray:
    """The response pairing: row k is ``freq[2k+1] - freq[2k]``, one column
    per device. The RO count (rows of ``freq``) must be even."""
    num_ros = freq.shape[0]
    if num_ros % 2 != 0:
        raise ConfigurationError(
            f"RO count must be even for pairwise grouping, got {num_ros}"
        )
    return freq[1::2] - freq[0::2]


def response_bits(values) -> np.ndarray:
    """The response rule: 1 where the value is strictly positive, 0 otherwise."""
    return (np.asarray(values, dtype=np.float64) > 0.0).astype(np.uint8)


def build_matrices(readings: ReadingsTensor) -> PufMatrices:
    """Compute all four derived matrices from raw readings."""
    values = readings.values
    num_devices, num_ros, num_samples = values.shape
    # Accumulate sample means left to right so results are bit-reproducible
    # regardless of how the loop is scheduled.
    acc = np.zeros((num_devices, num_ros))
    for t in range(num_samples):
        acc += values[:, :, t]
    freq = (acc / num_samples).T
    diff = pair_differences(freq)
    dev = freq - freq.mean(axis=0, keepdims=True)
    bits = response_bits(diff)
    return PufMatrices(freq=freq, dev=dev, diff=diff, bits=bits)


def pack_bits(bits: np.ndarray) -> bytes:
    """Pack a bit matrix into bytes, device by device.

    Device columns are emitted in index order; within a device, pair bits are
    packed eight at a time with pair ``8m`` in the most significant position
    of byte ``m``. The pair count must be a multiple of eight: padding is not
    allowed because it would change the byte stream that downstream
    compressors see.
    """
    bits = as_matrix(bits, "bit matrix")
    num_pairs, num_devices = bits.shape
    if num_pairs % 8 != 0:
        raise ConfigurationError(
            f"pair count must be a multiple of 8 to pack without padding, "
            f"got {num_pairs}"
        )
    if not np.isin(bits, (0, 1)).all():
        raise ValidationError("bit matrix entries must be 0 or 1")
    return np.packbits(bits.T.astype(np.uint8), bitorder="big").tobytes()


def unpack_bits(data: bytes, num_pairs: int, num_devices: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`."""
    if num_pairs % 8 != 0:
        raise ConfigurationError(
            f"pair count must be a multiple of 8, got {num_pairs}"
        )
    expected = num_pairs * num_devices // 8
    if len(data) != expected:
        raise StructuralError(
            f"packed stream has {len(data)} bytes, expected {expected} for "
            f"{num_pairs} pairs x {num_devices} devices"
        )
    flat = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="big")
    return np.ascontiguousarray(flat.reshape(num_devices, num_pairs).T)
