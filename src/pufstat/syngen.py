"""Seeded synthetic RO frequency datasets with known ground truth.

The model composes each RO's true frequency additively:

    freq(i, j) = base + device_offset(j)
               + gradient_x(j) * x(i) + gradient_y(j) * y(i)
               + local(i, j) + ro_mean_offset(i)

where (x, y) are the RO's grid coordinates centered on the chip, every
random term is Gaussian with a configurable sigma, and each measurement
sample adds fresh Gaussian noise on top.

Determinism: device ``j`` consumes only the stream seeded by
``[seed, 0, j]`` and serial numbers only the stream seeded by ``[seed, 1]``,
so generating devices in any order, or in parallel, yields bit-identical
output. Serial numbers are a strictly increasing sequence with seeded
positive jitter. The ground truth record keeps every drawn frequency
component; per-sample measurement noise is not recorded, only its sigma.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .dataset import DeviceMeta, ReadingsTensor
from .errors import ConfigurationError, ParseError, StructuralError, check_seed
from .geometry import DEFAULT_GEOMETRY, GridGeometry
from .output import ArtifactWriter


def check_count(count):
    """``count`` of devices, ROs or samples, if positive; else a ``ConfigurationError``."""
    if count >= 1:
        return count
    raise ConfigurationError(f"device, RO and sample counts must be positive, got {count!r}")


@dataclass(frozen=True)
class SynthConfig:
    num_devices: int
    num_ros: int
    num_samples: int
    geometry: GridGeometry
    seed: int
    base_freq: float = 200.0
    device_sigma: float = 0.0
    gradient_x_sigma: float = 0.0
    gradient_y_sigma: float = 0.0
    local_sigma: float = 0.0
    meas_sigma: float = 0.0
    ro_mean_offsets: np.ndarray | None = None

    def __post_init__(self):
        check_count(min(self.num_devices, self.num_ros, self.num_samples))
        check_seed(self.seed)
        self.geometry.check_ros(self.num_ros)
        for name in ("device_sigma", "gradient_x_sigma", "gradient_y_sigma",
                     "local_sigma", "meas_sigma"):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.base_freq <= 0.0:
            raise ConfigurationError("base frequency must be positive MHz")
        if self.ro_mean_offsets is not None:
            offs = np.asarray(self.ro_mean_offsets, dtype=np.float64).ravel()
            if offs.size != self.num_ros:
                raise ConfigurationError(
                    f"ro_mean_offsets has {offs.size} entries for {self.num_ros} ROs"
                )
            offs.setflags(write=False)
            object.__setattr__(self, "ro_mean_offsets", offs)

    def to_dict(self) -> dict:
        offsets = self.ro_mean_offsets
        return {**asdict(self), "geometry": self.geometry.describe(),
                "ro_mean_offsets": None if offsets is None else offsets.tolist()}


# Fields of GroundTruth, by what they are indexed by; the ROs x devices
# matrices are written as .npy files, the rest in ground_truth.json.
_RO_FIELDS = ("coord_x", "coord_y", "ro_mean_offsets")
_DEVICE_FIELDS = ("device_offsets", "gradients_x", "gradients_y", "serials")
_MATRIX_FIELDS = ("local", "true_freq")


def _dtype(name: str) -> type:
    return np.int64 if name == "serials" else np.float64


@dataclass(frozen=True)
class GroundTruth:
    """Every drawn frequency component, for oracle checks downstream."""

    config: dict
    coord_x: np.ndarray
    coord_y: np.ndarray
    device_offsets: np.ndarray
    gradients_x: np.ndarray
    gradients_y: np.ndarray
    local: np.ndarray
    ro_mean_offsets: np.ndarray
    serials: np.ndarray
    true_freq: np.ndarray = field(repr=False)

    def write(self, writer: ArtifactWriter) -> None:
        """Write the record through ``writer``: each ROs x devices matrix as
        ``ground_truth_<field>.npy``, float64 in C order, and the config and
        vectors as ``ground_truth.json``."""
        writer.write_json("ground_truth.json", {
            "config": self.config,
            **{name: getattr(self, name).tolist() for name in _RO_FIELDS + _DEVICE_FIELDS},
        })
        for name in _MATRIX_FIELDS:
            buffer = io.BytesIO()
            np.save(buffer, np.ascontiguousarray(getattr(self, name), dtype=np.float64),
                    allow_pickle=False)
            writer.write_binary(f"ground_truth_{name}.npy", buffer.getvalue())

    @classmethod
    def load(cls, out_dir: str | Path) -> GroundTruth:
        """The record ``write`` left in ``out_dir``, the ``--out`` of ``synth``."""
        out_dir = Path(out_dir)
        try:
            payload = json.loads((out_dir / "ground_truth.json").read_text(encoding="utf-8"))
            config = payload["config"]
            num_ros, num_devices = config["num_ros"], config["num_devices"]
            fields = {name: np.array(payload[name], dtype=_dtype(name))
                      for name in _RO_FIELDS + _DEVICE_FIELDS}
            for name in _MATRIX_FIELDS:
                fields[name] = np.load(out_dir / f"ground_truth_{name}.npy", allow_pickle=False)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{out_dir}: malformed ground truth: {exc!r}") from None
        expected = {**dict.fromkeys(_RO_FIELDS, (num_ros,)),
                    **dict.fromkeys(_DEVICE_FIELDS, (num_devices,)),
                    **dict.fromkeys(_MATRIX_FIELDS, (num_ros, num_devices))}
        for name, values in fields.items():
            if values.shape != expected[name] or values.dtype != _dtype(name):
                raise StructuralError(
                    f"{out_dir}: ground truth {name} is {values.dtype} {values.shape}, "
                    f"expected {expected[name]}"
                )
        return cls(config=config, **fields)


def generate(config: SynthConfig) -> tuple[ReadingsTensor, DeviceMeta, GroundTruth]:
    """Draw a full dataset plus metadata and ground truth from one seed."""
    num_j, num_i, num_t = config.num_devices, config.num_ros, config.num_samples
    xc, yc = config.geometry.centered_coordinates()
    ro_offs = np.zeros(num_i) if config.ro_mean_offsets is None else config.ro_mean_offsets

    readings = np.empty((num_j, num_i, num_t))
    true_freq = np.empty((num_i, num_j))
    device_offsets = np.empty(num_j)
    gradients_x = np.empty(num_j)
    gradients_y = np.empty(num_j)
    local = np.empty((num_i, num_j))
    for j in range(num_j):
        rng = np.random.default_rng([config.seed, 0, j])
        device_offsets[j] = rng.normal(0.0, config.device_sigma)
        gradients_x[j] = rng.normal(0.0, config.gradient_x_sigma)
        gradients_y[j] = rng.normal(0.0, config.gradient_y_sigma)
        local[:, j] = rng.normal(0.0, config.local_sigma, size=num_i)
        column = (
            config.base_freq
            + device_offsets[j]
            + gradients_x[j] * xc
            + gradients_y[j] * yc
            + local[:, j]
            + ro_offs
        )
        true_freq[:, j] = column
        noise = rng.normal(0.0, config.meas_sigma, size=(num_i, num_t))
        readings[j] = column[:, None] + noise

    serial_rng = np.random.default_rng([config.seed, 1])
    start = 100_000 + int(serial_rng.integers(0, 50_000))
    jitter = serial_rng.integers(1, 2_000, size=num_j)
    serials = start + np.cumsum(jitter)

    tensor = ReadingsTensor(readings)
    meta = DeviceMeta(serials)
    truth = GroundTruth(
        config=config.to_dict(),
        coord_x=xc,
        coord_y=yc,
        device_offsets=device_offsets,
        gradients_x=gradients_x,
        gradients_y=gradients_y,
        local=local,
        ro_mean_offsets=ro_offs,
        serials=np.asarray(serials),
        true_freq=true_freq,
    )
    return tensor, meta, truth


# Ready-made configurations for experiments and tests, by name: ``null``
# (pure local noise, independent rows), ``spatial`` (device offsets plus x/y
# gradients), ``noisy`` (spatial plus per-sample measurement noise).
PRESETS = {
    "null": dict(
        num_devices=256, num_ros=512, num_samples=1,
        geometry=DEFAULT_GEOMETRY,
        device_sigma=0.0, gradient_x_sigma=0.0, gradient_y_sigma=0.0,
        local_sigma=1.0, meas_sigma=0.0,
    ),
    "spatial": dict(
        num_devices=128, num_ros=128, num_samples=10,
        geometry=GridGeometry(8, 16, "col"),
        device_sigma=5.0, gradient_x_sigma=0.3, gradient_y_sigma=0.4,
        local_sigma=0.5, meas_sigma=0.05,
    ),
    "noisy": dict(
        num_devices=64, num_ros=128, num_samples=25,
        geometry=GridGeometry(8, 16, "col"),
        device_sigma=5.0, gradient_x_sigma=0.3, gradient_y_sigma=0.4,
        local_sigma=0.5, meas_sigma=0.5,
    ),
}


def preset(name: str, seed: int, **overrides) -> SynthConfig:
    """The ``PRESETS`` configuration ``name`` with ``seed``, each field of
    ``overrides`` replacing the preset's. An unknown name is a
    ``ConfigurationError``."""
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    return SynthConfig(seed=seed, **{**PRESETS[name], **overrides})
