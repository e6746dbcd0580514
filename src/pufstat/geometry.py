"""Placement of ring oscillators on a rectangular chip grid.

Analyses that look for spatial structure (gradient maps, loading maps) need
to know where RO index ``i`` sits on the die. A ``GridGeometry`` captures the
grid dimensions and the fill order: ``order="col"`` means consecutive indices
fill one column top to bottom before moving to the next column, ``order="row"``
means consecutive indices fill one row left to right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

_ORDERS = ("row", "col")


@dataclass(frozen=True)
class GridGeometry:
    rows: int
    cols: int
    order: str = "col"

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError(
                f"grid must have positive dimensions, got {self.rows}x{self.cols}"
            )
        if self.order not in _ORDERS:
            raise ConfigurationError(
                f"grid order must be one of {_ORDERS}, got {self.order!r}"
            )

    @property
    def size(self) -> int:
        return self.rows * self.cols

    @classmethod
    def parse(cls, text: str) -> "GridGeometry":
        """Parse a ``ROWSxCOLS:order`` descriptor such as ``16x32:col``."""
        body, sep, order = text.partition(":")
        try:
            rows_s, cols_s = body.lower().split("x")
            rows, cols = int(rows_s), int(cols_s)
        except ValueError:
            raise ConfigurationError(
                f"geometry descriptor {text!r} is not of the form ROWSxCOLS[:order]"
            ) from None
        return cls(rows, cols, order if sep else "col")

    def describe(self) -> str:
        return f"{self.rows}x{self.cols}:{self.order}"

    def check_ros(self, num_ros: int) -> None:
        """Refuse ``num_ros`` ROs unless the grid has one cell per RO."""
        if self.size != num_ros:
            raise ConfigurationError(
                f"geometry {self.describe()} has {self.size} cells but there are {num_ros} ROs"
            )

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-index (x, y) positions: x is the column, y is the row."""
        idx = np.arange(self.size)
        if self.order == "col":
            return idx // self.rows, idx % self.rows
        return idx % self.cols, idx // self.cols

    def centered_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates shifted so each axis has zero mean (grid center origin)."""
        x, y = self.coordinates()
        return x - x.mean(), y - y.mean()

    def to_grid(self, values) -> np.ndarray:
        """Reshape a length-``size`` vector into a (rows, cols) array."""
        v = np.asarray(values)
        if v.ndim != 1 or v.size != self.size:
            raise ConfigurationError(
                f"expected a flat vector of length {self.size} for a "
                f"{self.describe()} grid, got shape {v.shape}"
            )
        if self.order == "col":
            return v.reshape(self.cols, self.rows).T
        return v.reshape(self.rows, self.cols)


# 512 ROs on the reference device family: 32 columns of 16, filled per column.
DEFAULT_GEOMETRY = GridGeometry(rows=16, cols=32, order="col")
