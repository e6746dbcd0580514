"""Loading and writing ring-oscillator frequency datasets.

Two on-disk layouts are supported:

* ``files``: one plain-text file per device inside a directory. Each file is
  a whitespace (or delimiter) separated table, by default one row per RO and
  one column per measurement sample. Device order is the lexicographic order
  of the file names.
* ``csv``: a single consolidated table with the exact header
  ``device,ro,sample,freq_mhz`` and one reading per line.

All frequencies are megahertz and must be finite and strictly positive.
"""

from __future__ import annotations

import fnmatch
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from .errors import (
    ConfigurationError,
    ParseError,
    StructuralError,
    ValidationError,
)
from .output import format_table

CSV_HEADER = ("device", "ro", "sample", "freq_mhz")
# The CSV tables as structured dtypes: the field names are the header.
_CSV_DTYPE = np.dtype({"names": CSV_HEADER, "formats": ["i8", "i8", "i8", "f8"]})
_META_DTYPE = np.dtype({"names": ("device", "serial"), "formats": ["i8", "i8"]})

_LAYOUT_KINDS = ("files", "csv")
_ROW_MEANINGS = ("ros", "samples")
# A separator np.loadtxt cannot split on, or that a written number contains.
_BAD_SEPARATOR = "#\r\n0123456789.+-eE"


@dataclass(frozen=True)
class LayoutSpec:
    """Declares how a dataset is laid out on disk.

    ``rows`` states what the rows of a per-device file mean; it is ignored
    for the consolidated ``csv`` kind. ``delimiter=None`` means any run of
    whitespace; otherwise it is one character that is not the comment mark
    ``#``, a line break, or one a number is written with (digits, ``.+-eE``).
    """

    kind: str = "files"
    rows: str = "ros"
    delimiter: str | None = None
    pattern: str = "*.txt"

    def __post_init__(self):
        if self.kind not in _LAYOUT_KINDS:
            raise ConfigurationError(f"unknown layout kind {self.kind!r}")
        if self.rows not in _ROW_MEANINGS:
            raise ConfigurationError(f"layout rows must be one of {_ROW_MEANINGS}")
        sep = self.delimiter
        if sep is not None and (len(sep) != 1 or sep in _BAD_SEPARATOR):
            raise ConfigurationError(
                f"layout separator {sep!r} must be one character other than '#', "
                "a line break, a digit or one of '.+-eE'"
            )

    @classmethod
    def parse(cls, text: str) -> "LayoutSpec":
        """Parse descriptors like ``files``, ``csv``, ``files:rows=samples``."""
        parts = text.split(":")
        kind = parts[0]
        kwargs = {}
        for part in parts[1:]:
            key, eq, value = part.partition("=")
            if not eq:
                raise ConfigurationError(f"bad layout option {part!r} in {text!r}")
            if key == "rows":
                kwargs["rows"] = value
            elif key == "sep":
                kwargs["delimiter"] = value
            elif key == "pattern":
                kwargs["pattern"] = value
            else:
                raise ConfigurationError(f"unknown layout option {key!r} in {text!r}")
        return cls(kind=kind, **kwargs)

    def describe(self) -> str:
        opts = [self.kind]
        if self.kind == "files":
            opts.append(f"rows={self.rows}")
            if self.delimiter is not None:
                opts.append(f"sep={self.delimiter}")
            opts.append(f"pattern={self.pattern}")
        return ":".join(opts)


@dataclass(frozen=True)
class DeviceMeta:
    """Per-device metadata, index-aligned with the dataset's device axis."""

    serials: np.ndarray

    def __post_init__(self):
        serials = np.asarray(self.serials, dtype=np.int64)
        serials.setflags(write=False)
        object.__setattr__(self, "serials", serials)

    @property
    def num_devices(self) -> int:
        return int(self.serials.size)


@dataclass(frozen=True)
class ReadingsTensor:
    """Raw readings, shape (num_devices, num_ros, num_samples), MHz.

    Immutable after construction. The RO count must be even so that ROs can
    later be grouped into adjacent pairs.
    """

    values: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise StructuralError(
                f"readings tensor must be 3-dimensional, got shape {values.shape}"
            )
        if values.shape[1] % 2 != 0:
            raise ConfigurationError(
                f"RO count must be even for pairwise grouping, got {values.shape[1]}"
            )
        bad = ~np.isfinite(values)
        if bad.any():
            j, i, t = map(int, np.argwhere(bad)[0])
            raise ValidationError(
                f"non-finite reading at device {j}, ro {i}, sample {t}"
            )
        nonpos = values <= 0.0
        if nonpos.any():
            j, i, t = map(int, np.argwhere(nonpos)[0])
            raise ValidationError(
                f"non-positive frequency {values[j, i, t]!r} MHz at "
                f"device {j}, ro {i}, sample {t}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_devices(self) -> int:
        return self.values.shape[0]

    @property
    def num_ros(self) -> int:
        return self.values.shape[1]

    @property
    def num_samples(self) -> int:
        return self.values.shape[2]


def _parses(token: str, integral: bool) -> bool:
    """Whether ``np.loadtxt`` reads ``token`` as an int64 (``integral``) or a float64:
    as ``int()``/``float()`` do, less underscores, non-ASCII digits and overflow."""
    try:
        value = int(token) if integral else float(token)
    except ValueError:
        return False
    in_range = not integral or -2**63 <= value < 2**63
    return in_range and "_" not in token and token.strip().isascii()


def _diagnose(path: Path, dtype: np.dtype, delimiter: str | None,
              comments: str | None) -> NoReturn:
    """Re-scan a table ``np.loadtxt`` rejected and raise the error that names
    its file and the line and field of its first fault."""
    header = dtype.names
    width = len(header) if header else None
    rows = 0
    # A byte that is not UTF-8 reads as a lone surrogate, which fails to parse
    # in a field and to encode anywhere else on its line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = (line.split(comments, 1)[0] if comments else line).rstrip("\n")
            tokens = body.split(delimiter) if delimiter else body.split()
            # np.loadtxt skips the lines that are empty once comments are cut.
            if not (header and lineno == 1) and tokens not in ([], [""]):
                rows += 1
                width = width or len(tokens)
                if len(tokens) != width:
                    raise StructuralError(
                        f"{path.name} line {lineno} has {len(tokens)} fields, expected {width}"
                    )
                for col, token in enumerate(tokens):
                    is_int = header is not None and dtype[col].kind == "i"
                    if not _parses(token, is_int):
                        raise ParseError(
                            f"could not parse {path.name} line {lineno}, field {col + 1}: "
                            f"{token!r} is not {'an int64 integer' if is_int else 'a number'}"
                        )
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise ParseError(f"{path.name} line {lineno} is not valid UTF-8") from None
    if not rows:
        with_header = "a header but " if header else ""
        raise StructuralError(f"{path.name} contains {with_header}no readings")
    raise ParseError(f"could not parse {path.name} as a numeric table")


def _read_table(path: Path, dtype: np.dtype, delimiter: str | None,
                comments: str | None = None) -> np.ndarray:
    """Read a numeric table in one ``np.loadtxt`` call: a 2-D float64 array,
    or for a structured ``dtype`` one record per line below a header line of
    its field names. Only when ``np.loadtxt`` fails does ``_diagnose`` re-scan."""
    header = dtype.names
    if header:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            line = fh.readline()
        if not line:
            raise StructuralError(f"{path.name} is empty")
        fields = line.rstrip("\n").split(delimiter)
        if tuple(f.strip() for f in fields) != header:
            raise StructuralError(f"{path.name} header is {fields!r}, expected {','.join(header)}")
    try:
        with warnings.catch_warnings():
            # An input without data only warns; it is a fault here.
            warnings.simplefilter("error")
            # Given a path, not an open file, np.loadtxt reads in blocks.
            return np.loadtxt(path, dtype=dtype, delimiter=delimiter, comments=comments,
                              skiprows=int(bool(header)), encoding="utf-8",
                              ndmin=1 if header else 2)
    except (ValueError, TypeError, Warning):  # TypeError: a delimiter it cannot take
        _diagnose(path, dtype, delimiter, comments)


def load_readings(path: str | Path, layout: LayoutSpec | None = None) -> ReadingsTensor:
    """Read a dataset directory or consolidated CSV into a ReadingsTensor."""
    layout = layout or LayoutSpec()
    path = Path(path)
    provenance = {"source": str(path), "layout": layout.describe()}
    if layout.kind == "files":
        tensor, provenance["device_names"] = _load_files(path, layout)
    else:
        tensor = _load_csv(path)
    provenance.update(
        num_devices=tensor.shape[0],
        num_ros=tensor.shape[1],
        num_samples=tensor.shape[2],
    )
    return ReadingsTensor(tensor, provenance)


def dataset_files(path: str | Path, layout: LayoutSpec) -> list[Path]:
    """The files a dataset is read from: the device files in device order,
    or the consolidated CSV."""
    path = Path(path)
    if layout.kind != "files":
        return [path]
    if not path.is_dir():
        raise FileNotFoundError(f"dataset directory not found: {path}")
    files = sorted(
        p for p in path.iterdir() if p.is_file() and fnmatch.fnmatch(p.name, layout.pattern)
    )
    if not files:
        raise StructuralError(
            f"no files matching {layout.pattern!r} under {path}"
        )
    return files


def _load_files(root: Path, layout: LayoutSpec) -> tuple[np.ndarray, list[str]]:
    names = [p.name for p in dataset_files(root, layout)]
    tables = []
    for name in names:
        table = _read_table(root / name, np.dtype(np.float64), layout.delimiter, "#")
        tables.append(table.T if layout.rows == "samples" else table)
        if tables[-1].shape != tables[0].shape:
            shape, first = ("{}x{}".format(*t.shape) for t in (tables[-1], tables[0]))
            raise StructuralError(f"device file {name} has shape {shape}, "
                                  f"expected {first} like {names[0]}")
    return np.stack(tables, axis=0), names


def _sort_rows(keys: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The order that sorts the rows of ``keys`` (shape (n, k)) in C order, and
    the index of the first row that repeats an earlier one (None if none does)."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    # The sort is stable, so each run of equal rows keeps file order.
    repeats = order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
    return order, (int(repeats.min()) if repeats.size else None)


def _load_csv(path: Path) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    table = _read_table(path, _CSV_DTYPE, ",")
    cells = np.column_stack([table[name] for name in CSV_HEADER[:3]])
    if cells.min() < 0:
        raise ValidationError(f"negative index in {path.name}")
    order, repeat = _sort_rows(cells)
    if repeat is not None:
        j, i, t = cells[repeat]
        raise StructuralError(
            f"duplicate reading for device {j}, ro {i}, sample {t} in {path.name}"
        )
    cells = cells[order]
    shape = tuple(int(m) + 1 for m in cells.max(axis=0))
    # Sorted, the cells must be the cube's positions 0, 1, ... in C order. The
    # first hole is among positions 0..n, so the cube is never built; an axis
    # longer than n + 1 unravels those positions as one of n + 1 does.
    n = len(cells)
    ni, nt = (min(m, n + 1) for m in shape[1:])
    k = np.arange(n + 1)
    positions = np.column_stack([k // (ni * nt), k // nt % ni, k % nt])
    off = np.flatnonzero((cells != positions[:-1]).any(axis=1))
    if off.size or n < math.prod(shape):
        j, i, t = positions[off[0] if off.size else n]
        raise StructuralError(
            f"{path.name} is missing device {j}, ro {i}, sample {t} "
            f"(expected a dense {shape[0]}x{shape[1]}x{shape[2]} cube)"
        )
    return table["freq_mhz"][order].reshape(shape)


def load_metadata(path: str | Path, num_devices: int | None = None) -> DeviceMeta:
    """Read a ``device,serial`` CSV into a DeviceMeta."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"metadata file not found: {path}")
    table = _read_table(path, _META_DTYPE, ",")
    devices = table["device"]
    order, repeat = _sort_rows(devices[:, None])
    if repeat is not None:
        raise StructuralError(f"duplicate device {devices[repeat]} in {path.name}")
    expected = num_devices if num_devices is not None else devices.size
    inside = (devices >= 0) & (devices < expected)
    missing = np.flatnonzero(np.bincount(devices[inside], minlength=expected) == 0)
    extra = np.sort(devices[~inside])
    if missing.size or extra.size:
        raise StructuralError(
            f"{path.name} must cover devices 0..{expected - 1} exactly "
            f"(missing {missing.tolist()}, unexpected {extra.tolist()})"
        )
    return DeviceMeta(table["serial"][order])


def device_file_name(index: int, num_devices: int) -> str:
    width = max(4, len(str(max(num_devices - 1, 0))))
    return f"device_{index:0{width}d}.txt"


def write_dataset(
    readings: ReadingsTensor,
    out_dir: str | Path,
    layout: LayoutSpec | None = None,
    meta: DeviceMeta | None = None,
) -> None:
    """Write a dataset in one of the layouts ``load_readings`` accepts."""
    layout = layout or LayoutSpec()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    values = readings.values
    if layout.kind == "files":
        sep = layout.delimiter if layout.delimiter is not None else " "
        for j in range(readings.num_devices):
            # A file's columns are samples (rows=ros) or ROs (rows=samples).
            columns = values[j] if layout.rows == "samples" else values[j].T
            name = device_file_name(j, readings.num_devices)
            (out_dir / name).write_text(format_table(columns, sep), encoding="utf-8")
    else:
        # One reading per line in (device, ro, sample) order. CSV files end
        # lines with "\r\n", as csv.writer does.
        columns = [*np.indices(values.shape).reshape(3, -1), values.ravel()]
        text = ",".join(CSV_HEADER) + "\r\n" + format_table(columns, ",", "\r\n")
        with open(out_dir / "readings.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    if meta is not None:
        write_metadata(meta, out_dir / "serials.csv")


def write_metadata(meta: DeviceMeta, path: str | Path) -> None:
    columns = [np.arange(meta.num_devices), meta.serials]
    text = "device,serial\r\n" + format_table(columns, ",", "\r\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
