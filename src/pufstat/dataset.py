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

import csv
import fnmatch
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    ParseError,
    StructuralError,
    ValidationError,
)
from .output import format_table

CSV_HEADER = ("device", "ro", "sample", "freq_mhz")

_LAYOUT_KINDS = ("files", "csv")
_ROW_MEANINGS = ("ros", "samples")


@dataclass(frozen=True)
class LayoutSpec:
    """Declares how a dataset is laid out on disk.

    ``rows`` states what the rows of a per-device file mean; it is ignored
    for the consolidated ``csv`` kind. ``delimiter=None`` means any run of
    whitespace.
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


def _diagnose_table(path: Path, delimiter: str | None) -> None:
    """Re-scan a per-device file to locate the first structural or parse fault."""
    with open(path, "r", encoding="utf-8") as fh:
        width = None
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0]
            tokens = body.split(delimiter) if delimiter else body.split()
            tokens = [t for t in tokens if t]
            if not tokens:
                continue
            for col, token in enumerate(tokens, start=1):
                try:
                    float(token)
                except ValueError:
                    raise ParseError(
                        f"non-numeric token {token!r} in {path.name}, "
                        f"line {lineno}, field {col}"
                    ) from None
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise StructuralError(
                    f"ragged row in {path.name}: line {lineno} has "
                    f"{len(tokens)} values, expected {width}"
                )


def _load_device_file(path: Path, layout: LayoutSpec) -> np.ndarray:
    try:
        table = np.loadtxt(path, dtype=np.float64, delimiter=layout.delimiter, ndmin=2)
    except OSError:
        raise
    except Exception:
        # Fast path failed; re-scan to produce an error naming the location.
        _diagnose_table(path, layout.delimiter)
        raise ParseError(f"could not parse {path.name} as a numeric table") from None
    if layout.rows == "samples":
        table = table.T
    return table


def load_readings(path: str | Path, layout: LayoutSpec | None = None) -> ReadingsTensor:
    """Read a dataset directory or consolidated CSV into a ReadingsTensor."""
    layout = layout or LayoutSpec()
    path = Path(path)
    if layout.kind == "files":
        tensor, names = _load_files(path, layout)
        provenance = {
            "source": str(path),
            "layout": layout.describe(),
            "device_names": names,
        }
    else:
        tensor = _load_csv(path)
        provenance = {"source": str(path), "layout": layout.describe()}
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
    shape = None
    for name in names:
        table = _load_device_file(root / name, layout)
        if shape is None:
            shape = table.shape
        elif table.shape != shape:
            raise StructuralError(
                f"device file {name} has shape {table.shape[0]}x{table.shape[1]}, "
                f"expected {shape[0]}x{shape[1]} like {names[0]}"
            )
        tables.append(table)
    return np.stack(tables, axis=0), names


def _load_csv(path: Path) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise StructuralError(f"{path.name} is empty") from None
        if tuple(h.strip() for h in header) != CSV_HEADER:
            raise StructuralError(
                f"{path.name} header is {header!r}, expected {','.join(CSV_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise StructuralError(
                    f"{path.name} line {lineno} has {len(row)} fields, expected 4"
                )
            try:
                j, i, t = int(row[0]), int(row[1]), int(row[2])
                freq = float(row[3])
            except ValueError:
                raise ParseError(
                    f"could not parse {path.name} line {lineno}: {','.join(row)!r}"
                ) from None
            records.append((j, i, t, freq))
    if not records:
        raise StructuralError(f"{path.name} contains a header but no readings")
    idx = np.asarray([(j, i, t) for j, i, t, _ in records], dtype=np.int64)
    if idx.min() < 0:
        raise ValidationError(f"negative index in {path.name}")
    nj, ni, nt = (int(m) + 1 for m in idx.max(axis=0))
    values = np.full((nj, ni, nt), np.nan)
    seen = np.zeros((nj, ni, nt), dtype=bool)
    for j, i, t, freq in records:
        if seen[j, i, t]:
            raise StructuralError(
                f"duplicate reading for device {j}, ro {i}, sample {t} in {path.name}"
            )
        seen[j, i, t] = True
        values[j, i, t] = freq
    if not seen.all():
        j, i, t = map(int, np.argwhere(~seen)[0])
        raise StructuralError(
            f"{path.name} is missing device {j}, ro {i}, sample {t} "
            f"(expected a dense {nj}x{ni}x{nt} cube)"
        )
    return values


def load_metadata(path: str | Path, num_devices: int | None = None) -> DeviceMeta:
    """Read a ``device,serial`` CSV into a DeviceMeta."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"metadata file not found: {path}")
    pairs = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != ("device", "serial"):
            raise StructuralError(
                f"{path.name} header is {header!r}, expected device,serial"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise StructuralError(
                    f"{path.name} line {lineno} has {len(row)} fields, expected 2"
                )
            try:
                device, serial = int(row[0]), int(row[1])
            except ValueError:
                raise ParseError(
                    f"could not parse {path.name} line {lineno}: {','.join(row)!r}"
                ) from None
            if device in pairs:
                raise StructuralError(f"duplicate device {device} in {path.name}")
            pairs[device] = serial
    expected = num_devices if num_devices is not None else len(pairs)
    missing = sorted(set(range(expected)) - set(pairs))
    extra = sorted(set(pairs) - set(range(expected)))
    if missing or extra:
        raise StructuralError(
            f"{path.name} must cover devices 0..{expected - 1} exactly "
            f"(missing {missing}, unexpected {extra})"
        )
    serials = np.asarray([pairs[j] for j in range(expected)], dtype=np.int64)
    return DeviceMeta(serials)


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
        with open(out_dir / "readings.csv", "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n" + format_table(columns, ",", "\r\n"))
    if meta is not None:
        write_metadata(meta, out_dir / "serials.csv")


def write_metadata(meta: DeviceMeta, path: str | Path) -> None:
    columns = [np.arange(meta.num_devices), meta.serials]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("device,serial\r\n" + format_table(columns, ",", "\r\n"))
