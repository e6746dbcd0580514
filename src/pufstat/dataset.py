"""Loading and writing ring-oscillator frequency datasets.

Two on-disk layouts are supported:

* ``files``: one plain-text file per device inside a directory. Each file is
  a whitespace (or delimiter) separated table, by default one row per RO and
  one column per measurement sample. Device order is the lexicographic order
  of the file names.
* ``csv``: a single consolidated table with the exact header
  ``device,ro,sample,freq_mhz`` and one reading per line.

All frequencies are megahertz and must be finite and strictly positive.

Each device file is read once: its bytes are hashed (the digests travel
with the readings, for the run manifest) and parsed by the exact decimal
kernel ``decimals.parse_tables``, at most ``_KERNEL_BYTES`` of text per
call. Only where the kernel declines the text, as outside the plain
grammar pufstat writes, does ``np.loadtxt`` read it again from its path,
and ``_diagnose`` a third time to name the fault where that fails too. A
consolidated CSV is parsed by ``np.loadtxt`` and hashed once it has loaded.

Device files are read and written on every CPU the process may use: the
files are cut, in device order, into shares run by ``parallel.run_parts``,
this process taking the first share and a forked child each other one. A
share a child could not finish is done again here, so the tensor, the
files and any error are those of a one-process run. A ``files`` dataset is
never written over a directory that holds other files its pattern matches.
"""

from __future__ import annotations

import fnmatch
import hashlib
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .decimals import parse_tables
from .errors import (
    ConfigurationError,
    ParseError,
    StructuralError,
    ValidationError,
)
from .output import append_table, sha256_file
from .parallel import run_parts

CSV_HEADER = ("device", "ro", "sample", "freq_mhz")
# The CSV tables as structured dtypes: the field names are the header.
_CSV_DTYPE = np.dtype({"names": CSV_HEADER, "formats": ["i8", "i8", "i8", "f8"]})
_META_DTYPE = np.dtype({"names": ("device", "serial"), "formats": ["i8", "i8"]})

_LAYOUT_KINDS = ("files", "csv")
_ROW_MEANINGS = ("ros", "samples")
# A descriptor's options, in describe() order, and the field each one sets.
_LAYOUT_OPTIONS = {"rows": "rows", "sep": "delimiter", "pattern": "pattern"}
# A separator np.loadtxt cannot split on, that a written number contains, or
# that separates a layout descriptor's options.
_BAD_SEPARATOR = "#:\r\n0123456789.+-eE"
# Bytes of device files each parsing share holds at least: a fork costs
# about 2 ms at 32 MB RSS, a tenth of the ~17 ms 1 MiB of them takes to parse.
_PART_BYTES = 1 << 20
# Bytes of text one decimal kernel call parses at most (one file more only
# where a single file is larger): its temporaries are about ten times that.
# Fewer calls pay: a fresh process loaded the 193 seed-7 reference files in
# 0.516 s, against 0.536 s with one call per file (two CPUs, medians of 12
# alternating runs, groups faster in 12), and load_readings the 2000 small
# files of a seed-7 2000x32x4 set in 0.10-0.14 s, against 0.54-0.64 s.
_KERNEL_BYTES = 1 << 18
# Cells of device files each writing share holds at least: formatting them
# takes 8-12 ms in one process, four to six times a fork at 100 MB RSS. In
# perfbench's set-up, which first removes its work directory, a seed-7
# 193x512x10 synth took 0.350 s split against 0.485 s in one process (two
# CPUs, medians of 10 alternating pairs, the split faster in 9): the same
# CPU time, about 0.47 s, with 0.12 s of it on the second CPU.
_WRITE_CELLS = 2**16


@dataclass(frozen=True)
class LayoutSpec:
    """Declares how a dataset is laid out on disk.

    ``rows`` states what the rows of a per-device file mean. The
    consolidated ``csv`` kind takes no option, as it would ignore one: its
    fields keep their defaults. ``delimiter=None`` means any run of
    whitespace; otherwise it is one character that is not the comment mark
    ``#``, a line break, or one a number is written with (digits, ``.+-eE``).
    Neither it nor ``pattern`` may hold ``:``, which separates the options
    of ``describe()``, so that ``parse`` reads every descriptor back.
    """

    kind: str = "files"
    rows: str = "ros"
    delimiter: str | None = None
    pattern: str = "*.txt"

    def __post_init__(self):
        if self.kind not in _LAYOUT_KINDS:
            raise ConfigurationError(f"unknown layout kind {self.kind!r}")
        for key, name in _LAYOUT_OPTIONS.items():
            if self.kind == "csv" and getattr(self, name) != getattr(LayoutSpec, name):
                raise ConfigurationError(f"layout option {key!r} does not apply to csv, "
                                         "which takes none")
        if self.rows not in _ROW_MEANINGS:
            raise ConfigurationError(f"layout rows must be one of {_ROW_MEANINGS}")
        sep = self.delimiter
        if sep is not None and (len(sep) != 1 or sep in _BAD_SEPARATOR):
            raise ConfigurationError(
                f"layout separator {sep!r} must be one character other than '#', "
                "':', a line break, a digit or one of '.+-eE'"
            )
        if ":" in self.pattern:
            raise ConfigurationError(f"layout pattern {self.pattern!r} must not hold ':'")

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
            if key not in _LAYOUT_OPTIONS:
                raise ConfigurationError(f"unknown layout option {key!r} in {text!r}")
            if _LAYOUT_OPTIONS[key] in kwargs:
                raise ConfigurationError(f"layout option {key!r} given twice in {text!r}")
            kwargs[_LAYOUT_OPTIONS[key]] = value
        return cls(kind=kind, **kwargs)

    def describe(self) -> str:
        opts = [self.kind]
        if self.kind == "files":
            opts += [f"{key}={getattr(self, name)}" for key, name in _LAYOUT_OPTIONS.items()
                     if getattr(self, name) is not None]
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

    Immutable after construction. Any RO count is valid; the pairing checks it.
    ``digests`` holds ``(path, SHA-256 hex)`` of each file ``load_readings``
    read them from, for ``output.hash_input_files``; it is empty otherwise.
    """

    values: np.ndarray
    digests: tuple = ()

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 3:
            raise StructuralError(
                f"readings tensor must be 3-dimensional, got shape {values.shape}"
            )
        # One scan: a reading is good where 0 < v < inf, which NaN fails.
        good = values > 0.0
        np.less(values, np.inf, out=good, where=good)
        if not good.all():
            j, i, t = map(int, np.unravel_index(np.argmin(good), values.shape))
            value = float(values[j, i, t])
            fault = (f"non-positive frequency {value!r} MHz" if math.isfinite(value)
                     else "non-finite reading")
            raise ValidationError(f"{fault} at device {j}, ro {i}, sample {t}")
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
    tensor, digests = _load_files(path, layout) if layout.kind == "files" else _load_csv(path)
    return ReadingsTensor(tensor, digests)


def dataset_files(path: str | Path, layout: LayoutSpec) -> list[Path]:
    """The device files of a ``files`` dataset, in device order."""
    path = Path(path)
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


def _read_bytes(path: Path) -> tuple[bytes, bytes]:
    """A device file's bytes and their SHA-256: the one read of each device
    file a load parses."""
    data = path.read_bytes()
    return data, hashlib.sha256(data).digest()


def _load_files(root: Path, layout: LayoutSpec) -> tuple[np.ndarray, tuple]:
    """Parse every device file into one (devices, rows, columns) tensor, and
    the digest of each file.

    The files, sized in bytes, are one ``parallel.run_parts`` job, each
    share at least ``_PART_BYTES``: this process parses the first share and
    a forked child each other one. Every part appends one record per file,
    its SHA-256 and then its table's float64 bytes, and parses its files
    in groups of at most ``_KERNEL_BYTES``. Each part checks each table
    against the first file's shape, which is known before any fork, so a
    share that a child could not parse is parsed again here and raises the
    error a serial load raises. The records are then packed, in place, into
    the tensor.
    """
    files = dataset_files(root, layout)
    sizes = [p.stat().st_size for p in files]
    blob, digest = _read_bytes(files[0])
    first = next(_device_tables(files[:1], [blob], layout))
    del blob

    def parse(buffer: bytearray, lo: int, hi: int) -> None:
        start = max(1, lo)
        while start < hi:
            stop, text = start + 1, sizes[start]
            while stop < hi and text + sizes[stop] <= _KERNEL_BYTES:
                text += sizes[stop]
                stop += 1
            read = [_read_bytes(path) for path in files[start:stop]]
            tables = _device_tables(files[start:stop], [blob for blob, _ in read], layout)
            for path, (_, digest), table in zip(files[start:stop], read, tables):
                if table.shape != first.shape:
                    shape, want = ("{}x{}".format(*t.shape) for t in (table, first))
                    raise StructuralError(f"device file {path.name} has shape {shape}, "
                                          f"expected {want} like {files[0].name}")
                buffer += digest
                buffer += memoryview(np.ascontiguousarray(table))
            start = stop

    data = bytearray(digest)
    data += memoryview(np.ascontiguousarray(first))
    run_parts(data, sizes, _PART_BYTES, parse)
    size, record = first.nbytes, len(digest) + first.nbytes
    digests = tuple((path, data[j * record:j * record + len(digest)].hex())
                    for j, path in enumerate(files))
    for j in range(len(files)):
        data[j * size:(j + 1) * size] = data[j * record + len(digest):(j + 1) * record]
    del data[len(files) * size:]
    return np.frombuffer(data).reshape(len(files), *first.shape), digests


def _device_tables(paths: list[Path], blobs: list[bytes], layout: LayoutSpec):
    """The (ROs, samples) float64 table of each device file of ``paths``,
    whose bytes are ``blobs``: one kernel call for them all, or where the
    kernel declines, ``np.loadtxt`` on one file after the other, each
    parsed only when the one before it has been taken."""
    tables = parse_tables(blobs, layout.delimiter)
    for index, path in enumerate(paths):
        if tables is None:
            table = _read_table(path, np.dtype(np.float64), layout.delimiter, "#")
        else:
            table = tables[index]
        yield table.T if layout.rows == "samples" else table


def _sort_rows(keys: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The order that sorts the rows of ``keys`` (shape (n, k)) in C order, and
    the index of the first row that repeats an earlier one (None if none does)."""
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    # The sort is stable, so each run of equal rows keeps file order.
    repeats = order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]
    return order, (int(repeats.min()) if repeats.size else None)


def _load_csv(path: Path) -> tuple[np.ndarray, tuple]:
    """The dense (device, ro, sample) cube of a consolidated CSV, and its
    digest."""
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    table = _read_table(path, _CSV_DTYPE, ",")
    cells = np.column_stack([table[name] for name in CSV_HEADER[:3]])
    if cells.min() < 0:
        raise ValidationError(f"negative index in {path.name}")
    shape = tuple(int(m) + 1 for m in cells.max(axis=0))
    freq = table["freq_mhz"]
    # What write_dataset writes is already the cube's positions in C order.
    if len(cells) == math.prod(shape) and np.array_equal(cells, np.indices(shape).reshape(3, -1).T):
        return np.ascontiguousarray(freq).reshape(shape), ((path, sha256_file(path)),)
    order, repeat = _sort_rows(cells)
    if repeat is not None:
        j, i, t = cells[repeat]
        raise StructuralError(
            f"duplicate reading for device {j}, ro {i}, sample {t} in {path.name}"
        )
    cells = cells[order]
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
    return freq[order].reshape(shape), ((path, sha256_file(path)),)


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
    """Write a dataset in one of the layouts ``load_readings`` accepts.

    A ``files`` dataset is refused, before anything is written, if the
    layout's pattern does not match its file names, which loading it would
    then not find, or if ``out_dir`` holds a file that matches the pattern
    and that this call would not write: loading the directory would mix it
    in.
    """
    layout = layout or LayoutSpec()
    out_dir = Path(out_dir)
    values = readings.values
    if layout.kind == "files":
        _write_files(values, out_dir, layout)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        # One reading per line in (device, ro, sample) order. CSV files end
        # lines with "\r\n", as csv.writer does.
        columns = [*np.indices(values.shape).reshape(3, -1), values.ravel()]
        _write_csv(out_dir / "readings.csv", CSV_HEADER, columns)
    if meta is not None:
        write_metadata(meta, out_dir / "serials.csv")


def _refuse_strays(out_dir: Path, pattern: str, names: list[str]) -> None:
    """Raise if ``out_dir`` holds a file matching ``pattern`` not in ``names``."""
    if not out_dir.is_dir():
        return
    keep = set(names)
    strays = sorted(p.name for p in out_dir.iterdir()
                    if p.name not in keep and p.is_file() and fnmatch.fnmatch(p.name, pattern))
    if strays:
        raise ConfigurationError(
            f"{out_dir} holds {strays[0]}, which is not one of the {len(names)} device "
            "files of this dataset and would be read with them; remove it or write "
            "to another directory"
        )


def _write_files(values: np.ndarray, out_dir: Path, layout: LayoutSpec) -> None:
    """Write one text file per device.

    The devices, sized in cells, are one ``parallel.run_parts`` job, each
    share at least ``_WRITE_CELLS``: this process writes the first share and
    a forked child each other one, formatting each file where it is written,
    by ``output.append_table``. The parts append nothing to the buffer. A
    share whose child fails is written again here, over whatever the child
    left, so an error reaches the caller as a serial write raises it, at the
    first faulty file.
    """
    names = [device_file_name(j, len(values)) for j in range(len(values))]
    unmatched = [name for name in names if not fnmatch.fnmatch(name, layout.pattern)]
    if unmatched:
        raise ConfigurationError(
            f"the layout's pattern {layout.pattern!r} does not match the device file "
            f"{unmatched[0]}, so the dataset could not be read back; use a pattern that "
            "matches device_*.txt"
        )
    _refuse_strays(out_dir, layout.pattern, names)
    out_dir.mkdir(parents=True, exist_ok=True)
    sep = layout.delimiter if layout.delimiter is not None else " "

    def write(_buffer: bytearray, lo: int, hi: int) -> None:
        for j in range(lo, hi):
            # A file's columns are samples (rows=ros) or ROs (rows=samples).
            table = bytearray()
            append_table(table, values[j] if layout.rows == "samples" else values[j].T, sep)
            (out_dir / names[j]).write_bytes(table)

    run_parts(bytearray(), [math.prod(values.shape[1:])] * len(names), _WRITE_CELLS, write)


def _write_csv(path: Path, header, columns) -> None:
    """A CSV table below its header line, lines ended by "\r\n"."""
    data = bytearray((",".join(header) + "\r\n").encode("utf-8"))
    append_table(data, columns, ",", "\r\n")
    with open(path, "wb") as fh:
        fh.write(data)


def write_metadata(meta: DeviceMeta, path: str | Path) -> None:
    _write_csv(Path(path), _META_DTYPE.names, [np.arange(meta.num_devices), meta.serials])
