"""Deterministic, atomic artifact writing and run manifests.

Every command line run builds a RunManifest from its inputs and parameters.
The manifest hash is computed before any artifact is written; text artifacts
carry the hash in a comment or JSON field, and the manifest file written at
the end lists each artifact with its content digest. Raw binary artifacts
(the packed bit stream has no room for a header) are linked from the
manifest side only.

Tables are formatted a table at a time by ``format_table``. It builds one
``%`` row template from the dtypes of equal-length columns and repeats it
over a chunk of rows, so that one ``%`` formats 4096 rows. Each column goes
through ``numpy.asarray``, and its dtype picks the conversion:

* integer and bool columns use ``%d``;
* float columns use ``%.17g``, which round-trips doubles exactly;
* ``str`` columns use ``%s``.

Any other dtype, ``object`` included (``None`` among numbers makes one), is
a ``ValueError``. ``'%.17g' % x`` and ``format(x, '.17g')`` are the same
string for every double: CPython formats both with
``PyOS_double_to_string(x, 'g', 17, 0)``. ``'%d' % n`` is ``str(n)``. A
Python list that mixes ints and floats becomes a float column, so pass such
a column as an array of the dtype it should print as. Identical manifests
always produce byte-identical artifacts.

``ArtifactWriter`` appends each chunk's UTF-8 bytes to one buffer as soon as
it is formatted, so a large table (``group_variance.dat`` is 57 MB at 2000
devices) is held once, as that buffer. Joining the chunks and then encoding
the text held three copies at once, and the peak RSS then depended on
whether malloc had handed the freed chunks back to the system.

A table of at least ``2 * _PART_CELLS`` cells is formatted on every CPU in
the process's affinity mask: it is cut at chunk boundaries into
``min(CPUs, cells // _PART_CELLS)`` parts, and each part after the first
is formatted by a forked child and streamed back through a pipe in blocks
of at most 1 MiB. The parts are appended in row order, so the bytes are the
same for any part count. A child that fails or is killed makes the parent
raise ``ChildProcessError`` before anything is written. Where ``os.fork``
does not exist, tables are formatted serially.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The ``%`` conversion of each column dtype kind format_table accepts.
_CONVERSIONS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}
# Rows per formatting chunk: bounds the Python objects alive at once.
_CHUNK_ROWS = 4096
# Cells each formatting part holds at least: a fork costs about 4 ms at
# 150 MB RSS, under a tenth of the time 65,536 cells take to format.
_PART_CELLS = 2**16
# Largest read from a part's pipe, so the parent never holds a second copy
# of a part beside its buffer.
_PIPE_BLOCK = 1 << 20


def format_table(columns, sep: str = " ", newline: str = "\n") -> str:
    """Rows of equal-length ``columns`` joined by ``sep``, each row ended by
    ``newline``. No rows give the empty string."""
    data = bytearray()
    _append_table(data, columns, sep, newline)
    return data.decode("utf-8")


def _append_table(data: bytearray, columns, sep: str, newline: str = "\n") -> None:
    """Append ``format_table(columns, sep, newline)`` to ``data`` as UTF-8.

    A table of many cells is cut into parts at multiples of ``_CHUNK_ROWS``,
    one part per CPU the process may run on, each of at least
    ``_PART_CELLS`` cells. This process formats the first part; each other
    part is formatted by a forked child and read back through a pipe, in
    order, so the bytes never depend on the part count.
    """
    columns = [np.asarray(col) for col in columns]
    if not columns or any(col.ndim != 1 for col in columns):
        raise ValueError("format_table needs one or more 1-dimensional columns")
    num_rows = len(columns[0])
    if any(len(col) != num_rows for col in columns):
        raise ValueError("format_table columns differ in length")
    if any(col.dtype.kind not in _CONVERSIONS for col in columns):
        raise ValueError("format_table columns must be numeric or str")
    template = sep.replace("%", "%%").join(_CONVERSIONS[col.dtype.kind] for col in columns)
    row = template + newline.replace("%", "%%")
    parts = _part_count(num_rows * len(columns))
    step = _CHUNK_ROWS * max(1, -(-num_rows // (parts * _CHUNK_ROWS)))  # whole chunks
    bounds = [(lo, min(lo + step, num_rows)) for lo in range(0, num_rows, step)]
    children = []  # (pid, read end of its pipe)
    try:
        for lo, hi in bounds[1:]:
            children.append(_fork_part(columns, row, lo, hi))
        if bounds:
            _format_rows(data, columns, row, *bounds[0])
        for pid, fd in children:
            while block := os.read(fd, _PIPE_BLOCK):
                data += block
    finally:
        # Closing a pipe first ends a child still writing to it (EPIPE).
        failed = []
        for pid, fd in children:
            os.close(fd)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code > 0:
                failed.append(f"process {pid} exited with status {code}")
            elif code < 0:
                failed.append(f"process {pid} was killed by signal {-code}")
    if failed:
        raise ChildProcessError("table formatting failed: " + "; ".join(failed))


def _part_count(cells: int) -> int:
    """How many processes format a table of ``cells`` cells."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), cells // _PART_CELLS))


def _fork_part(columns, row: str, start: int, stop: int) -> tuple[int, int]:
    """Fork a child that formats rows ``start..stop`` into its own buffer and
    writes it to a pipe; return the child's pid and the pipe's read end.

    The child leaves by ``os._exit``: no atexit handler, no stdio flush and
    no ``finally`` of the caller runs in it, so it can neither repeat
    buffered output nor write anything but its part. It only formats arrays
    the parent already holds, so it needs no lock that another thread of the
    parent (a BLAS worker) could have held at the fork.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        part = bytearray()
        _format_rows(part, columns, row, start, stop)
        with memoryview(part) as view:
            written = 0
            while written < len(view):
                written += os.write(write_fd, view[written:written + _PIPE_BLOCK])
        code = 0
    except BaseException:
        # Nothing may propagate into the caller's frames. The traceback goes
        # straight to the descriptor: sys.stderr may hold the parent's text.
        os.write(2, traceback.format_exc().encode("utf-8", "replace"))
    finally:
        os._exit(code)


def _format_rows(data: bytearray, columns, row: str, start: int, stop: int) -> None:
    """Append rows ``start..stop`` to ``data`` as UTF-8, ``_CHUNK_ROWS`` rows
    at a time."""
    width = len(columns)
    for lo in range(start, stop, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, stop)
        # One % per chunk: the row template repeated, over the cells row-major.
        cells = [None] * (width * (hi - lo))
        for index, col in enumerate(columns):
            cells[index::width] = col[lo:hi].tolist()
        data += (row * (hi - lo) % tuple(cells)).encode("utf-8")


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_input_files(paths) -> str:
    """Digest of a set of input files: names and contents, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(Path(p) for p in paths):
        h.update(path.name.encode("utf-8"))
        h.update(b"\0")
        h.update(bytes.fromhex(sha256_file(path)))
    return h.hexdigest()


def write_bytes_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def write_text_atomic(path: Path, text: str) -> None:
    write_bytes_atomic(path, text.encode("utf-8"))


@dataclass
class RunManifest:
    version: str
    subcommand: str
    params: dict
    dataset: str | None = None
    layout: str | None = None
    meta: str | None = None
    geometry: str | None = None
    seed: int | None = None
    input_sha256: str | None = None
    artifacts: dict = field(default_factory=dict)

    def core(self) -> dict:
        return {
            "tool": "pufstat",
            "version": self.version,
            "subcommand": self.subcommand,
            "dataset": self.dataset,
            "layout": self.layout,
            "meta": self.meta,
            "geometry": self.geometry,
            "seed": self.seed,
            "input_sha256": self.input_sha256,
            "params": self.params,
        }

    @property
    def hash(self) -> str:
        canonical = json.dumps(self.core(), sort_keys=True, separators=(",", ":"))
        return sha256_bytes(canonical.encode("utf-8"))


class ArtifactWriter:
    """Writes a run's artifacts under one directory, tracking digests."""

    def __init__(self, out_dir: Path, manifest: RunManifest):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest = manifest

    def _record(self, name: str, data: bytes | bytearray) -> Path:
        path = self.out_dir / name
        write_bytes_atomic(path, data)
        self.manifest.artifacts[name] = sha256_bytes(data)
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        body = dict(payload)
        body["manifest_hash"] = self.manifest.hash
        text = json.dumps(body, indent=2, sort_keys=True) + "\n"
        return self._record(name, text.encode("utf-8"))

    def write_csv(self, name: str, header, columns, units: str) -> Path:
        data = bytearray(
            f"# manifest: {self.manifest.hash}\n"
            f"# units: {units}\n"
            f"{','.join(header)}\n".encode("utf-8")
        )
        _append_table(data, columns, ",")
        return self._record(name, data)

    def write_dat(self, name: str, header: str, blocks, units: str) -> Path:
        """Whitespace table for plotting. ``blocks`` is a list of
        (comment_or_None, columns); blocks are separated by blank lines."""
        data = bytearray(
            f"# manifest: {self.manifest.hash}\n"
            f"# units: {units}\n"
            f"# columns: {header}\n".encode("utf-8")
        )
        for index, (comment, columns) in enumerate(blocks):
            if index:
                data += b"\n"
            if comment:
                data += f"# {comment}\n".encode("utf-8")
            _append_table(data, columns, " ")
        return self._record(name, data)

    def write_binary(self, name: str, data: bytes) -> Path:
        return self._record(name, data)

    def finish(self) -> Path:
        payload = self.manifest.core()
        payload["hash"] = self.manifest.hash
        payload["artifacts"] = dict(sorted(self.manifest.artifacts.items()))
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        path = self.out_dir / f"{self.manifest.subcommand}_manifest.json"
        write_text_atomic(path, text)
        return path
