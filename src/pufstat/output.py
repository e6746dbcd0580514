"""Deterministic, atomic artifact writing and run manifests.

Every command line run builds a RunManifest from its inputs and parameters.
The manifest hash is computed before any artifact is written; text artifacts
carry the hash in a comment or JSON field, and the manifest file written at
the end lists each artifact with its content digest. Raw binary artifacts
(the packed bit stream has no room for a header) are linked from the
manifest side only.

Tables are formatted a table at a time by ``format_table``, as UTF-8 bytes
made by numpy, never one Python ``%`` per cell. Each column goes through
``numpy.asarray``, and its dtype picks the text of a cell:

* integer and bool columns give ``'%d' % n``;
* float columns give ``'%.17g' % x``, which round-trips doubles exactly
  (float32 and other widths are widened to float64 first);
* ``str`` columns give their UTF-8 bytes.

Any other dtype, ``object`` included (``None`` among numbers makes one), is
a ``ValueError``. A Python list that mixes ints and floats becomes a float
column, so pass such a column as an array of the dtype it should print as.
Identical manifests always produce byte-identical artifacts.

The table is formatted a chunk of rows at a time, at most ``_CHUNK_CELLS``
cells, so the temporaries stay small. Adjacent columns of one kind are
stacked and formatted by one kernel call. A kernel returns a uint8 matrix,
one row of bytes per cell, padded with 0xFF, which no UTF-8 text holds; the
chunk's rows are laid out with their separators and newline in one such
matrix, and dropping every 0xFF byte leaves the text.

* Integers (``_int_cells``) are split into groups of four digits and read
  from tables of "0000" to "9999", with and without leading zeros.
* Floats (``_float_cells``) take their 17 significant digits, correctly
  rounded half-even, from the exact 128-bit product of the 53-bit mantissa
  and a power of five, shifted right (``_decimal_digits``; Adams 2019,
  "Ryu revisited: printf floating point conversion"). The digits are laid
  out as ``%g`` does: fixed notation from 1e-4 up to 1e17, exponent notation
  outside it, without trailing zeros or a bare ".". Zero, inf, NaN,
  subnormals and every value outside the product's range (below about
  1e-11 or from about 2e15) take ``'%.17g' % x`` itself, in the same call.

``tests/oracles.format_rows_reference`` formats the same tables one Python
scalar at a time, and the tests compare the two cell by cell.

``ArtifactWriter`` appends each chunk's bytes to one buffer as soon as
it is formatted, so a large table (``group_variance.dat`` is 57 MB at 2000
devices) is held once, as that buffer. A ``write_dat`` table is formatted
in one pass too, then cut into blocks by row count (``_append_blocks``).

A table of at least ``2 * _PART_CELLS`` cells is formatted on every CPU in
the process's affinity mask: its chunks, sized in cells, are one job of
``parallel.run_parts``, which cuts them into shares of at least
``_PART_CELLS`` cells. This process formats the first share into the
artifact's buffer; each other share is formatted by a forked child and
streamed back through a pipe. The shares are appended in row order, so the
bytes are the same for any share count, and a share whose child fails is
formatted again here, so the artifact never depends on a child.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .decimals import multiply_128, word_table
from .parallel import run_parts

# Filler of a chunk's byte matrix, dropped when the chunk is compacted.
# 0xFF is never a byte of UTF-8 text, so no separator, newline or str cell,
# NUL included, can hold it.
_PAD = np.uint8(0xFF)
# The sign slot of a number, by whether it is negative.
_SIGNS = np.array([_PAD, ord("-")], dtype=np.uint8)
# Cells per formatting chunk: bounds the kernel's temporaries.
_CHUNK_CELLS = 3 * 2**12
# Cells each formatting part holds at least: a fork costs about 4 ms at
# 150 MB RSS, under a tenth of the ~45 ms 2**19 cells take to format.
_PART_CELLS = 2**19
# "0000" to "9999" in ASCII, one little-endian uint32 per value.
_DIGITS4 = (np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
            % 10 + ord("0")).astype(np.uint8).view("<u4").ravel()
# The low and high 32 bits of 5**k for the scales the fast float path takes.
_POW5_LO = np.array([5**k & 0xFFFFFFFF for k in range(28)], dtype=np.uint64)
_POW5_HI = np.array([5**k >> 32 for k in range(28)], dtype=np.uint64)
_E16 = np.uint64(10**16)
_E17 = np.uint64(10**17)


def _byte_table(rows) -> np.ndarray:
    """Rows of equal-length byte strings as a uint8 matrix."""
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)


# A float's 16 digits after its first sit in the 24 bytes of three words.
# The "." goes before digit p, p in 0..16 (16: none): bytes below p keep
# their digit and bytes above p take the digit one below. _TAIL_FILL[p * 17
# + t] then puts the "." at byte p if more than p of the 16 digits show,
# and _PAD wherever no digit shows: from digit t on, and past the last.
_p, _t, _b = np.ogrid[:17, :17, :24]
_TAIL_LOW = word_table(np.where(_b < _p, _PAD, 0)[:, 0])
_TAIL_HIGH = word_table(np.where(_b > _p, _PAD, 0)[:, 0])
_TAIL_FILL = word_table(np.where(
    (_b - (_b > _p) >= _t) | ((_b == _p) & (_p >= _t)), _PAD, np.where(_b == _p, ord("."), 0)
).reshape(-1, 24))
# The bytes before a float's first digit, by 2 * z + sign, where z is 0, or
# 1 to 4 for "0." and the z - 1 zeros after it: "-", "0.", "-0.000", ...
_FLOAT_PREFIX = _byte_table([
    (b"-" if sign else b"\xff") + (b"0." + b"0" * (z - 1) if z else b"").ljust(5, b"\xff")
    for z in range(5) for sign in (0, 1)
])
# A float's exponent in exponent notation, "e-99" to "e+99", by the
# exponent plus 99; the last row is no exponent.
_FLOAT_SUFFIX = _byte_table([b"e%+03d" % power for power in range(-99, 100)] + [b"\xff" * 4])
# 0 to 9999 in ASCII without leading zeros, _PAD in their place, as
# little-endian uint32s: 0 is "0" as a number's last group of four digits
# and blank as one before it.
#
# Unlike the other tables, this one is built from 10,000 byte strings on
# purpose: their join allocates 800 KB of scratch (one buffer view per
# string), and glibc, freeing it, raises its mmap threshold past the
# attack's 512 KB 256 x 256 matrices, which then reuse heap pages. Built
# by broadcasting, `attack --devices 48` on a 193x512x10 set took 52,000
# page faults instead of 21,000 and about 60 ms longer (2-vCPU Xeon).
_INT4_LAST = np.frombuffer(b"".join(str(i).rjust(4, "\xff").encode("latin-1")
                                    for i in range(10_000)), "<u4")
_INT4_LEAD = _INT4_LAST.copy()
_INT4_LEAD[0] = 0xFFFFFFFF


def format_table(columns, sep: str = " ", newline: str = "\n") -> str:
    """Rows of equal-length ``columns`` joined by ``sep``, each row ended by
    ``newline``. No rows give the empty string."""
    data = bytearray()
    append_table(data, columns, sep, newline)
    return data.decode("utf-8")


def append_table(data: bytearray, columns, sep: str, newline: str = "\n") -> None:
    """Append ``format_table(columns, sep, newline)`` to ``data`` as UTF-8.

    The table's formatting chunks are the items of one ``run_parts`` job,
    sized in cells, each share of them at least ``_PART_CELLS``.
    """
    columns = _columns(columns)
    num_rows, width = len(columns[0]), len(columns)
    table = _table(columns, sep, newline)
    chunk = _chunk_rows(width)
    full, rest = divmod(num_rows, chunk)
    run_parts(data, [chunk * width] * full + [rest * width] * (rest > 0), _PART_CELLS,
              lambda buffer, lo, hi: _format_rows(buffer, table, lo * chunk,
                                                  min(hi * chunk, num_rows)))


def _table(columns, sep: str, newline: str):
    """1-dimensional ``columns`` of one length as ``_format_rows`` takes
    them: runs of adjacent columns of one kind, each run formatted as one
    block, and the separator and newline as UTF-8."""
    groups = []
    for col in columns:
        kind = _cell_kind(col)
        if groups and groups[-1][0] == kind:
            groups[-1][1].append(col)
        else:
            groups.append((kind, [col]))
    return groups, sep.encode("utf-8"), newline.encode("utf-8")


def _columns(columns) -> list[np.ndarray]:
    """``columns`` as 1-dimensional arrays of one length."""
    columns = [np.asarray(col) for col in columns]
    if not columns or any(col.ndim != 1 for col in columns):
        raise ValueError("format_table needs one or more 1-dimensional columns")
    if any(len(col) != len(columns[0]) for col in columns):
        raise ValueError("format_table columns differ in length")
    return columns


def _append_blocks(data: bytearray, columns, blocks, sep: str) -> None:
    """Append the table ``columns`` to ``data``, cut into ``blocks`` of
    ``(comment_or_None, row_count)`` that cover its rows in order (``None``
    is one block with no comment): each after a ``# comment`` line where it
    has one, with a blank line between blocks.

    The table is formatted in one pass. For more than one block, its text is
    cut at the newlines that end the rows, so a str column is refused there.
    """
    columns = _columns(columns)
    num_rows = len(columns[0])
    blocks = [(None, num_rows)] if blocks is None else blocks
    counts = [count for _, count in blocks]
    if min(counts, default=0) < 0 or sum(counts) != num_rows:
        raise ValueError(f"block row counts {counts} do not cover {num_rows} rows")
    if len(blocks) > 1:
        if "U" in map(_cell_kind, columns):
            raise ValueError("a table of more than one block has no str column")
        rows = bytearray()
        append_table(rows, columns, sep)
        starts = np.zeros(num_rows + 1, dtype=np.intp)  # where each row starts, and the end
        starts[1:] = np.flatnonzero(np.frombuffer(rows, dtype=np.uint8) == ord("\n")) + 1
        cuts = starts[np.cumsum([0, *counts])]
    for index, (comment, _) in enumerate(blocks):
        if index:
            data += b"\n"
        if comment:
            data += f"# {comment}\n".encode("utf-8")
        if len(blocks) > 1:
            data += memoryview(rows)[cuts[index]:cuts[index + 1]]
        else:
            append_table(data, columns, sep)


def _cell_kind(col: np.ndarray) -> str:
    """The block a column's cells are formatted in: "f" float64, "i" int64,
    "u" uint64 or "U" str."""
    kind = col.dtype.kind
    if kind == "u" and col.dtype.itemsize == 8:
        return "u"
    if kind in "biu":
        return "i"
    if kind in "fU":
        return kind
    raise ValueError("format_table columns must be numeric or str")


def _chunk_rows(width: int) -> int:
    """Rows per formatting chunk of a table ``width`` cells wide."""
    return max(1, _CHUNK_CELLS // width)


def _format_rows(data: bytearray, table, start: int, stop: int) -> None:
    """Append rows ``start..stop`` of ``table`` (its column groups, separator
    and newline as bytes) to ``data``, a chunk of rows at a time.

    A chunk is one uint8 matrix, a row of it per table row: each cell's
    bytes and each separator at fixed places, the newline at the end, and
    _PAD wherever a cell is narrower than its place. Dropping the _PAD bytes
    leaves the text.
    """
    groups, sep, newline = table
    step = _chunk_rows(sum(len(cols) for _, cols in groups))
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        # A kernel takes its columns' cells one column after the other; the
        # transpose puts them back in row order.
        blocks = []
        for kind, cols in groups:
            cells = _CELLS[kind](np.array([col[lo:hi] for col in cols]).ravel())
            blocks.append(cells.reshape(len(cols), hi - lo, -1).transpose(1, 0, 2))
        # Each cell is followed by a separator; the last one's is _PAD.
        template = b"".join((b"\xff" * cells.shape[2] + sep) * cells.shape[1]
                            for cells in blocks)
        template = template[:len(template) - len(sep)] + b"\xff" * len(sep) + newline
        chunk = bytearray(template) * (hi - lo)
        rows = np.frombuffer(chunk, dtype=np.uint8).reshape(hi - lo, len(template))
        at = 0
        for cells in blocks:
            count, width = cells.shape[1:]
            places = rows[:, at:at + count * (width + len(sep))]
            places.reshape(hi - lo, count, -1)[:, :, :width] = cells
            at += places.shape[1]
        del rows, places
        data += chunk.translate(None, b"\xff")


def _float_cells(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` of each value, as a uint8 matrix, a row per value,
    padded with _PAD.

    ``%.17g`` shows 17 significant digits, correctly rounded half-even, in
    exponent notation below 1e-4 and from 1e17, without trailing zeros or a
    bare ".". ``_decimal_digits`` gives the digits exactly or says it
    cannot; those values take ``'%.17g' % v`` itself. Each temporary is
    dropped once spent, which bounds a chunk's peak memory.
    """
    values = values.astype(np.float64, copy=False)
    digits, scale, exact = _decimal_digits(values)
    first = (digits // _E16).astype(np.uint8)
    digits -= first * _E16
    digits = digits.view(np.int64)  # below 10**16: indexes without a copy
    # Four groups of four digits; the last slot holds the high eight digits
    # until the low eight are split.
    quads = np.empty((2, len(values), 2), dtype=np.int64)
    np.floor_divide(digits, 10**8, out=quads[1, :, 1])
    digits -= quads[1, :, 1] * 10**8
    for word, eight in enumerate((quads[1, :, 1], digits)):
        np.floor_divide(eight, 10**4, out=quads[word, :, 0])
        np.subtract(eight, quads[word, :, 0] * 10**4, out=quads[word, :, 1])
    del digits
    # The 16 digits after the first, as two words of eight ASCII digits, and
    # a third word for the digit the "." pushes out of the second.
    tail = np.zeros((3, len(values)), dtype="<u8")
    np.take(_DIGITS4, quads, out=tail[:2].view("<u4").reshape(quads.shape), mode="clip")
    del quads
    # The digits after the first up to the last that is not "0": in each
    # word, up to its highest byte that is not "0", whose top bit the float
    # exponent gives exactly, as no byte of the word has its high bits set.
    top = (tail[:2] ^ np.uint64(0x3030303030303030)).astype(np.float64).view(np.int64)
    top >>= 52
    shown = np.maximum((top[0] - 1015) >> 3, (top[1] - 951) >> 3)
    del top
    np.maximum(shown, 0, out=shown)

    power = 16 - scale  # the decimal exponent of the first digit
    del scale
    fixed = (power + 4).view(np.uint64) <= 20  # -4 <= power <= 16
    integral = fixed & (power >= 0)
    np.maximum(shown, np.where(integral, power, 0), out=shown)
    point = np.where(integral, power, np.where(fixed, 16, 0))
    del integral
    # Bytes below the "." keep their digit, bytes above it take the digit
    # one byte lower.
    shifted = tail << 8
    shifted[1:] |= tail[:2] >> 56
    # mode="clip" writes straight to ``out``; every index is in range.
    mask = np.take(_TAIL_HIGH, point, axis=1)
    shifted &= mask
    tail &= np.take(_TAIL_LOW, point, axis=1, out=mask, mode="clip")
    tail |= shifted
    del shifted
    tail |= np.take(_TAIL_FILL, point * 17 + shown, axis=1, out=mask, mode="clip")
    del mask
    body = np.ascontiguousarray(tail.T).view(np.uint8)
    del tail
    last = int((shown + (shown > point)).max())  # body bytes in use
    del shown, point

    negative = values < 0
    small = fixed & (power < 0)
    prefix = 6 if small.any() else 1 if negative.any() else 0
    suffix = 0 if fixed.all() else 4
    fallback = [] if exact.all() else [
        ("%.17g" % v).encode("ascii") for v in values[~exact].tolist()]
    width = max([prefix + 1 + last + suffix, *map(len, fallback)])
    cells = np.full((len(values), width), _PAD, dtype=np.uint8)
    if prefix == 1:
        cells[:, 0] = np.take(_SIGNS, negative.view(np.uint8))
    elif prefix:
        cells[:, :prefix] = np.take(
            _FLOAT_PREFIX, 2 * np.where(small, -power, 0) + negative, axis=0)
    cells[:, prefix] = first + ord("0")
    cells[:, prefix + 1:prefix + 1 + last] = body[:, :last]
    if suffix:
        cells[:, prefix + 1 + last:prefix + 5 + last] = np.take(
            _FLOAT_SUFFIX, np.where(fixed | ~exact, len(_FLOAT_SUFFIX) - 1, power + 99), axis=0)
    if fallback:
        cells[~exact] = _byte_table([text.ljust(width, b"\xff") for text in fallback])
    return cells


def _decimal_digits(values: np.ndarray):
    """The 17 significant digits of each ``|v|`` as an integer ``q`` from
    10**16 to 10**17, correctly rounded half-even, the scale ``k`` with ``q
    = round(|v| * 10**k)``, and whether ``q`` and ``k`` are exact.

    With ``|v| = m * 2**e``, ``q`` is ``m * 5**k`` shifted right by ``-(e +
    k)`` bits: an exact 128-bit product (Ryu printf: Adams 2019). Zero,
    inf, NaN and subnormals, and scales and shifts that product does not
    cover, are not exact.
    """
    bits = values.view(np.uint64)
    biased = (bits >> 52) & 0x7FF
    normal = biased - 1 < 0x7FE  # neither zero, subnormal, inf nor NaN
    del biased
    # 16 - floor(log10|v|), which may be one off next to a power of ten: the
    # scale then moves a step, as the floor of the product says.
    log = np.where(normal, values, 1.0)
    np.abs(log, out=log)
    np.log10(log, out=log)
    np.floor(log, out=log)
    scale = np.subtract(16, log, out=log).astype(np.int64)
    del log
    floor, up, exact = _scaled_digits(bits, scale)
    exact &= normal
    del normal
    for _ in range(2):
        retry = np.nonzero(exact & (floor - _E16 >= _E17 - _E16))[0]  # outside 10**16..10**17
        if not retry.size:
            break
        scale[retry] += np.where(floor[retry] < _E16, 1, -1)
        floor[retry], up[retry], exact[retry] = _scaled_digits(bits[retry], scale[retry])
    exact &= floor - _E16 < _E17 - _E16
    floor += up
    floor[~exact] = _E16
    carried = floor == _E17  # 9.99...95 rounds up to one more decimal place
    if carried.any():
        floor[carried] = _E16
        scale[carried] -= 1
    return floor, scale, exact


def _scaled_digits(bits, scale):
    """``floor(|v| * 10**scale)`` for the float64 ``v`` of each of ``bits``,
    whether rounding it half-even adds one, and whether both are exact:
    where ``v`` is normal, ``scale`` lies in 0..27 and, with ``|v| = m *
    2**e``, the shift ``-(e + scale)`` in 1..63.

    The product is ``m * 5**scale`` in two uint64 words
    (``decimals.multiply_128``), then shifted right; the bits shifted out
    decide the rounding. A floor below 10**17 takes a shift of at most 63
    at these scales, and a C shift by 64 bits or more is undefined.
    """
    shift = ((bits >> 52) & 0x7FF).view(np.int64)
    np.subtract(1074, shift, out=shift)  # the shift less one
    shift -= scale
    shift = shift.view(np.uint64)  # below 0 wraps past 62
    exact = scale.view(np.uint64) <= 27
    exact &= shift < 63
    np.minimum(shift, 62, out=shift)
    shift += 1
    m = bits & 0xFFFFFFFFFFFFF
    m |= 1 << 52  # the implicit bit of a normal m
    word_hi, word_lo = multiply_128(m, np.take(_POW5_LO, scale, mode="clip"),
                                    np.take(_POW5_HI, scale, mode="clip"))
    del m
    floor = word_lo >> shift
    floor |= word_hi << (64 - shift)
    floor[(word_hi >> shift) != 0] = _E17  # past 2**64: far too big
    # Half-even: up when the remainder is over half, or half and the floor odd.
    below = np.left_shift(1, shift, dtype=np.uint64)
    below -= 1
    word_lo &= below
    word_lo += floor & 1
    up = word_lo > below - (below >> 1)
    return floor, up, exact


def _int_cells(values: np.ndarray) -> np.ndarray:
    """``'%d' % n`` of each int64 or uint64, as a uint8 matrix, a row per
    value, padded with _PAD: a sign where any is negative, then the digits
    in groups of four."""
    if values.dtype == np.uint64:
        magnitude, negative = values, np.zeros(len(values), dtype=bool)
    else:
        negative = values < 0
        magnitude = np.abs(values).view(np.uint64)  # abs(-2**63) wraps to 2**63
    groups = -(-len(str(int(magnitude.max(initial=0)))) // 4)
    quads = np.empty((groups, len(values)), dtype=np.uint64)
    quads[-1] = magnitude
    for at in range(groups - 1, 0, -1):
        np.floor_divide(quads[at], 10**4, out=quads[at - 1])
        quads[at] -= quads[at - 1] * 10**4
    quads = quads.view(np.int64)  # each below 10**4: indexes without a copy
    # Groups before the first that is not 0 are blank, that one has no
    # leading zeros, and those after it have all theirs.
    digits = np.empty((len(values), groups), dtype="<u4")
    started = np.zeros(len(values), dtype=bool)
    for at, quad in enumerate(quads):
        lead = np.take(_INT4_LAST if at == groups - 1 else _INT4_LEAD, quad)
        digits[:, at] = np.where(started, np.take(_DIGITS4, quad), lead) if at else lead
        started |= quad != 0
    sign = int(negative.any())
    cells = np.empty((len(values), sign + 4 * groups), dtype=np.uint8)
    if sign:
        cells[:, 0] = np.take(_SIGNS, negative.view(np.uint8))
    cells[:, sign:] = digits.view(np.uint8)
    return cells


def _str_cells(values: np.ndarray) -> np.ndarray:
    """The UTF-8 bytes of each str, as a uint8 matrix, a row per value,
    padded with _PAD."""
    encoded = np.char.encode(values, "utf-8")
    width = encoded.dtype.itemsize
    raw = encoded.view(np.uint8).reshape(len(values), width)
    length = np.char.str_len(encoded)  # a numpy str keeps no trailing NUL
    return np.where(np.arange(width) < length[:, None], raw, np.uint8(_PAD))


_CELLS = {
    "f": _float_cells,
    "i": lambda values: _int_cells(values.astype(np.int64, copy=False)),
    "u": _int_cells,
    "U": _str_cells,
}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def hash_input_files(paths, hashed=()) -> str:
    """Digest of a set of input files: names and contents, in sorted order.
    The files of ``paths`` are read here; ``hashed`` gives ``(path, SHA-256
    hex)`` of files already read."""
    entries = [(Path(p), digest) for p, digest in hashed]
    entries += [(Path(p), sha256_file(Path(p))) for p in paths]
    h = hashlib.sha256()
    for path, digest in sorted(entries):
        h.update(path.name.encode("utf-8"))
        h.update(b"\0")
        h.update(bytes.fromhex(digest))
    return h.hexdigest()


def write_bytes_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _json_bytes(payload: dict) -> bytes:
    """``payload`` as UTF-8 JSON, indented, keys sorted, ending in a newline."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")


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
        """What the hash covers: every field but ``artifacts``."""
        return {"tool": "pufstat", **{f.name: getattr(self, f.name) for f in fields(self)
                                      if f.name != "artifacts"}}

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
        return self._record(name, _json_bytes(body))

    def write_csv(self, name: str, header, columns, units: str) -> Path:
        data = bytearray(
            f"# manifest: {self.manifest.hash}\n"
            f"# units: {units}\n"
            f"{','.join(header)}\n".encode("utf-8")
        )
        append_table(data, columns, ",")
        return self._record(name, data)

    def write_dat(self, name: str, header: str, columns, units: str, blocks=None) -> Path:
        """Whitespace table for plotting: the table ``columns``, cut into
        ``blocks`` of (comment_or_None, row_count) separated by blank lines;
        ``None`` is one block with no comment."""
        data = bytearray(
            f"# manifest: {self.manifest.hash}\n"
            f"# units: {units}\n"
            f"# columns: {header}\n".encode("utf-8")
        )
        _append_blocks(data, columns, blocks, " ")
        return self._record(name, data)

    def write_binary(self, name: str, data: bytes) -> Path:
        return self._record(name, data)

    def finish(self) -> Path:
        payload = self.manifest.core()
        payload["hash"] = self.manifest.hash
        payload["artifacts"] = dict(sorted(self.manifest.artifacts.items()))
        path = self.out_dir / f"{self.manifest.subcommand}_manifest.json"
        write_bytes_atomic(path, _json_bytes(payload))
        return path
