"""Exact decimal text to float64: whole tables in one numpy pass.

``parse_tables`` reads tables of plain decimals, the text pufstat's own
writers produce, to the float64 nearest each decimal, ties to even: the
value ``float()`` and ``np.loadtxt`` give. It takes only this grammar:

* a token is ASCII digits with at most one ".", 1 to 19 significant
  digits and at most 24 bytes (``5.``, ``.5`` and leading zeros are fine);
* tokens are split by single ``sep`` bytes (one ASCII byte, a space by
  default), and lines end with ``\\n`` or ``\\r\\n``;
* there are no blank lines, every line has the same number of fields,
  and every table the same number of lines.

For anything else it returns None, and the caller parses the input another
way: a sign, an exponent, a comment, a run of separators, a tab between
space-separated fields, a lone ``\\r``, a missing last newline and
non-ASCII bytes are all declined, never guessed at.

Each token is read as the three little-endian uint64 words that end with
its last byte. The bytes before the token are cleared and the digits before
its "." move one byte up into the "." (``_LOW``/``_HIGH``), so the words
hold its digits right-aligned, eight to a word. Eight ASCII digits become
an integer with three multiplies (SWAR, Lemire's ``parse_eight_digits``),
and the three words the mantissa ``w`` below 10**19. The double nearest
``w * 10**q``, with ``q`` minus the digits after the ".", comes from one
128-bit product of the normalized ``w`` and a 128-bit approximation of
``5**q``, and from a second product where the first leaves the rounding
open (Eisel-Lemire: Lemire 2021, "Number parsing at a gigabyte per
second"; Mushtak & Lemire 2023 prove that one correction suffices). The
powers of five are fast_float's, built from Python ints.

Only ``np.uint64`` scalars meet uint64 arrays, so the arithmetic stays in
uint64 under numpy 1.x's value-based casting too.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
# A token's frame: the bytes of three words, ending at its last byte.
_FRAME = 24
_LOW32 = _U64(0xFFFFFFFF)
_ASCII_ZEROS = _U64(0x3030303030303030)
# Adding 0x76 to a byte sets its top bit where it is above 9.
_OVER_NINE = _U64(0x7676767676767676)
_TOP_BITS = _U64(0x8080808080808080)
_BYTES_0_4 = _U64(0x000000FF000000FF)
_PAIRS_0_2 = _U64(100 + (10**6 << 32))
_PAIRS_1_3 = _U64(1 + (10**4 << 32))
_E8 = _U64(10**8)
_E16 = _U64(10**16)


def word_table(rows) -> np.ndarray:
    """Rows of 24 bytes, a uint8 matrix, as three little-endian uint64
    words, word-major: row ``r`` of the bytes is column ``r`` of the
    result."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view("<u8").T.copy()


def _frame_masks(keep) -> np.ndarray:
    """For a token of ``24 - n`` bytes whose "." is frame byte ``d`` (-1:
    none), the bytes where the array ``keep(n, d, b)`` holds: column
    ``n * 25 + d + 1``."""
    n, d, b = np.ogrid[:_FRAME, -1:_FRAME, :_FRAME]
    return word_table((keep(n, d, b) * np.uint8(0xFF)).reshape(-1, _FRAME))


# The token's digits before its "." (which move one byte up) and after it;
# with no ".", all its digits stay.
_LOW = _frame_masks(lambda n, d, b: (n <= b) & (b < d))
_HIGH = _frame_masks(lambda n, d, b: (b >= n) & (b > d))


def _pow5(k: int) -> int:
    """fast_float's 128-bit approximation of ``5**-k``, normalized to a top
    bit of 2**127: ``floor(2**b / 5**k) + 1`` for ``k`` from 1 to 27."""
    if k == 0:
        return 1 << 127
    power = 5**k
    return (1 << (power.bit_length() + 127)) // power + 1


# 5**q for q = 0, -1, ..., -23 (the digits after the "." of a 24-byte
# token) in 32-bit halves: the high word's low and high halves, then the
# low word's.
_POW5 = np.array([[_pow5(k) >> shift & 0xFFFFFFFF for k in range(_FRAME)]
                  for shift in (64, 96, 0, 32)], dtype=np.uint64)


def parse_tables(blobs: list[bytes], sep: str | None = None) -> np.ndarray | None:
    """The float64 values of the text tables ``blobs``, shape (tables,
    lines, fields), or None where any of them is outside the grammar or
    they differ in their line count."""
    blobs = [blob.replace(b"\r\n", b"\n") if b"\r" in blob else blob for blob in blobs]
    if not all(blob.endswith(b"\n") for blob in blobs):
        return None
    scan = _scan(b"".join(blobs), sep)
    if scan is None:
        return None
    mantissa, point, ends = scan
    # Each table ends a line, so equal token counts are equal line counts.
    tokens = np.diff(np.searchsorted(ends, np.cumsum([len(blob) for blob in blobs])), prepend=0)
    if (tokens != tokens[0]).any():
        return None
    return nearest_doubles(mantissa, point).reshape(len(blobs), -1, mantissa.shape[1])


def _scan(data: bytes, sep: str | None):
    """The tokens of the text table ``data``, whose lines end with "\\n", as
    two (lines, fields) arrays: each token's digits as a uint64, and how
    many of them follow its "." (-1 where it has none); then the offset of
    the delimiter after each token. None where ``data`` is outside the
    grammar."""
    sep_byte = (" " if sep is None else sep).encode("utf-8")
    if len(sep_byte) != 1 or sep_byte in b"\r\n.0123456789":
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    marked = raw == ord(sep_byte)
    marked |= raw == ord("\n")
    marked |= raw == ord(".")
    marks = np.flatnonzero(marked)
    del marked
    kinds = raw[marks]
    dotted = np.flatnonzero(kinds == ord("."))
    # Every delimiter ends one token; two in a row, or one first, end an
    # empty token.
    ends = marks[kinds != ord(".")]
    sizes = np.empty_like(ends)
    sizes[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=sizes[1:])
    if sizes.min() < 2 or sizes.max() > _FRAME + 1:
        return None
    line_end = raw[ends] == ord("\n")
    width = int(line_end.argmax()) + 1
    if len(ends) % width or line_end.sum() != len(ends) // width \
            or not line_end[width - 1::width].all():
        return None
    del line_end
    # A "." is followed by the delimiter of its token, so no token holds
    # two; the token is the one after the delimiters before the ".", and
    # holds more than the ".".
    point = np.full(len(ends), -1, dtype=np.int64)
    if dotted.size:
        if (np.diff(dotted) == 1).any():
            return None
        owner = dotted - np.arange(len(dotted))
        if (sizes[owner] < 3).any():
            return None
        point[owner] = marks[dotted + 1] - marks[dotted] - 1
    del marks, kinds, dotted

    # Frame byte b of a token is byte ends - 24 + b of ``data``: behind 24
    # bytes of padding, the 24 bytes at ``ends`` of a view with a frame at
    # every byte. Column t of ``digits`` is token t's three words.
    padded = bytes(_FRAME) + data
    frames = np.ndarray((len(padded) - _FRAME + 1,), dtype="V24", buffer=padded, strides=(1,))
    digits = np.ascontiguousarray(frames[ends].view("<u8").reshape(-1, 3).T)
    del frames, padded
    digits ^= _ASCII_ZEROS
    column = (_FRAME + 1 - sizes) * (_FRAME + 1)
    column += np.where(point < 0, 0, _FRAME - point)
    low = np.take(_LOW, column, axis=1)
    low &= digits
    digits &= np.take(_HIGH, column, axis=1)
    del column
    digits[1:] |= low[:2] >> _U64(56)
    low <<= _U64(8)
    digits |= low
    # ``low`` is scratch from here on.
    np.add(digits, _OVER_NINE, out=low)
    low |= digits
    low &= _TOP_BITS
    if low.any():
        return None
    # Eight digits per word, the first in the low byte: pairs, then the
    # four pairs at once.
    np.right_shift(digits, _U64(8), out=low)
    digits *= _U64(10)
    digits += low
    np.right_shift(digits, _U64(16), out=low)
    low &= _BYTES_0_4
    low *= _PAIRS_1_3
    digits &= _BYTES_0_4
    digits *= _PAIRS_0_2
    digits += low
    del low
    digits >>= _U64(32)
    if (digits[0] >= _U64(1000)).any():  # over 19 significant digits
        return None
    mantissa = digits[0] * _E16
    mantissa += digits[1] * _E8
    mantissa += digits[2]
    return mantissa.reshape(-1, width), point.reshape(-1, width), ends


def multiply_128(a: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray):
    """The high and low words of each 128-bit product of ``a`` and the
    uint64 whose 32-bit halves are ``b_lo`` and ``b_hi``."""
    a_lo, a_hi = a & _LOW32, a >> _U64(32)
    low = a_lo * b_lo
    cross = a_hi * b_lo
    a_lo *= b_hi
    a_hi *= b_hi
    middle = low >> _U64(32)
    middle += cross & _LOW32
    middle += a_lo & _LOW32
    low &= _LOW32
    low |= middle << _U64(32)
    a_hi += cross >> _U64(32)
    a_hi += a_lo >> _U64(32)
    a_hi += middle >> _U64(32)
    return a_hi, low


def nearest_doubles(mantissa: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The float64 nearest each ``mantissa * 10**-max(point, 0)``, ties to
    even, for mantissas below 2**64 and points below 24."""
    scale = np.maximum(point.ravel(), 0)
    w = mantissa.ravel()
    zero = None if w.all() else np.flatnonzero(w == _U64(0))
    if zero is not None:
        w = w.copy()
        w[zero] = 1
    # The top bit of w from its float exponent, one lower where the float
    # rounded up to the next power of two.
    shift = w.astype(np.float64).view(np.uint64)
    shift >>= _U64(52)
    shift -= _U64(1023)
    shift -= (w >> shift) == _U64(0)
    np.subtract(_U64(63), shift, out=shift)
    w = w << shift
    high, low = multiply_128(w, np.take(_POW5[0], scale), np.take(_POW5[1], scale))
    # Where the 9 bits below the 55 kept are all ones, the next 64 bits of
    # 5**q may carry into them.
    unsure = np.flatnonzero((high & _U64(0x1FF)) == _U64(0x1FF))
    if unsure.size:
        extra = multiply_128(w[unsure], np.take(_POW5[2], scale[unsure]),
                             np.take(_POW5[3], scale[unsure]))[0]
        below = low[unsure] + extra
        high[unsure] += below < extra
        low[unsure] = below
    del w
    upper = high >> _U64(63)
    bits = high >> (upper + _U64(9))
    # The value is bits * 2**(power2 - 1023 - 53), power2 the biased
    # exponent; 217706 * q >> 16 is floor(q * log2(10)) over this range of q.
    power2 = (-217706 * scale) >> 16
    power2 += 63 + 1023
    power2 -= shift.view(np.int64)
    power2 += upper.view(np.int64)
    # Half way between two doubles, where 5**q is exact (q >= -4) and only
    # zeros were dropped: round down to the even one.
    tie = np.flatnonzero((low <= _U64(1)) & (scale <= 4))
    if tie.size:
        drop = upper[tie] + _U64(9)
        even = ((bits[tie] & _U64(3)) == _U64(1)) & ((bits[tie] << drop) == high[tie])
        bits[tie[even]] ^= _U64(1)
    bits += bits & _U64(1)
    bits >>= _U64(1)
    carry = bits >> _U64(53)  # rounded up to 2**53
    bits >>= carry
    power2 += carry.view(np.int64)
    bits &= _U64(2**52 - 1)
    bits |= power2.view(np.uint64) << _U64(52)
    if zero is not None:
        bits[zero] = 0
    return bits.view(np.float64).reshape(np.shape(mantissa))
