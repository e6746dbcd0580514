"""The exact decimal kernel against CPython's ``float()``, and the loader
that uses it against ``np.loadtxt``.

Every token the kernel takes must give ``float(token)`` bit for bit; every
text outside its grammar must be declined, and the loader's tensor or error
must then be the one the ``np.loadtxt`` path gives alone.
"""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import decimal_table_reference, load_csv_reference

from pufstat import dataset, parallel
from pufstat.dataset import LayoutSpec, load_readings, write_dataset
from pufstat.decimals import multiply_128, parse_tables
from pufstat.errors import PufStatError
from pufstat.geometry import GridGeometry
from pufstat.output import hash_input_files
from pufstat.syngen import generate, preset

# Ties, values next to 2**53 and 2**64, and the shortest forms.
EDGES = [
    "9007199254740993", "4503599627370497.5", "2.5", "0.5", "5.", ".5", "0", "0.0", "00",
    "9999999999999999999", "1844674407370955161", "1844674407370955.161",
    "18446744073709551.61", "9223372036854775807", "9223372036854775808",
    "0.000000000000000000001", "000000000000000000000001", "199.31141993973893",
    "1.7976931348623157", "2.2250738585072014", "4.9406564584124654",
]
_DECIMAL = re.compile(r"[0-9]*\.?[0-9]*")


def _in_grammar(token: str) -> bool:
    """Whether the kernel must take ``token``: digits with at most one ".",
    at least one digit, at most 24 bytes and 19 significant digits."""
    digits = token.replace(".", "")
    return (_DECIMAL.fullmatch(token) is not None and digits != "" and len(token) <= 24
            and len(digits.lstrip("0")) <= 19)


@st.composite
def printed_doubles(draw):
    """A random double printed as the writers and users print one."""
    value = draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(["repr", "17g", "f", "g"]))
    if form == "repr":
        return repr(value)
    if form == "17g":
        return "%.17g" % value
    if form == "f":
        return "%.*f" % (draw(st.integers(0, 19)), value)
    return "%.*g" % (draw(st.integers(1, 19)), value)


@st.composite
def digit_strings(draw):
    """Digits, leading zeros among them, with a "." anywhere or none."""
    digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=26))
    zeros = "0" * draw(st.integers(0, 6))
    text = zeros + digits
    at = draw(st.integers(0, len(text) + 1))
    return text if at > len(text) else text[:at] + "." + text[at:]


tokens = st.one_of(printed_doubles().filter(lambda text: "e" not in text), digit_strings(),
                   st.sampled_from(EDGES))


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=np.float64).tobytes()


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(tokens, min_size=1, max_size=24), width=st.integers(1, 4),
       sep=st.sampled_from([None, ",", ";"]), crlf=st.booleans())
def test_kernel_matches_float_bit_for_bit(cells, width, sep, crlf):
    cells = cells[:len(cells) // width * width] or cells[:1] * width
    lines = [cells[at:at + width] for at in range(0, len(cells), width)]
    text = "".join((sep or " ").join(line) + ("\r\n" if crlf else "\n") for line in lines)
    values = parse_tables([text.encode("ascii")], sep)
    if all(_in_grammar(token) for token in cells):
        assert values is not None, text
        assert _bits(values[0]) == _bits(decimal_table_reference(text, sep)), text
    else:
        assert values is None, text


@settings(max_examples=200, deadline=None)
@given(token=tokens)
def test_one_token_matches_float(token):
    parsed = parse_tables([(token + "\n").encode("ascii")])
    assert (parsed is not None) == _in_grammar(token)
    if parsed is not None:
        assert _bits(parsed) == _bits([[[float(token)]]])


words = st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1])
halves = st.integers(0, 2**32 - 1) | st.sampled_from([0, 2**32 - 1])


@settings(max_examples=300, deadline=None)
@given(a=st.lists(words, min_size=1, max_size=8), b_lo=halves, b_hi=halves)
def test_multiply_gives_the_exact_128_bit_product(a, b_lo, b_hi):
    # The parser's and the formatter's one product, against Python's.
    n = len(a)
    high, low = multiply_128(np.array(a, dtype=np.uint64), np.full(n, b_lo, dtype=np.uint64),
                             np.full(n, b_hi, dtype=np.uint64))
    b = b_hi << 32 | b_lo
    assert [h << 64 | w for h, w in zip(high.tolist(), low.tolist())] == [x * b for x in a]


def test_edge_tokens_and_many_random_ones():
    rng = np.random.default_rng(5)
    values = (rng.random(20000) * 10.0 ** rng.integers(-8, 12, 20000)).tolist()
    printed = EDGES + [repr(v) for v in values] + ["%.17g" % v for v in values if v >= 1e-4]
    printed = [token for token in printed if "e" not in token]
    parsed = parse_tables([("\n".join(printed) + "\n").encode("ascii")])
    assert _bits(parsed) == _bits([[[float(t)] for t in printed]])


# Texts outside the grammar, each a fault in one line of a device file.
_DECLINED = {
    "exponent": lambda line: line.replace(" ", " 1e2 ", 1),
    "sign": lambda line: "-" + line,
    "plus sign": lambda line: "+" + line,
    "comment": lambda line: line + " # note",
    "tab": lambda line: line.replace(" ", "\t", 1),
    "two spaces": lambda line: line.replace(" ", "  ", 1),
    "lone carriage return": lambda line: line.replace(" ", "\r", 1),
    "blank line": lambda line: line + "\n",
    "twenty digits": lambda line: "12345678901234567890 " + line.split(" ", 1)[1],
    "two dots": lambda line: line.replace(".", ".1.", 1),
    "lone dot": lambda line: ". " + line.split(" ", 1)[1],
    "underscore": lambda line: line.replace(".", "_", 1),
    "non-ASCII digit": lambda line: "１" + line,
    "non-ASCII byte": lambda line: line + "é",
    "nan": lambda line: "nan " + line.split(" ", 1)[1],
    "trailing space": lambda line: line + " ",
    "leading space": lambda line: " " + line,
}


def _outcome(root, layout):
    try:
        return load_readings(root, layout).values.tobytes()
    except PufStatError as exc:
        return type(exc), str(exc)


def _without_kernel(monkeypatch, root, layout):
    """What the loader gives when the kernel declines everything: the
    ``np.loadtxt`` path alone."""
    with monkeypatch.context() as patch:
        patch.setattr(dataset, "parse_tables", lambda blobs, sep: None)
        return _outcome(root, layout)


def _small_dataset(root):
    rng = np.random.default_rng(41)
    write_dataset(dataset.ReadingsTensor(200 + rng.random((3, 4, 3))), root, LayoutSpec())


@pytest.mark.parametrize("fault", sorted(_DECLINED))
def test_declined_text_loads_as_np_loadtxt_does(fault, tmp_path, monkeypatch):
    _small_dataset(tmp_path)
    path = tmp_path / "device_0001.txt"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = _DECLINED[fault](lines[1])
    path.write_bytes("\n".join(lines).encode("utf-8"))
    assert parse_tables([path.read_bytes()]) is None
    assert _outcome(tmp_path, LayoutSpec()) == _without_kernel(monkeypatch, tmp_path,
                                                               LayoutSpec())


@pytest.mark.parametrize("change", ["one line short", "one line long", "no last newline"])
def test_declined_file_shapes_load_as_np_loadtxt_does(change, tmp_path, monkeypatch):
    _small_dataset(tmp_path)
    path = tmp_path / "device_0002.txt"
    text = path.read_text(encoding="utf-8")
    if change == "one line short":
        text = text.split("\n", 1)[1]
    elif change == "one line long":
        text += text.split("\n", 1)[0] + "\n"
    else:
        text = text.rstrip("\n")
    path.write_text(text, encoding="utf-8")
    blobs = [p.read_bytes() for p in sorted(tmp_path.iterdir())]
    assert parse_tables(blobs) is None
    outcome = _outcome(tmp_path, LayoutSpec())
    assert outcome == _without_kernel(monkeypatch, tmp_path, LayoutSpec())
    assert (change == "no last newline") != isinstance(outcome, tuple)


@pytest.mark.parametrize("name", ["null", "spatial", "noisy"])
@pytest.mark.parametrize("layout_text", ["files", "files:rows=samples", "files:sep=,", "csv"])
@pytest.mark.parametrize("kernel_bytes", [1, dataset._KERNEL_BYTES])
def test_loaded_tensor_equals_np_loadtxt(name, layout_text, kernel_bytes, tmp_path,
                                         monkeypatch):
    # With a kernel call per file or per line, or one for them all.
    monkeypatch.setattr(dataset, "_KERNEL_BYTES", kernel_bytes)
    config = preset(name, seed=11, num_devices=6, num_ros=32, num_samples=3,
                    geometry=GridGeometry(4, 8, "col"))
    tensor = generate(config)[0]
    layout = LayoutSpec.parse(layout_text)
    write_dataset(tensor, tmp_path, layout)
    if layout.kind == "csv":
        path = tmp_path / "readings.csv"
        want = load_csv_reference(path)
        files = [path]
    else:
        path = tmp_path
        files = sorted(tmp_path.glob("device_*.txt"))
        tables = [np.loadtxt(f, delimiter=layout.delimiter, ndmin=2) for f in files]
        want = np.stack([t.T if layout.rows == "samples" else t for t in tables])
    loaded = load_readings(path, layout)
    assert loaded.values.tobytes() == want.tobytes()
    assert loaded.values.tobytes() == tensor.values.tobytes()
    # The digests taken while parsing are those of the files on disk, and
    # give the digest a second read gives.
    assert loaded.digests == tuple((f, hashlib.sha256(f.read_bytes()).hexdigest())
                                   for f in files)
    assert hash_input_files([], loaded.digests) == hash_input_files(files)


def test_device_files_are_parsed_in_groups_of_kernel_bytes(tmp_path, monkeypatch):
    # 400 small device files of 2,048 bytes each, loaded on one CPU so that
    # every share runs here: the first file is parsed alone, for the shape,
    # and the other 399 in groups of at most _KERNEL_BYTES, one kernel call
    # per group. A loader that called the kernel once per file would make
    # 400 calls.
    monkeypatch.setattr(parallel, "_cpus", lambda: 1)
    calls = []

    def counted(blobs, *args):
        calls.append(len(blobs))
        return parse_tables(blobs, *args)

    monkeypatch.setattr(dataset, "parse_tables", counted)
    num_files, size = 400, 2048
    for j in range(num_files):
        # 32 lines of 4 fixed-width tokens: 32 * (4 * 15 + 4) bytes.
        lines = (" ".join(f"{200 + (i + j) % 50:3d}.{i * 4 + t:011d}" for t in range(4))
                 for i in range(32))
        (tmp_path / f"device_{j:04d}.txt").write_text("".join(f"{line}\n" for line in lines))
        assert (tmp_path / f"device_{j:04d}.txt").stat().st_size == size
    loaded = load_readings(tmp_path)
    per_group = dataset._KERNEL_BYTES // size
    groups = -(-(num_files - 1) // per_group)
    assert calls == [1] + [per_group] * (groups - 1) + [num_files - 1 - per_group * (groups - 1)]
    assert len(calls) == 1 + groups < num_files // 50
    assert loaded.values[-1, 31, 3] == float(f"{200 + (31 + 399) % 50}.{31 * 4 + 3:011d}")
