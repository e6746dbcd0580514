import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import force_parts
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (codec_tables_reference, fmt_num_reference, format_rows_reference,
                     write_dataset_reference)

from pufstat import decimals, output
from pufstat.dataset import DeviceMeta, LayoutSpec, ReadingsTensor, write_dataset
from pufstat.output import ArtifactWriter, RunManifest, format_table

SPECIAL_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    0.1, 1e16, 1e17, 123456789012345678.0, 1e-4, 1e-5, 9.9999999999999995e-5,
]
floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))
ints = st.integers(-(2**63), 2**63 - 1)
separators = st.text(alphabet=" ,;\t%sdx\0→", min_size=1, max_size=4)


def _column(kind, n):
    """A numpy column of ``n`` values of one kind."""
    if kind == "float64":
        return st.lists(floats, min_size=n, max_size=n).map(np.array)
    if kind == "float32":
        return st.lists(st.floats(width=32), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float32))
    if kind == "int64":
        return st.lists(ints, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    if kind == "uint64":
        return st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.uint64))
    if kind == "uint8":
        return st.lists(st.integers(0, 255), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.uint8))
    if kind == "bool":
        return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    return st.lists(st.text(max_size=6), min_size=n, max_size=n).map(np.array)


KINDS = ["float64", "float32", "int64", "uint64", "uint8", "bool", "str"]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    return [draw(_column(kind, n)) for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(tables(), separators, st.sampled_from(["\n", "\r\n", "\0"]))
def test_format_table_matches_row_wise_oracle(columns, sep, newline):
    with np.errstate(all="raise"):
        assert format_table(columns, sep, newline) == format_rows_reference(columns, sep, newline)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.sampled_from(["trend", "exact"]),
                          st.integers(-300, 300), floats), max_size=10))
def test_python_list_columns_match_oracle(cells):
    # Columns as cli passes them for attack.csv: Python lists.
    columns = [list(col) for col in zip(*cells)] or [[], [], [], []]
    assert format_table(columns, ",") == format_rows_reference(columns, ",")


def _cells(values) -> list[str]:
    """One column formatted by format_table, cell by cell."""
    with np.errstate(all="raise"):
        return format_table([values]).split("\n")[:-1]


def _want(values) -> list[str]:
    """The oracle's cells of one column, from its ``tolist()`` scalars."""
    return [fmt_num_reference(v) for v in np.asarray(values).tolist()]


@pytest.mark.parametrize("name, want", codec_tables_reference().items())
def test_codec_tables_equal_their_byte_string_definitions(name, want):
    module, table = name.split(".")
    got = getattr({"decimals": decimals, "output": output}[module], table)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_float_cells_match_random_bit_patterns():
    # Doubles of every kind: subnormals, NaN payloads of either sign, inf,
    # and normals of every exponent.
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False)
    # Exponents the fast path takes, by the mantissa of another draw.
    near = (rng.integers(990, 1080, 50_000).astype(np.uint64) << np.uint64(52)) | (
        bits >> np.uint64(12))
    specials = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFFFFFFFFFFFFFFF, 0x8000000000000000, 1, 0x000FFFFFFFFFFFFF],
                        dtype=np.uint64)
    values = np.concatenate([bits, near, specials]).view(np.float64)
    assert _cells(values) == _want(values)


def _ties():
    """Doubles whose exact decimal value has 18 significant digits, the
    last a 5: %.17g rounds each half to even."""
    found = []
    for shift in range(1, 70):
        for odd in range(1, 400, 2):
            exact = odd * 5**shift  # the digits of odd * 2**-shift
            if len(str(exact)) == 18 and odd < 2**53:
                found.append(odd / 2**shift)
    return found


def test_float_cells_at_boundaries():
    # Powers of ten and up to two ulps either side of them.
    powers = 10.0 ** np.arange(-30, 31)
    around = np.concatenate([
        np.nextafter(p, direction)
        for p in (powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf))
        for direction in (0, np.inf)
    ])
    edges = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 9.9999999999999998e16,
                      99999999999999999.0, 0.00099999999999999999, 2.0**53, 2.0**53 + 2,
                      2.0**-1022, 1e-11, 1e-12, 9.99999999999999e-12])
    ties = np.array(_ties())
    assert len(ties) > 50
    values = np.concatenate([powers, around, edges, ties, -ties])
    assert _cells(values) == _want(values)
    assert _cells(values.astype(np.float32)) == _want(values.astype(np.float32))


def test_int_and_bool_cells_at_extremes():
    info64, infou = np.iinfo(np.int64), np.iinfo(np.uint64)
    signed = np.array([info64.min, info64.min + 1, -1, 0, 1, 9999, 10_000, -10_000,
                       10**16 - 1, 10**16, -(10**18), info64.max], dtype=np.int64)
    unsigned = np.array([0, 1, 9999, 10**19 - 1, 10**19, 2**63, infou.max], dtype=np.uint64)
    assert _cells(signed) == _want(signed)
    assert _cells(unsigned) == _want(unsigned)
    assert _cells(np.array([True, False])) == ["1", "0"]
    small = np.array([-128, 0, 127], dtype=np.int8)
    assert _cells(small) == ["-128", "0", "127"]


def test_str_cells_and_separators():
    texts = np.array(["", "a\0b", "naïve", "→x", "%d", "plain"])
    numbers = np.arange(len(texts))
    for sep in [" ", "%", "\0", "→·", ", "]:
        for newline in ["\n", "\r\n"]:
            columns = [numbers, texts, numbers * 0.5]
            assert format_table(columns, sep, newline) == format_rows_reference(
                columns, sep, newline)


def test_adjacent_columns_of_a_kind_format_together(monkeypatch):
    # One kernel call per run of columns of one kind in each chunk, and no
    # call with more than a chunk's cells.
    calls = []
    for kind, kernel in list(output._CELLS.items()):
        monkeypatch.setitem(output._CELLS, kind, lambda values, kind=kind, kernel=kernel: (
            calls.append((kind, values.size)), kernel(values))[1])
    matrix = np.random.default_rng(5).normal(size=(2001, 32))
    columns = [np.arange(2001), *matrix.T, np.arange(2001) % 2 == 0]
    monkeypatch.setattr(output, "_PART_CELLS", 2**40)  # one part: the calls are seen here
    assert format_table(columns, ",") == format_rows_reference(columns, ",")
    chunks = -(-2001 // output._chunk_rows(len(columns)))
    assert [kind for kind, _ in calls] == ["i", "f", "i"] * chunks
    assert max(size for _, size in calls) <= output._CHUNK_CELLS


def test_format_table_spans_chunks():
    n = 10_000  # several formatting chunks
    rng = np.random.default_rng(3)
    columns = [np.arange(n), rng.normal(size=n), rng.integers(0, 2, n).astype(bool)]
    assert format_table(columns, " ") == format_rows_reference(columns, " ")


def test_format_table_rejects_bad_columns():
    with pytest.raises(ValueError):
        format_table([])
    with pytest.raises(ValueError):
        format_table([np.arange(3), np.arange(4)])
    with pytest.raises(ValueError):
        format_table([np.zeros((2, 2))])
    with pytest.raises(ValueError, match="numeric or str"):
        format_table([[0.5, None]])  # None among numbers: an object column
    with pytest.raises(ValueError, match="numeric or str"):
        format_table([np.array([1 + 2j])])


def test_manifest_hash_covers_every_field_but_the_artifacts():
    base = RunManifest(version="0", subcommand="t", params={})
    changed = {"version": "1", "subcommand": "u", "params": {"k": 1}, "dataset": "d",
               "layout": "csv", "meta": "m.csv", "geometry": "4x8:col", "seed": 0,
               "input_sha256": "00" * 32, "artifacts": {"a.csv": "00" * 32}}
    assert set(changed) == {f.name for f in dataclasses.fields(RunManifest)}
    for name, value in changed.items():
        other = dataclasses.replace(base, **{name: value})
        assert (other.hash == base.hash) == (name == "artifacts"), name


def test_write_dat_blocks_and_empty_rows(tmp_path):
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    writer.write_dat("t.dat", "x y", [[1, 2, 3], [0.5, 0.25, 4.0]], "u",
                     [("mode: a", 2), ("mode: b", 0), (None, 1)])
    lines = (tmp_path / "t.dat").read_text().split("\n")
    assert lines[1:] == [
        "# units: u", "# columns: x y",
        "# mode: a", "1 0.5", "2 0.25",
        "", "# mode: b",
        "", "3 4", "",
    ]


def _dat_body(tmp_path, columns, blocks=None) -> str:
    """What ``write_dat`` writes below its three header lines."""
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    writer.write_dat("t.dat", "h", columns, "u", blocks)
    return (tmp_path / "t.dat").read_bytes().decode("utf-8").split("\n", 3)[3]


def _dat_reference(columns, blocks) -> str:
    """The table's slices one block at a time, each row by
    ``format_rows_reference``."""
    cuts = np.cumsum([0, *(count for _, count in blocks)])
    return "\n".join((f"# {comment}\n" if comment else "")
                     + format_rows_reference([np.asarray(col)[lo:hi] for col in columns], " ")
                     for (comment, _), lo, hi in zip(blocks, cuts, cuts[1:]))


# Column kinds of a table cut into blocks. A table of more than one block
# takes no str column.
BLOCK_SIGNATURES = [
    ("int64", "int64", "float64"),
    ("uint8", "bool", "float32"),
    ("int64", "float64"),
    ("uint64", "float64"),
]


@st.composite
def dat_tables(draw):
    """A table of one signature, and blocks of row counts that cover it."""
    counts = draw(st.lists(st.integers(0, 5), max_size=6))
    columns = [draw(_column(kind, sum(counts)))
               for kind in draw(st.sampled_from(BLOCK_SIGNATURES))]
    comments = st.one_of(st.none(), st.just(""), st.text(alphabet="ab: ", max_size=6))
    return columns, [(draw(comments), count) for count in counts]


@settings(max_examples=200, deadline=None)
@given(dat_tables())
def test_write_dat_blocks_match_per_block_oracle(table):
    # Comments and empty blocks: the bytes of formatting the table's slices
    # block by block.
    columns, blocks = table
    with tempfile.TemporaryDirectory() as tmp:
        assert _dat_body(Path(tmp), columns, blocks) == _dat_reference(columns, blocks)


def test_write_dat_formats_blocks_of_one_kind_in_one_pass(monkeypatch, tmp_path):
    # A loading_pc*.dat shape: 32 blocks of 16 rows, (x, y, loading), with
    # empty blocks and comments among them.
    calls = []
    for kind, kernel in list(output._CELLS.items()):
        monkeypatch.setitem(output._CELLS, kind, lambda values, kind=kind, kernel=kernel: (
            calls.append(kind), kernel(values))[1])
    grid = np.random.default_rng(8).normal(size=(16, 32))
    x, y = np.divmod(np.arange(grid.size), 16)
    columns = [x, y, grid.ravel(order="F")]
    blocks = [(f"x: {col}" if col % 5 == 0 else None, 16) for col in range(32)]
    blocks[3:3] = [("none here", 0)]
    blocks.append((None, 0))
    assert _dat_body(tmp_path, columns, blocks) == _dat_reference(columns, blocks)
    assert calls == ["i", "f"]
    # A str column, whose cells may hold a newline, is refused in a table
    # of more than one block before any cell is formatted, and written as
    # it is in a table of one.
    calls.clear()
    for strings in ([y[:2], y[:2].astype(str)], [np.array(["a\nb", "c"])]):
        with pytest.raises(ValueError, match="str column"):
            _dat_body(tmp_path, strings, [(None, 1), ("d", 1)])
    assert calls == []
    assert _dat_body(tmp_path, [np.array(["a\nb", "c"])]) == "a\nb\nc\n"
    assert calls == ["U"]


def test_write_dat_checks_every_block(tmp_path):
    # Bad columns, a str column in more than one block, and row counts that
    # do not cover the table: each refused before any file is written.
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    numbers = [[1, 2], [2.0, 3.0]]
    for columns, blocks in [
        ([np.array([], dtype=object)], None),
        ([np.array([], dtype=object)], [(None, 0), (None, 0)]),
        ([[1], [1.0, 2.0]], None),
        ([], None),
        ([[1, 2], ["a", "b"]], [(None, 1), (None, 1)]),
        (numbers, [(None, 1)]),
        (numbers, [(None, 1), (None, 2)]),
        (numbers, [("a", 3), ("b", -1)]),
        (numbers, []),
    ]:
        with pytest.raises(ValueError):
            writer.write_dat("t.dat", "h", columns, "u", blocks)
    assert list(tmp_path.iterdir()) == []


positive = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True),
    st.sampled_from([5e-324, 1e308, 1.7976931348623157e308, 196.5, 0.1]),
)


@st.composite
def tensors(draw):
    shape = (draw(st.integers(1, 3)), draw(st.sampled_from([2, 4])), draw(st.integers(1, 3)))
    values = draw(st.lists(positive, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(values).reshape(shape)


layouts = st.one_of(
    st.just(("csv", "ros", None)),
    st.tuples(st.just("files"), st.sampled_from(["ros", "samples"]),
              st.one_of(st.none(), st.sampled_from(" ,;\t%sdx"))),
)


@settings(max_examples=60, deadline=None)
@given(tensors(), layouts, st.data())
def test_write_dataset_matches_oracle(values, layout, data):
    kind, rows, delimiter = layout
    serials = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1),
                                 min_size=len(values), max_size=len(values)))
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = Path(tmp) / "fast", Path(tmp) / "slow"
        write_dataset(ReadingsTensor(values), fast, LayoutSpec(kind, rows, delimiter),
                      meta=DeviceMeta(np.array(serials, dtype=np.int64)))
        write_dataset_reference(values, slow, kind, rows, delimiter, serials)
        names = sorted(p.name for p in slow.iterdir())
        assert sorted(p.name for p in fast.iterdir()) == names
        for name in names:
            assert (fast / name).read_bytes() == (slow / name).read_bytes(), name


# Rows of a three-column table per formatting chunk, and rows that split
# into exactly 2, 3 and 4 parts at multiples of it, with a short last chunk.
CHUNK_ROWS = output._chunk_rows(3)
PARALLEL_ROWS = 12 * CHUNK_ROWS + 5


def _parallel_table():
    rng = np.random.default_rng(4)
    return [np.arange(PARALLEL_ROWS), rng.normal(size=PARALLEL_ROWS) * 1e3,
            rng.integers(0, 2, PARALLEL_ROWS).astype(bool)]


def _force_parts(monkeypatch, parts):
    """Make every table of ``parts`` cells or more format in ``parts`` parts;
    return the list that records each fork."""
    return force_parts(monkeypatch, output, "_PART_CELLS", parts)


def _record_parent_rows(monkeypatch, child=None):
    """Record the row ranges this process formats; ``child(os.getpid())``
    runs first in each forked child."""
    parent = os.getpid()
    real_format_rows = output._format_rows
    rows = []

    def format_rows(data, table, start, stop):
        if os.getpid() == parent:
            rows.append((start, stop))
        elif child is not None:
            child(os.getpid())
        real_format_rows(data, table, start, stop)

    monkeypatch.setattr(output, "_format_rows", format_rows)
    return rows


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_parallel_format_matches_oracle(parts, monkeypatch, tmp_path):
    columns = _parallel_table()
    want = format_rows_reference(columns, " ")
    forks = _force_parts(monkeypatch, parts)
    rows = _record_parent_rows(monkeypatch)
    assert format_table(columns, " ") == want
    assert len(forks) == parts - 1
    # This process formats only the first share: whole chunks, up to the
    # first that reaches 1/parts of the rows.
    first = CHUNK_ROWS * -(-PARALLEL_ROWS // (parts * CHUNK_ROWS))
    assert rows == [(0, min(first, PARALLEL_ROWS))]
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    writer.write_dat("t.dat", "i x b", columns, "u")
    assert (tmp_path / "t.dat").read_text().split("\n", 3)[3] == want
    assert len(forks) == 2 * (parts - 1)


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_format_child_is_redone(how, monkeypatch, tmp_path):
    # A part whose child fails is formatted again here; the artifact is the
    # serial one and no .tmp file is left.
    def fail(pid):
        if how == "killed":
            os.kill(pid, signal.SIGKILL)
        raise RuntimeError("formatting failed in a child")

    forks = _force_parts(monkeypatch, 3)
    rows = _record_parent_rows(monkeypatch, fail)
    columns = _parallel_table()
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    writer.write_dat("t.dat", "i x b", columns, "u")
    assert len(forks) == 2
    # Shares of 5, 4 and 4 chunks: the first ends where a third of the cells is reached.
    assert rows == [(0, 5 * CHUNK_ROWS), (5 * CHUNK_ROWS, 9 * CHUNK_ROWS),
                    (9 * CHUNK_ROWS, PARALLEL_ROWS)]
    assert [p.name for p in tmp_path.iterdir()] == ["t.dat"]
    text = (tmp_path / "t.dat").read_text()
    assert text.split("\n", 3)[3] == format_rows_reference(columns, " ")
    assert writer.manifest.artifacts == {"t.dat": output.sha256_bytes(text.encode("utf-8"))}


def test_format_child_does_not_flush_parent_stdout(tmp_path):
    # stdout to a pipe is block-buffered: text printed before the fork is
    # still in the parent's buffer, and a child that flushed its copy of
    # that buffer would print it twice.
    script = (
        "import os\n"
        "import numpy as np\n"
        "from pufstat import output\n"
        "output._PART_CELLS = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "print('before', end=' ')\n"
        f"text = output.format_table([np.arange({PARALLEL_ROWS})])\n"
        "print(len(text.splitlines()), 'after')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(output.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"before {PARALLEL_ROWS} after\n"
