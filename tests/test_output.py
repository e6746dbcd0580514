import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import format_rows_reference, write_dataset_reference

from pufstat import output
from pufstat.dataset import DeviceMeta, LayoutSpec, ReadingsTensor, write_dataset
from pufstat.output import ArtifactWriter, RunManifest, format_table

SPECIAL_FLOATS = [
    float("nan"), float("inf"), -float("inf"), 0.0, -0.0,
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    0.1, 1e16, 1e17, 123456789012345678.0,
]
floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))
# The row-wise path printed numpy integers through float(), which is exact
# only up to 2**53; artifact integer columns are indices and counts.
ints = st.integers(-(2**53), 2**53)
separators = st.text(alphabet=" ,;\t%sdx", min_size=1, max_size=4)


def _column(kind, n):
    """A numpy column of ``n`` values of one kind."""
    if kind == "float64":
        return st.lists(floats, min_size=n, max_size=n).map(np.array)
    if kind == "float32":
        return st.lists(st.floats(width=32), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float32))
    if kind == "int64":
        return st.lists(ints, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    if kind == "uint8":
        return st.lists(st.integers(0, 255), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.uint8))
    if kind == "bool":
        return st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    return st.lists(st.text(max_size=6), min_size=n, max_size=n).map(np.array)


KINDS = ["float64", "float32", "int64", "uint8", "bool", "str"]


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    return [draw(_column(kind, n)) for kind in kinds]


@settings(max_examples=300, deadline=None)
@given(tables(), separators, st.sampled_from(["\n", "\r\n"]))
def test_format_table_matches_row_wise_oracle(columns, sep, newline):
    rows = zip(*columns)  # numpy scalars, as the row-wise writers received them
    assert format_table(columns, sep, newline) == format_rows_reference(rows, sep, newline)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 500), st.sampled_from(["trend", "exact"]),
                          st.integers(-300, 300), floats), max_size=10))
def test_python_list_columns_match_oracle(cells):
    # Columns as cli passes them for attack.csv: Python lists.
    columns = [list(col) for col in zip(*cells)] or [[], [], [], []]
    assert format_table(columns, ",") == format_rows_reference(cells, ",")


def test_format_table_spans_chunks():
    n = 10_000  # several formatting chunks
    rng = np.random.default_rng(3)
    columns = [np.arange(n), rng.normal(size=n), rng.integers(0, 2, n).astype(bool)]
    assert format_table(columns, " ") == format_rows_reference(zip(*columns), " ")


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


def test_write_dat_blocks_and_empty_rows(tmp_path):
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    writer.write_dat("t.dat", "x y", [
        ("mode: a", [[1, 2], [0.5, 0.25]]),
        ("mode: b", [[], []]),
        (None, [[3], ["z"]]),
    ], "u")
    lines = (tmp_path / "t.dat").read_text().split("\n")
    assert lines[1:] == [
        "# units: u", "# columns: x y",
        "# mode: a", "1 0.5", "2 0.25",
        "", "# mode: b",
        "", "3 z", "",
    ]


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


# Rows that split into exactly 2, 3 and 4 parts at multiples of the
# 4096-row chunk, with a short last chunk.
PARALLEL_ROWS = 12 * 4096 + 5


def _parallel_table():
    rng = np.random.default_rng(4)
    return [np.arange(PARALLEL_ROWS), rng.normal(size=PARALLEL_ROWS) * 1e3,
            rng.integers(0, 2, PARALLEL_ROWS).astype(bool)]


def _force_parts(monkeypatch, parts):
    """Make every table of ``parts`` cells or more format in ``parts`` parts;
    return the list that records each fork."""
    monkeypatch.setattr(output, "_PART_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_parallel_format_matches_oracle(parts, monkeypatch, tmp_path):
    columns = _parallel_table()
    want = format_rows_reference(zip(*columns), " ")
    forks = _force_parts(monkeypatch, parts)
    assert format_table(columns, " ") == want
    assert len(forks) == parts - 1
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    writer.write_dat("t.dat", "i x b", [(None, columns)], "u")
    assert (tmp_path / "t.dat").read_text().split("\n", 3)[3] == want
    assert len(forks) == 2 * (parts - 1)


@pytest.mark.parametrize("how", ["raises", "killed"])
def test_failed_format_child_writes_nothing(how, monkeypatch, tmp_path):
    _force_parts(monkeypatch, 3)
    parent = os.getpid()
    real_format_rows = output._format_rows

    def format_rows(data, columns, row, start, stop):
        if os.getpid() != parent:
            if how == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("formatting failed in a child")
        real_format_rows(data, columns, row, start, stop)

    monkeypatch.setattr(output, "_format_rows", format_rows)
    writer = ArtifactWriter(tmp_path, RunManifest(version="0", subcommand="t", params={}))
    with pytest.raises(ChildProcessError, match="killed" if how == "killed" else "status 1"):
        writer.write_dat("t.dat", "i x b", [(None, _parallel_table())], "u")
    assert list(tmp_path.iterdir()) == []
    assert writer.manifest.artifacts == {}


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
