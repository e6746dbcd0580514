import contextlib
import io
import os
import re
import signal
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import force_parts
from oracles import load_csv_reference, load_metadata_reference, write_dataset_reference
from pufstat import dataset, output, parallel
from pufstat.cli import main
from pufstat.dataset import (
    CSV_HEADER,
    DeviceMeta,
    LayoutSpec,
    ReadingsTensor,
    dataset_files,
    device_file_name,
    load_metadata,
    load_readings,
    write_dataset,
    write_metadata,
)
from pufstat.errors import (
    ConfigurationError,
    ParseError,
    PufStatError,
    StructuralError,
    ValidationError,
)
from pufstat.matrices import build_matrices


@pytest.fixture
def tiny_tensor():
    rng = np.random.default_rng(77)
    values = rng.normal(200.0, 3.0, size=(5, 4, 6))
    return ReadingsTensor(values)


def test_files_round_trip(tiny_tensor, tmp_path):
    write_dataset(tiny_tensor, tmp_path)
    loaded = load_readings(tmp_path)
    assert np.array_equal(loaded.values, tiny_tensor.values)
    assert (loaded.num_devices, loaded.num_ros, loaded.num_samples) == (5, 4, 6)


def test_files_round_trip_rows_as_samples(tiny_tensor, tmp_path):
    layout = LayoutSpec(rows="samples")
    write_dataset(tiny_tensor, tmp_path, layout)
    loaded = load_readings(tmp_path, layout)
    assert np.array_equal(loaded.values, tiny_tensor.values)
    # The same directory read with the default orientation transposes shapes.
    other = load_readings(tmp_path)
    assert other.num_ros == tiny_tensor.num_samples


def test_csv_round_trip(tiny_tensor, tmp_path):
    layout = LayoutSpec.parse("csv")
    write_dataset(tiny_tensor, tmp_path, layout)
    loaded = load_readings(tmp_path / "readings.csv", layout)
    assert np.array_equal(loaded.values, tiny_tensor.values)


def test_metadata_round_trip(tmp_path):
    meta = DeviceMeta(np.asarray([101, 250, 260, 500]))
    write_metadata(meta, tmp_path / "serials.csv")
    loaded = load_metadata(tmp_path / "serials.csv", 4)
    assert np.array_equal(loaded.serials, meta.serials)


def test_ragged_device_file(tmp_path):
    (tmp_path / "device_0000.txt").write_text("1.0 2.0\n3.0 4.0\n")
    (tmp_path / "device_0001.txt").write_text("1.0 2.0\n3.0\n")
    with pytest.raises(StructuralError, match="device_0001.txt.*line 2"):
        load_readings(tmp_path)


def test_non_numeric_token(tmp_path):
    (tmp_path / "device_0000.txt").write_text("1.0 2.0\n3.0 oops\n")
    with pytest.raises(ParseError, match="oops"):
        load_readings(tmp_path)


def test_non_positive_frequency(tmp_path):
    (tmp_path / "device_0000.txt").write_text("1.0 2.0\n-3.0 4.0\n")
    with pytest.raises(ValidationError, match="non-positive"):
        load_readings(tmp_path)


def test_row_count_mismatch_names_device(tmp_path):
    (tmp_path / "device_0000.txt").write_text("1.0 2.0\n3.0 4.0\n")
    (tmp_path / "device_0001.txt").write_text("1.0 2.0\n")
    with pytest.raises(StructuralError, match="device_0001.txt"):
        load_readings(tmp_path)


def test_empty_directory(tmp_path):
    with pytest.raises(StructuralError, match="no files"):
        load_readings(tmp_path)


def test_missing_path_is_io_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_readings(tmp_path / "nope")


def test_csv_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("dev,ro,sample,mhz\n0,0,0,100.0\n")
    with pytest.raises(StructuralError, match="header"):
        load_readings(path, LayoutSpec.parse("csv"))


def test_csv_missing_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "device,ro,sample,freq_mhz\n0,0,0,100.0\n0,1,0,101.0\n1,0,0,99.0\n"
    )
    with pytest.raises(StructuralError, match="missing device 1, ro 1"):
        load_readings(path, LayoutSpec.parse("csv"))


def test_csv_duplicate_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("device,ro,sample,freq_mhz\n0,0,0,100.0\n0,0,0,100.5\n")
    with pytest.raises(StructuralError, match="duplicate"):
        load_readings(path, LayoutSpec.parse("csv"))


def _csv_rows(values) -> list[str]:
    return [f"{j},{i},{t},{float(v)!r}" for (j, i, t), v in np.ndenumerate(values)]


def test_csv_shuffled_and_ordered_load_the_same_tensor(tmp_path, monkeypatch):
    # Ordered input takes the direct check; shuffled input is sorted first.
    sorts = []
    real_sort_rows = dataset._sort_rows
    monkeypatch.setattr(dataset, "_sort_rows",
                        lambda keys: sorts.append(len(keys)) or real_sort_rows(keys))
    values = np.random.default_rng(4).uniform(90.0, 110.0, size=(5, 6, 3))
    rows = _csv_rows(values)
    shuffled = [rows[k] for k in np.random.default_rng(5).permutation(len(rows))]
    loaded = {}
    for name, body in [("ordered", rows), ("shuffled", shuffled)]:
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(["device,ro,sample,freq_mhz", *body]) + "\n")
        loaded[name] = load_readings(path, LayoutSpec.parse("csv")).values
        assert loaded[name].flags.c_contiguous
    assert loaded["ordered"].tobytes() == loaded["shuffled"].tobytes() == values.tobytes()
    assert sorts == [values.size]


@pytest.mark.parametrize("order", ["ordered", "shuffled"])
@pytest.mark.parametrize("fault, match", [
    ("drop", "^d.csv is missing device 1, ro 2, sample 1 \\(expected a dense 3x4x2 cube\\)$"),
    ("repeat", "^duplicate reading for device 1, ro 2, sample 1 in d.csv$"),
    ("replace", "^duplicate reading for device 0, ro 0, sample 0 in d.csv$"),
])
def test_csv_cell_errors_do_not_depend_on_order(tmp_path, order, fault, match):
    # A dropped cell, a repeated one, and one that repeats another in place of
    # its own (so that the row count still fits the cube).
    rows = _csv_rows(np.full((3, 4, 2), 100.0))
    k = 1 * 8 + 2 * 2 + 1
    if fault == "drop":
        del rows[k]
    elif fault == "repeat":
        rows.append(rows[k])
    else:
        rows[k] = rows[0]
    if order == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(6).permutation(len(rows))]
    path = tmp_path / "d.csv"
    path.write_text("\n".join(["device,ro,sample,freq_mhz", *rows]) + "\n")
    with pytest.raises(StructuralError, match=match):
        load_readings(path, LayoutSpec.parse("csv"))


def test_csv_parse_error_names_line(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("device,ro,sample,freq_mhz\n0,0,zero,100.0\n")
    with pytest.raises(ParseError, match="line 2"):
        load_readings(path, LayoutSpec.parse("csv"))


def test_metadata_requires_full_cover(tmp_path):
    path = tmp_path / "serials.csv"
    path.write_text("device,serial\n0,100\n2,300\n")
    with pytest.raises(StructuralError, match="missing \\[1\\]"):
        load_metadata(path, 3)


def test_metadata_duplicate_device(tmp_path):
    path = tmp_path / "serials.csv"
    path.write_text("device,serial\n0,100\n0,101\n")
    with pytest.raises(StructuralError, match="duplicate"):
        load_metadata(path)


def test_tensor_validation():
    with pytest.raises(ValidationError, match="non-finite"):
        ReadingsTensor(np.full((1, 2, 1), np.nan))
    with pytest.raises(ValidationError, match="non-positive"):
        ReadingsTensor(np.zeros((1, 2, 1)))
    with pytest.raises(StructuralError):
        ReadingsTensor(np.ones((2, 2)))
    # Raw readings are valid whatever the pairing; build_matrices checks it.
    assert ReadingsTensor(np.ones((1, 3, 1))).num_ros == 3


# Readings the tensor refuses: non-finite, zero of either sign, or negative.
bad_readings = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]) | st.floats(
    max_value=0.0, exclude_max=True, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tensor_names_its_first_bad_reading(data):
    shape = data.draw(st.tuples(*[st.integers(1, 3)] * 3))
    values = data.draw(arrays(np.float64, shape, elements=st.floats(
        min_value=0.0, exclude_min=True, allow_infinity=False)))
    for cell in data.draw(st.lists(st.tuples(*[st.integers(0, n - 1) for n in shape]),
                                   max_size=4)):
        values[cell] = data.draw(bad_readings)
    # The oracle: the first bad cell in (device, ro, sample) order.
    bad = [cell for cell in np.ndindex(shape)
           if not (np.isfinite(values[cell]) and values[cell] > 0.0)]
    if not bad:
        assert np.array_equal(ReadingsTensor(values).values, values)
        return
    (j, i, t), value = bad[0], float(values[bad[0]])
    fault = (f"non-positive frequency {value!r} MHz" if np.isfinite(value)
             else "non-finite reading")
    with pytest.raises(ValidationError) as raised:
        ReadingsTensor(values)
    assert str(raised.value) == f"{fault} at device {j}, ro {i}, sample {t}"


def test_tensor_is_immutable(tiny_tensor):
    with pytest.raises(ValueError):
        tiny_tensor.values[0, 0, 0] = 5.0


def test_layout_parse_variants():
    layout = LayoutSpec.parse("files:rows=samples:pattern=*.dat")
    assert layout.rows == "samples"
    assert layout.pattern == "*.dat"
    assert LayoutSpec.parse("csv").kind == "csv"
    assert LayoutSpec.parse("files:sep=,").delimiter == ","
    with pytest.raises(ConfigurationError):
        LayoutSpec.parse("tarball")
    with pytest.raises(ConfigurationError):
        LayoutSpec.parse("files:rows=columns")
    with pytest.raises(ConfigurationError):
        LayoutSpec.parse("files:badopt")
    for sep in ("xy", "#", "", "\n", ".", "5", "e", "-"):
        with pytest.raises(ConfigurationError, match="separator"):
            LayoutSpec.parse(f"files:sep={sep}")
    round_tripped = LayoutSpec.parse(layout.describe())
    assert round_tripped == layout


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["files", "csv"]), rows=st.sampled_from(["ros", "samples"]),
       delimiter=st.none() | st.sampled_from(":,;= \t") | st.characters(),
       pattern=st.just("*.txt")
       | st.text(st.sampled_from("*?[]:=.ab") | st.characters(), max_size=8))
@example(kind="csv", rows="ros", delimiter=None, pattern="*.txt")
def test_every_accepted_layout_reads_back(kind, rows, delimiter, pattern):
    # csv takes no option, which it would ignore; ``:`` separates a
    # descriptor's options, so a spec may not hold one; every other spec
    # parses back from the descriptor its manifests record.
    def spec():
        return LayoutSpec(kind=kind, rows=rows, delimiter=delimiter, pattern=pattern)

    if kind == "csv" and (rows, delimiter, pattern) != ("ros", None, "*.txt"):
        with pytest.raises(ConfigurationError, match="does not apply to csv"):
            spec()
        return
    if delimiter == ":" or ":" in pattern:
        with pytest.raises(ConfigurationError, match="':'"):
            spec()
        return
    try:
        layout = spec()
    except ConfigurationError:
        assert delimiter in dataset._BAD_SEPARATOR
        return
    assert LayoutSpec.parse(layout.describe()) == layout


def test_device_order_is_lexicographic(tmp_path):
    (tmp_path / "b.txt").write_text("2.0\n2.0\n")
    (tmp_path / "a.txt").write_text("1.0\n1.0\n")
    loaded = load_readings(tmp_path)
    assert loaded.values[0, 0, 0] == 1.0
    assert loaded.values[1, 0, 0] == 2.0
    assert [p.name for p in dataset_files(tmp_path, LayoutSpec())] == ["a.txt", "b.txt"]


def test_empty_device_files_are_structural_without_warnings(tmp_path):
    (tmp_path / "device_0000.txt").write_text("# only a comment\n\n")
    (tmp_path / "device_0001.txt").write_text("")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StructuralError, match="device_0000.txt contains no readings"):
            load_readings(tmp_path)
    assert caught == []


@pytest.mark.parametrize("body, error, match", [
    ("99999999999999999999,0,0,100.0\n", ParseError, "data.csv line 2, field 1"),
    ("0,0,9223372036854775808,100.0\n", ParseError, "data.csv line 2, field 3"),
    ("1000000000000,0,0,100.0\n", StructuralError,
     "missing device 0, ro 0, sample 0 \\(expected a dense 1000000000001x1x1 cube\\)"),
    ("0,0,0,100.0\n1.0,0,0,100.0\n", ParseError, "data.csv line 3, field 1: '1.0'"),
    ("0,0,0,100.0\n0,1.5,0,100.0\n", ParseError, "data.csv line 3, field 2: '1.5'"),
    ('"0","0","0","100.0"\n', ParseError, "data.csv line 2, field 1"),
    ("1_0,0,0,100.0\n", ParseError, "data.csv line 2, field 1: '1_0'"),
    ("0,0,0,100.0\n \n", StructuralError, "data.csv line 3 has 1 fields, expected 4"),
    ("0,0,0,100.0,\n", StructuralError, "data.csv line 2 has 5 fields, expected 4"),
    ("\n", StructuralError, "data.csv contains a header but no readings"),
])
def test_csv_faults_name_the_line(tmp_path, body, error, match):
    path = tmp_path / "data.csv"
    path.write_text("device,ro,sample,freq_mhz\n" + body)
    with pytest.raises(error, match=match):
        load_readings(path, LayoutSpec.parse("csv"))


def test_invalid_utf8_is_parse_error(tmp_path):
    (tmp_path / "device_0000.txt").write_bytes(b"1.0 2.0\n3.0 \xff\n")
    with pytest.raises(ParseError, match="device_0000.txt line 2, field 2"):
        load_readings(tmp_path)


def test_invalid_utf8_in_a_comment_names_its_line(tmp_path):
    (tmp_path / "device_0000.txt").write_bytes(b"1.0 2.0 # caf\xe9\n3.0 4.0\n")
    with pytest.raises(ParseError, match="^device_0000.txt line 1 is not valid UTF-8$"):
        load_readings(tmp_path)


def test_csv_duplicate_is_first_repeat_in_file_order(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("device,ro,sample,freq_mhz\n1,1,0,1.0\n0,0,0,1.0\n0,0,0,1.0\n1,1,0,1.0\n")
    with pytest.raises(StructuralError, match="device 0, ro 0, sample 0"):
        load_readings(path, LayoutSpec.parse("csv"))


@pytest.mark.parametrize("body, error, match", [
    ("0,99999999999999999999\n", ParseError, "serials.csv line 2, field 2"),
    ("0,100\n1000000000000,7\n", StructuralError, "unexpected \\[1000000000000\\]"),
    ("0,100\n-1,7\n", StructuralError, "missing \\[1\\], unexpected \\[-1\\]"),
    ("0,1e3\n", ParseError, "serials.csv line 2, field 2: '1e3'"),
    ("", StructuralError, "serials.csv contains a header but no readings"),
])
def test_metadata_faults(tmp_path, body, error, match):
    path = tmp_path / "serials.csv"
    path.write_text("device,serial\n" + body)
    with pytest.raises(error, match=match):
        load_metadata(path, 2)


def test_empty_csv_files(tmp_path):
    (tmp_path / "serials.csv").write_text("")
    with pytest.raises(StructuralError, match="serials.csv is empty"):
        load_metadata(tmp_path / "serials.csv")
    (tmp_path / "data.csv").write_text("")
    with pytest.raises(StructuralError, match="data.csv is empty"):
        load_readings(tmp_path / "data.csv", LayoutSpec.parse("csv"))


# Property tests: the loaders against the csv.reader oracles, write/load round
# trips, and malformed input through the command line.

_FREQS = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
_SERIALS = st.integers(int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))


@st.composite
def _tensors(draw):
    shape = (draw(st.integers(1, 4)), 2 * draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    return draw(arrays(np.float64, shape, elements=_FREQS))


@settings(max_examples=60, deadline=None)
@given(values=_tensors(), data=st.data(),
       layout=st.sampled_from(["files", "files:rows=samples", "files:sep=,",
                               "files:rows=samples:sep=;", "files:sep=\t", "csv"]))
def test_write_load_round_trip_is_exact(values, data, layout):
    spec = LayoutSpec.parse(layout)
    serials = np.asarray(data.draw(st.lists(_SERIALS, min_size=len(values),
                                            max_size=len(values))), dtype=np.int64)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(ReadingsTensor(values), tmp, spec, DeviceMeta(serials))
        loaded = load_readings(Path(tmp) / "readings.csv" if spec.kind == "csv" else tmp, spec)
        meta = load_metadata(Path(tmp) / "serials.csv", len(values))
    assert loaded.values.tobytes() == values.tobytes()
    assert np.array_equal(meta.serials, serials)


def test_million_row_csv_loads_in_bounded_memory(tmp_path):
    # 1000 devices x 100 ROs x 10 samples: 1M CSV rows, a 27 MB file and a
    # 7.6 MiB tensor. The loader held about 120 bytes per row at its peak.
    values = np.random.default_rng(5).normal(200.0, 2.0, size=(1000, 100, 10))
    spec = LayoutSpec.parse("csv")
    write_dataset(ReadingsTensor(values), tmp_path, spec)
    tracemalloc.start()
    try:
        loaded = load_readings(tmp_path / "readings.csv", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 192 * values.size, f"{peak / values.size:.0f} bytes per row"
    assert loaded.values.tobytes() == values.tobytes()


@settings(max_examples=30, deadline=None)
@given(values=_tensors())
def test_layouts_give_equal_matrices(values):
    tensor = ReadingsTensor(values)
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(tensor, Path(tmp) / "files")
        write_dataset(tensor, Path(tmp) / "csv", LayoutSpec.parse("csv"))
        from_files = build_matrices(load_readings(Path(tmp) / "files"))
        from_csv = build_matrices(load_readings(Path(tmp) / "csv" / "readings.csv",
                                                LayoutSpec.parse("csv")))
    for name in ("freq", "dev", "diff", "bits"):
        assert getattr(from_files, name).tobytes() == getattr(from_csv, name).tobytes(), name


# Tokens on which csv.reader with int()/float() and np.loadtxt agree; the ones
# on which they differ (quotes, underscores, int64 overflow, lines of spaces)
# have their own tests above.
_TOKENS = ["", "x", "1.5", "1.0", "nan", "inf", "-inf", "-1", "1e3", " 2 ", "+0",
           "0x1", "--1", "1 2", "7", "0"]


@st.composite
def _malformed_lines(draw, lines: list[str]) -> str:
    """``lines`` (a header, then data lines) with at most one fault, as text."""
    lines = list(lines)
    body = range(1, len(lines))
    kind = draw(st.sampled_from(["none", "crlf", "blank", "drop", "repeat", "field",
                                 "truncate", "extra", "header", "bom", "comment"]))
    k = draw(st.sampled_from(body))
    if kind == "blank":
        lines.insert(k, "")
    elif kind == "drop":
        del lines[k]
    elif kind == "repeat":
        lines.insert(draw(st.sampled_from(body)), lines[k])
    elif kind == "field":
        fields = lines[k].split(",")
        fields[draw(st.sampled_from(range(len(fields))))] = draw(st.sampled_from(_TOKENS))
        lines[k] = ",".join(fields)
    elif kind == "truncate":
        lines[k] = lines[k][:draw(st.integers(0, len(lines[k]) - 1))]
    elif kind == "extra":
        lines[k] += ",1"
    elif kind == "header":
        lines[0] = draw(st.sampled_from(["dev" + lines[0][6:], lines[0].rsplit(",", 1)[0]]))
    elif kind == "bom":
        lines[0] = "\ufeff" + lines[0]
    elif kind == "comment":
        lines.insert(k, "# note")
    return ("\r\n" if kind == "crlf" else "\n").join(lines) + "\n"


def _outcome(load):
    try:
        return None, load()
    except PufStatError as exc:
        return exc, None


def _assert_same_outcome(new, old):
    (new_exc, new_value), (old_exc, old_value) = new, old
    assert type(new_exc) is type(old_exc), (new_exc, old_exc)
    if old_exc is None:
        assert new_value.tobytes() == old_value.tobytes()
    elif isinstance(old_exc, ParseError):
        # The oracle names the line; the reader adds the field.
        assert re.search(r"line \d+", str(old_exc))[0] + "," in str(new_exc)
    else:
        assert str(new_exc) == str(old_exc)


@st.composite
def _readings_csv(draw):
    shape = (draw(st.integers(1, 3)), 2 * draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    cells = draw(st.permutations(list(np.ndindex(shape))))
    freqs = draw(st.lists(_FREQS, min_size=len(cells), max_size=len(cells)))
    return draw(_malformed_lines(
        [",".join(CSV_HEADER)] + [f"{j},{i},{t},{f!r}" for (j, i, t), f in zip(cells, freqs)]
    ))


@settings(max_examples=300, deadline=None)
@given(text=_readings_csv())
def test_csv_loader_matches_oracle(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "readings.csv"
        path.write_bytes(text.encode("utf-8"))
        new = _outcome(lambda: load_readings(path, LayoutSpec.parse("csv")).values)
        old = _outcome(lambda: ReadingsTensor(load_csv_reference(path)).values)
    _assert_same_outcome(new, old)


@st.composite
def _metadata_csv(draw):
    devices = draw(st.permutations(range(draw(st.integers(2, 5)))))
    serials = draw(st.lists(_SERIALS, min_size=len(devices), max_size=len(devices)))
    text = draw(_malformed_lines(
        ["device,serial"] + [f"{j},{s}" for j, s in zip(devices, serials)]
    ))
    return text, len(devices)


@settings(max_examples=300, deadline=None)
@given(case=_metadata_csv())
def test_metadata_loader_matches_oracle(case):
    text, num_devices = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "serials.csv"
        path.write_bytes(text.encode("utf-8"))
        new = _outcome(lambda: load_metadata(path, num_devices).serials)
        old = _outcome(lambda: load_metadata_reference(path, num_devices))
    _assert_same_outcome(new, old)


def _edit_line(edit):
    """A fault that applies ``edit(fields, draw)`` to one data line of a file,
    never to the header of a CSV."""
    def fault(lines, sep, draw):
        k = draw(st.integers(int(sep == ","), len(lines) - 1))
        fields = lines[k].split(sep)
        edit(fields, draw)
        lines[k] = sep.join(fields)
        return lines
    return fault


def _set_field(value, columns=None):
    def edit(fields, draw):
        fields[draw(st.sampled_from(columns or range(len(fields))))] = value
    return _edit_line(edit)


def _prefix_bom(lines, sep, draw):
    return ["\ufeff" + lines[0], *lines[1:]]


# Malformed inputs for the command line: (file, layouts, fault, category). The
# file is "data" (a device file or readings.csv) or "meta" (serials.csv); a
# fault maps the file's lines, its separator and a draw to new lines; category
# None means exit 0.
_CLI_CASES = {
    "truncated line": ("data", ("files", "csv"), _edit_line(lambda f, draw: f.pop()),
                       "structural"),
    "nan": ("data", ("files",), _set_field("nan"), "validation"),
    "inf": ("data", ("csv",), _set_field("-inf", [3]), "validation"),
    "bom in a device file": ("data", ("files",), _prefix_bom, "parse"),
    "bom in a csv header": ("data", ("csv",), _prefix_bom, "structural"),
    "crlf": ("data", ("files", "csv"), lambda lines, sep, draw: ["\r\n".join(lines)], None),
    "blank lines": ("data", ("files", "csv"),
                    lambda lines, sep, draw: [lines[0], "", *lines[1:], "", ""], None),
    "empty file": ("data", ("files", "csv"), lambda lines, sep, draw: [], "structural"),
    "duplicate cell": ("data", ("csv",), lambda lines, sep, draw: lines + lines[-1:],
                       "structural"),
    "missing cell": ("data", ("csv",), lambda lines, sep, draw: lines[:-1], "structural"),
    "non-integral index": ("data", ("csv",), _set_field("1.5", range(3)), "parse"),
    "integral float index": ("data", ("csv",), _set_field("1.0", range(3)), "parse"),
    "overflowing index": ("data", ("csv",), _set_field("99999999999999999999", range(3)),
                          "parse"),
    "far device index": ("data", ("csv",), _set_field("1000000000000", [0]), "structural"),
    "negative index": ("data", ("csv",), _set_field("-1", range(3)), "validation"),
    "bad token": ("data", ("files",), _set_field("1.0.0"), "parse"),
    "duplicate device": ("meta", ("files", "csv"), lambda lines, sep, draw: lines + lines[-1:],
                         "structural"),
    "missing device": ("meta", ("files", "csv"), lambda lines, sep, draw: lines[:-1],
                       "structural"),
    "overflowing serial": ("meta", ("files", "csv"), _set_field("99999999999999999999", [1]),
                           "parse"),
    "non-integral serial": ("meta", ("files", "csv"), _set_field("1.5", [1]), "parse"),
}


@settings(max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(_CLI_CASES)), data=st.data())
def test_malformed_input_exits_with_its_category(name, data):
    target, layouts, fault, category = _CLI_CASES[name]
    layout = data.draw(st.sampled_from(layouts))
    tensor = ReadingsTensor(np.arange(1.0, 25.0).reshape(2, 4, 3))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "dataset"
        write_dataset(tensor, root, LayoutSpec.parse(layout), DeviceMeta(np.arange(2)))
        dataset = root / "readings.csv" if layout == "csv" else root
        if target == "meta":
            path = root / "serials.csv"
        elif layout == "csv":
            path = dataset
        else:
            path = root / data.draw(st.sampled_from(["device_0000.txt", "device_0001.txt"]))
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = fault(lines, "," if path.suffix == ".csv" else " ", data.draw)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["ingest", "--dataset", str(dataset), "--layout", layout,
                         "--meta", str(root / "serials.csv"), "--out", str(Path(tmp) / "out")])
    err = err.getvalue()
    assert "Traceback" not in err
    if category is None:
        assert code == 0, err
    else:
        assert code == 1, err
        assert f"pufstat: {category} error:" in err
        if category != "validation":
            assert path.name in err


@pytest.mark.parametrize("sep", ["xy", "#", ""])
def test_unreadable_separator_exits_1(tmp_path, capsys, sep):
    # np.loadtxt cannot split on these, so neither stage may accept them, and
    # synth must not write a dataset nothing can read back.
    write_dataset(ReadingsTensor(np.arange(1.0, 25.0).reshape(2, 4, 3)), tmp_path / "dataset")
    layout = f"files:sep={sep}"
    assert main(["ingest", "--dataset", str(tmp_path / "dataset"), "--layout", layout,
                 "--out", str(tmp_path / "ingest")]) == 1
    assert main(["synth", "--seed", "1", "--devices", "4", "--ros", "8", "--samples", "2",
                 "--geometry", "2x4:col", "--layout", layout,
                 "--out", str(tmp_path / "synth")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("pufstat: configuration error: layout separator") for line in err)
    assert not (tmp_path / "synth").exists()


# The parallel files loader: shares of device files parsed by forked children
# must give the serial tensor, or the serial error, for any part count.


def _force_shares(monkeypatch, parts):
    """Make every files load run in ``parts`` shares, or one per file if
    fewer; return the list that records each fork."""
    return force_parts(monkeypatch, dataset, "_PART_BYTES", parts)


def _ingest(root, layout, out):
    """Exit code and stderr of one ingest of ``root``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["ingest", "--dataset", str(root), "--layout", layout,
                     "--meta", str(root / "serials.csv"), "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(n for n, case in _CLI_CASES.items() if "files" in case[1])),
       parts=st.integers(1, 4), data=st.data())
def test_parallel_load_fails_as_serial(name, parts, data):
    # Every malformed-files case of the command line, on a dataset of six
    # device files: the exit code, the message and the artifacts match the
    # serial load's.
    target, _, fault, _ = _CLI_CASES[name]
    tensor = ReadingsTensor(np.arange(1.0, 73.0).reshape(6, 4, 3))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        root = tmp / "dataset"
        write_dataset(tensor, root, LayoutSpec(), DeviceMeta(np.arange(6)))
        if target == "meta":
            path = root / "serials.csv"
        else:
            path = root / device_file_name(data.draw(st.integers(0, 5)), 6)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = fault(lines, "," if path.suffix == ".csv" else " ", data.draw)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8", newline="")
        serial = _ingest(root, "files", tmp / "serial")
        with pytest.MonkeyPatch.context() as patch:
            _force_shares(patch, parts)
            assert _ingest(root, "files", tmp / "parallel") == serial
        if serial[0] == 0:
            names = sorted(p.name for p in (tmp / "serial").iterdir())
            assert sorted(p.name for p in (tmp / "parallel").iterdir()) == names
            for name in names:
                assert (tmp / "parallel" / name).read_bytes() == (tmp / "serial" / name).read_bytes()


def _equal_width_values(rng):
    """Readings of twelve devices whose files all have the same size, so
    that three shares hold four files each."""
    return ReadingsTensor(rng.integers(100, 1000, size=(12, 4, 3)).astype(float))


def _load_outcome(root, layout):
    try:
        values = load_readings(root, layout).values
    except PufStatError as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes()


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")


def _drop_line(lines):
    return lines[:-1]


def _bad_token(lines):
    return [lines[0].replace(" ", " 1.0.0 ", 1), *lines[1:]]


# Faults in twelve device files that load in three shares, files 0-3, 4-7
# and 8-11: (layout, [(file, edit)], the error a serial load raises).
_SHARE_FAULTS = {
    "parse fault in the last part": ("files", [(11, _bad_token)], ParseError),
    "shape fault on the first file of part 2": ("files", [(4, _drop_line)], StructuralError),
    "shape fault on the first file of part 3": ("files", [(8, _drop_line)], StructuralError),
    "parse fault after a shape fault in one child's share":
        ("files", [(4, _drop_line), (5, _bad_token)], StructuralError),
    "shape faults in two children's shares":
        ("files", [(9, _drop_line), (5, _drop_line)], StructuralError),
    "rows=samples and sep=;": ("files:rows=samples:sep=;", [], None),
    "rows=samples and sep=; with a parse fault":
        ("files:rows=samples:sep=;", [(5, lambda lines: [lines[0] + ";x", *lines[1:]])],
         ParseError),
}


@pytest.mark.parametrize("case", sorted(_SHARE_FAULTS))
def test_parallel_load_matches_serial_at_share_edges(case, tmp_path, monkeypatch):
    layout_text, faults, error = _SHARE_FAULTS[case]
    layout = LayoutSpec.parse(layout_text)
    write_dataset(_equal_width_values(np.random.default_rng(98)), tmp_path, layout)
    paths = sorted(tmp_path.iterdir())
    with monkeypatch.context() as patch:
        _force_shares(patch, 3)
        assert parallel._cut([p.stat().st_size for p in paths], dataset._PART_BYTES) == [0, 4, 8, 12]
    for index, edit in faults:
        _rewrite(paths[index], edit)
    serial = _load_outcome(tmp_path, layout)
    forks = _force_shares(monkeypatch, 3)
    assert _load_outcome(tmp_path, layout) == serial
    assert len(forks) == 2
    if error is None:
        assert serial[0] == (12, 4, 3)
    else:
        assert serial[0] is error
        assert paths[min(index for index, _ in faults)].name in serial[1]


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_parallel_load_forks_and_parses_only_its_own_share(parts, tmp_path, monkeypatch):
    # The fallback would hide a child path that always fails, so count the
    # forks and the files this process parses.
    rng = np.random.default_rng(99)
    write_dataset(_equal_width_values(rng), tmp_path)
    serial = load_readings(tmp_path).values
    forks = _force_shares(monkeypatch, parts)
    parsed = _record_parent_reads(monkeypatch)
    assert load_readings(tmp_path).values.tobytes() == serial.tobytes()
    assert len(forks) == parts - 1
    share = 12 // parts
    assert parsed == [device_file_name(j, 12) for j in range(share)]


def _record_parent_reads(monkeypatch, child=None):
    """Record the files this process reads to parse, at ``_read_bytes``,
    where every load reads each file once; ``child(os.getpid())`` runs
    first in a forked child."""
    parent = os.getpid()
    real_read_bytes = dataset._read_bytes
    parsed = []

    def read_bytes(path):
        if os.getpid() == parent:
            parsed.append(path.name)
        elif child is not None:
            child(os.getpid())
        return real_read_bytes(path)

    monkeypatch.setattr(dataset, "_read_bytes", read_bytes)
    return parsed


@pytest.mark.parametrize("how", ["raises", "killed", "killed mid-stream"])
def test_failed_load_child_is_redone(how, tmp_path, monkeypatch):
    parent = os.getpid()
    real_write = os.write

    def fail(pid):
        if how == "killed":
            os.kill(pid, signal.SIGKILL)
        raise RuntimeError("parsing failed in a child")

    def write(fd, data):
        # Half the share reaches the pipe before the child dies.
        if os.getpid() != parent:
            real_write(fd, data[:len(data) // 2])
            os.kill(os.getpid(), signal.SIGKILL)
        return real_write(fd, data)

    write_dataset(_equal_width_values(np.random.default_rng(100)), tmp_path)
    serial = load_readings(tmp_path).values
    forks = _force_shares(monkeypatch, 3)
    if how == "killed mid-stream":
        monkeypatch.setattr(os, "write", write)
    parsed = _record_parent_reads(monkeypatch, None if how == "killed mid-stream" else fail)
    assert load_readings(tmp_path).values.tobytes() == serial.tobytes()
    assert len(forks) == 2
    # Each share is parsed here, in order, the children's after their failure.
    assert parsed == [device_file_name(j, 12) for j in range(12)]


def test_failed_fork_runs_its_share_here(tmp_path, monkeypatch):
    # The second fork fails: the first child's share still comes from it,
    # and the third share is parsed here after it.
    write_dataset(_equal_width_values(np.random.default_rng(101)), tmp_path)
    serial = load_readings(tmp_path).values
    forks = _force_shares(monkeypatch, 3)
    counting_fork = os.fork

    def fork():
        if forks:
            raise BlockingIOError("Resource temporarily unavailable")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork)
    parsed = _record_parent_reads(monkeypatch)
    assert load_readings(tmp_path).values.tobytes() == serial.tobytes()
    assert len(forks) == 1
    assert parsed == [device_file_name(j, 12) for j in (*range(4), *range(8, 12))]


# The parallel files writer: shares of devices written by forked children
# must leave the serial files, or raise the serial error, for any part count.


def _force_write_shares(monkeypatch, parts):
    """Make every files write run in ``parts`` shares, or one per device if
    fewer; return the list that records each fork."""
    return force_parts(monkeypatch, dataset, "_WRITE_CELLS", parts)


def _assert_tree(root, want):
    """The files under ``root`` are those under ``want``, byte for byte."""
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in root.iterdir()) == names
    for name in names:
        assert (root / name).read_bytes() == (want / name).read_bytes(), name


def _log_writes(monkeypatch, log, child=None):
    """Log ``pid name`` to ``log`` for every file written; in a forked child,
    ``child(path, data)`` writes instead, when given."""
    parent = os.getpid()
    real_write_bytes = Path.write_bytes

    def write_bytes(self, data):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {self.name}\n")
        if child is not None and os.getpid() != parent:
            return child(self, data)
        return real_write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)
    return parent


def _writers(log):
    """The files each process wrote, by pid, in the order it wrote them."""
    writers = {}
    for line in log.read_text().splitlines():
        pid, name = line.split()
        writers.setdefault(int(pid), []).append(name)
    return writers


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("layout,devices", [
    ("files", 7), ("files:rows=samples", 7), ("files:sep=;", 7), ("files", 1), ("files", 2),
])
def test_parallel_write_matches_oracle(layout, devices, parts, tmp_path, monkeypatch):
    spec = LayoutSpec.parse(layout)
    values = np.random.default_rng(devices).uniform(90.0, 110.0, size=(devices, 6, 3))
    serials = np.arange(devices) * 7 + 3
    write_dataset_reference(values, tmp_path / "slow", "files", spec.rows, spec.delimiter,
                            serials)
    forks = _force_write_shares(monkeypatch, parts)
    write_dataset(ReadingsTensor(values), tmp_path / "fast", spec, DeviceMeta(serials))
    assert len(forks) == min(parts, devices) - 1
    _assert_tree(tmp_path / "fast", tmp_path / "slow")


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_parallel_write_forks_and_writes_only_its_own_share(parts, tmp_path, monkeypatch):
    # The fallback would hide a child path that always fails, so count the
    # forks and the files each process writes.
    values = _equal_width_values(np.random.default_rng(102))
    write_dataset(values, tmp_path / "serial")
    forks = _force_write_shares(monkeypatch, parts)
    parent = _log_writes(monkeypatch, tmp_path / "writes.log")
    write_dataset(values, tmp_path / "parallel")
    assert len(forks) == parts - 1
    _assert_tree(tmp_path / "parallel", tmp_path / "serial")
    writers = _writers(tmp_path / "writes.log")
    assert len(writers) == parts
    share = 12 // parts
    assert writers.pop(parent) == [device_file_name(j, 12) for j in range(share)]
    assert sorted(writers.values()) == [[device_file_name(j, 12) for j in range(lo, lo + share)]
                                        for lo in range(share, 12, share)]


@pytest.mark.parametrize("how", ["raises", "killed", "killed mid-file"])
def test_failed_write_child_is_redone(how, tmp_path, monkeypatch):
    # Each child fails at its first file; its share is written again here,
    # over the half file a child killed mid-file left.
    values = _equal_width_values(np.random.default_rng(103))
    write_dataset(values, tmp_path / "serial")

    def fail(path, data):
        if how == "killed mid-file":
            with open(path, "wb") as fh:
                fh.write(data[:len(data) // 2])
        if how != "raises":
            os.kill(os.getpid(), signal.SIGKILL)
        raise OSError("writing failed in a child")

    forks = _force_write_shares(monkeypatch, 3)
    parent = _log_writes(monkeypatch, tmp_path / "writes.log", fail)
    write_dataset(values, tmp_path / "parallel")
    assert len(forks) == 2
    _assert_tree(tmp_path / "parallel", tmp_path / "serial")
    writers = _writers(tmp_path / "writes.log")
    assert writers.pop(parent) == [device_file_name(j, 12) for j in range(12)]
    assert sorted(writers.values()) == [[device_file_name(4, 12)], [device_file_name(8, 12)]]


def test_parallel_write_raises_the_serial_error(tmp_path, monkeypatch):
    # Two device files in two children's shares cannot be written: the
    # first in device order is the error, as in a serial write.
    values = _equal_width_values(np.random.default_rng(104))

    def outcome(root):
        for j in (9, 5):
            (root / device_file_name(j, 12)).mkdir(parents=True)
        with pytest.raises(OSError) as excinfo:
            write_dataset(values, root)
        return type(excinfo.value), str(excinfo.value).replace(str(root), "ROOT")

    serial = outcome(tmp_path / "serial")
    assert device_file_name(5, 12) in serial[1]
    forks = _force_write_shares(monkeypatch, 3)
    assert outcome(tmp_path / "parallel") == serial
    assert len(forks) == 2


def test_parallel_write_nests_only_large_files(tmp_path, monkeypatch):
    # A share of a write formats each of its files by append_table, which
    # splits only a table of at least 2 * output._PART_CELLS cells: files of
    # 16 x 8200 cells written in three shares fork twice in all, and one
    # file written alone not at all. Files split as tables of their own
    # inside the write's shares come out the same.
    values = np.random.default_rng(105).uniform(90.0, 110.0, size=(3, 16, 8200))
    layout = LayoutSpec(rows="samples")
    write_dataset_reference(values, tmp_path / "slow", rows="samples")
    forks = _force_write_shares(monkeypatch, 3)
    write_dataset(ReadingsTensor(values), tmp_path / "fast", layout)
    assert len(forks) == 2
    _assert_tree(tmp_path / "fast", tmp_path / "slow")
    write_dataset(ReadingsTensor(values[:1]), tmp_path / "one", layout)
    assert len(forks) == 2
    assert (tmp_path / "one" / "device_0000.txt").read_bytes() == \
        (tmp_path / "slow" / "device_0000.txt").read_bytes()
    monkeypatch.setattr(output, "_PART_CELLS", 1)
    write_dataset(ReadingsTensor(values), tmp_path / "nested", layout)
    # The write's two shares, and two more for the file this process writes.
    assert len(forks) == 6
    _assert_tree(tmp_path / "nested", tmp_path / "slow")


def test_synth_refuses_to_mix_datasets(tmp_path, capsys):
    # A second synth of fewer devices into the same --out would leave the
    # first one's last device files to be read with its own.
    out = tmp_path / "synth"
    base = ["synth", "--seed", "1", "--ros", "16", "--samples", "2", "--geometry", "4x4:col", "--out", str(out)]
    assert main(base + ["--devices", "12"]) == 0
    (out / "dataset" / "notes.md").write_text("not a device file\n")
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(base + ["--devices", "8", "--seed", "8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pufstat: configuration error: ")
    assert "holds device_0008.txt, which is not one of the 8 device files" in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    # The same shape again, from another seed, replaces the dataset.
    assert main(base + ["--devices", "12", "--seed", "8"]) == 0
    assert load_readings(out / "dataset").num_devices == 12
    assert (out / "dataset" / "notes.md").exists()


def test_synth_refuses_a_pattern_its_files_do_not_match(tmp_path, capsys):
    # synth names device files device_NNNN.txt; a layout whose pattern does
    # not match them would write a dataset that the same layout cannot read.
    out = tmp_path / "synth"
    argv = ["synth", "--seed", "1", "--devices", "4", "--ros", "16", "--samples", "2",
            "--geometry", "4x4:col", "--out", str(out)]
    capsys.readouterr()
    assert main(argv + ["--layout", "files:pattern=*.dat"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("pufstat: configuration error: ")
    assert "pattern '*.dat' does not match the device file device_0000.txt" in err
    assert not (out / "dataset").exists() or not any((out / "dataset").iterdir())
    assert main(argv + ["--layout", "files:pattern=device_*.txt"]) == 0
    assert load_readings(out / "dataset", LayoutSpec.parse("files:pattern=device_*.txt")) \
        .num_devices == 4
