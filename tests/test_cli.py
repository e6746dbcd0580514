import gc
import hashlib
import json
import os
import re
import runpy
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pufstat.cli
from oracles import format_rows_reference, report_payload_reference
from pufstat.cli import REPORT_OPTIONAL, REPORT_REQUIRED, main, run_chain
from pufstat.covfit import (DEFAULT_TARGETS, auto_fixed_counts, check_trend_magnitude,
                            choose_targets, evaluate_attack)
from pufstat.dataset import DeviceMeta, LayoutSpec, ReadingsTensor, load_readings, write_dataset
from pufstat.errors import ConfigurationError, InsufficientSampleError
from pufstat.matrices import build_matrices, pack_bits, unpack_bits
from pufstat.geometry import GridGeometry
from pufstat.output import hash_input_files
from pufstat.pca import loading_map, pc_key_correlation, pca, standardize
from pufstat.similarity import DEFAULT_GROUP_SIZES, check_group_size, group_variance_map
from pufstat.syngen import check_count


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    """A synthetic dataset generated through the CLI itself."""
    out = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--seed", "7", "--preset", "spatial",
        "--devices", "40", "--ros", "64", "--samples", "3",
        "--geometry", "8x8:col", "--out", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def dataset_args(synth_out):
    dataset = synth_out / "dataset"
    return ["--dataset", str(dataset), "--layout", "files",
            "--meta", str(dataset / "serials.csv")]


def test_synth_wrote_dataset_and_truth(synth_out):
    dataset = synth_out / "dataset"
    files = sorted(p.name for p in dataset.glob("*.txt"))
    assert len(files) == 40
    assert files[0] == "device_0000.txt"
    assert (dataset / "serials.csv").is_file()
    truth = json.loads((synth_out / "ground_truth.json").read_text())
    assert truth["config"]["seed"] == 7
    assert len(truth["serials"]) == 40
    assert (synth_out / "synth_manifest.json").is_file()


def test_synth_is_deterministic_and_fully_listed(tmp_path):
    # The benchmark's set-up check: two synth runs give byte-identical
    # trees, and synth_manifest.json lists and digests every file beside it.
    argv = ["synth", "--seed", "5", "--preset", "spatial", "--devices", "9", "--ros", "16",
            "--samples", "2", "--geometry", "4x4:col"]
    trees = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(argv + ["--out", str(out)]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
        listed = json.loads((out / "synth_manifest.json").read_text())["artifacts"]
        beside = {p.name for p in out.iterdir() if p.is_file()} - {"synth_manifest.json"}
        assert set(listed) == beside == {"ground_truth.json", "ground_truth_local.npy",
                                         "ground_truth_true_freq.npy"}
        for name, digest in listed.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    assert trees[0] == trees[1]
    assert len(trees[0]) == 9 + 5


def test_full_chain_exit_codes_and_artifacts(synth_out, dataset_args, tmp_path):
    out = tmp_path / "chain"
    base = dataset_args + ["--out", str(out)]

    assert main(["ingest"] + base) == 0
    for name in ("freq.csv", "dev.csv", "diff.csv", "bits.csv", "bits.bin",
                 "ingest_manifest.json"):
        assert (out / name).is_file(), name

    assert main(["normality"] + base) == 0
    for m in ("freq", "dev", "diff"):
        assert (out / f"normality_{m}.csv").is_file()
        summary = json.loads((out / f"normality_{m}_summary.json").read_text())
        assert summary["rows"] > 0
        assert 0.0 <= summary["reject_fraction"] <= 1.0
        assert summary["quantile_50"] <= summary["quantile_90"] <= summary["max"]

    assert main(["entropy"] + base) == 0
    entropy = json.loads((out / "entropy.json").read_text())
    assert 0.0 < entropy["entropy_binary_bits"] <= entropy["num_pairs"]
    assert (out / "bias.csv").is_file()
    assert (out / "bias_hist.dat").is_file()

    assert main(["correlate"] + base) == 0
    assert (out / "coco_D.dat").is_file()
    assert (out / "coco_B.dat").is_file()
    correlate = json.loads((out / "correlate.json").read_text())
    assert set(correlate) >= {"dev", "diff"}

    assert main(["similarity"] + base) == 0
    assert (out / "group_variance.dat").is_file()
    corr_lines = [
        ln for ln in (out / "serial_corr.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert corr_lines[0] == "group_size,corr"
    assert len(corr_lines) == 4
    similarity = json.loads((out / "similarity.json").read_text())
    assert [e["group_size"] for e in similarity["serial_correlation"]] == list(DEFAULT_GROUP_SIZES)

    assert main(["attack", "--seed", "3", "--devices", "3",
                 "--fixed-counts", "0,8,32", "--mode", "both"] + base) == 0
    attack_lines = [
        ln for ln in (out / "attack.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert attack_lines[0] == ("device,mode,fixed_count,delta_correct,objective,iterations,"
                               "stop_reason,start_objective")
    assert len(attack_lines) == 1 + 3 * 2 * 3
    for row in (ln.split(",") for ln in attack_lines[1:]):
        assert float(row[4]) <= float(row[7])  # objective <= start_objective
        if row[2] in ("0", "32"):  # nothing or everything pinned: no step, no delta
            assert (row[3], row[5], row[6]) == ("0", "0", "stationary start")
    envelope = (out / "attack_envelope.dat").read_text()
    assert "# mode: trend" in envelope and "# mode: exact" in envelope
    summary = json.loads((out / "attack_summary.json").read_text())
    assert {e["mode"] for e in summary["envelope"]} == {"trend", "exact"}

    assert main(["pca", "--geometry", "8x8:col", "--pcs", "2"] + base) == 0
    assert (out / "pca_fractions.csv").is_file()
    assert (out / "loading_pc1.dat").is_file()
    assert (out / "loading_pc2.dat").is_file()
    assert (out / "scores_hist_pc1.dat").is_file()
    trunc = [
        ln for ln in (out / "trunc_agreement.csv").read_text().splitlines()
        if not ln.startswith("#")
    ]
    assert trunc[0] == "r,agreement"
    last_rank, last_agreement = trunc[-1].split(",")
    assert int(last_rank) == 40
    assert float(last_agreement) == 1.0

    assert main(["report", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["normality"]) == {"freq", "dev", "diff"}
    assert report["entropy"]["num_pairs"] == 32
    assert any(e["mode"] == "exact" for e in report["attack"]["envelope"])
    assert len(report["pca"]["variance_fractions"]) == 40
    assert "similarity" in report
    assert "correlation_profiles" in report


def test_bits_bin_matches_library_packing(synth_out, dataset_args, tmp_path):
    out = tmp_path / "bits"
    assert main(["ingest"] + dataset_args + ["--out", str(out)]) == 0
    readings = load_readings(synth_out / "dataset", LayoutSpec())
    matrices = build_matrices(readings)
    packed = (out / "bits.bin").read_bytes()
    assert packed == pack_bits(matrices.bits)
    assert np.array_equal(
        unpack_bits(packed, matrices.num_pairs, matrices.num_devices),
        matrices.bits,
    )


def test_repeated_runs_are_byte_identical(dataset_args, tmp_path):
    out1, out2 = tmp_path / "one", tmp_path / "two"
    for out in (out1, out2):
        assert main(["ingest"] + dataset_args + ["--out", str(out)]) == 0
        assert main(["pca", "--geometry", "8x8:col", "--pcs", "1", "--trunc-ranks", "1,2"]
                    + dataset_args + ["--out", str(out)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    # The sweep runs the ranks given, and the manifest records that list.
    manifest = json.loads((out1 / "pca_manifest.json").read_text())
    assert manifest["params"]["trunc_ranks"] == [1, 2]
    rows = (out1 / "trunc_agreement.csv").read_text().splitlines()[3:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["normality"])  # --dataset is required
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_missing_dataset_exits_3(tmp_path, capsys):
    code = main(["normality", "--dataset", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_analysis_error_exits_1(synth_out, tmp_path, monkeypatch, capsys):
    # similarity without --meta: serial_correlation refuses it before the
    # window map is computed.
    monkeypatch.setattr(pufstat.cli, "group_variance_map", None)
    code = main(["similarity", "--dataset", str(synth_out / "dataset"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "pufstat: unavailable-analysis error: serial-number metadata is required\n"


def test_report_missing_inputs_exits_1(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path / "empty")])
    assert code == 1
    err = capsys.readouterr().err
    assert "entropy.json" in err
    assert "attack_summary.json" in err
    assert "pca_summary.json" in err


@pytest.fixture(scope="module")
def report_inputs(dataset_args, tmp_path_factory):
    """The outputs of every stage that report reads, from one small run."""
    out = tmp_path_factory.mktemp("report-inputs")
    for argv in (["normality"], ["similarity"], ["entropy"], ["correlate"],
                 ["attack", "--seed", "3", "--devices", "2", "--fixed-counts", "0,8"],
                 ["pca", "--geometry", "8x8:col", "--pcs", "1"]):
        assert main(argv + dataset_args + ["--out", str(out)]) == 0
    return out


def _report_on_edited_copy(report_inputs, tmp_path, name, edit):
    out = tmp_path / "out"
    shutil.copytree(report_inputs, out)
    path = out / name
    path.write_text(edit(path.read_text()))
    code = main(["report", "--out", str(out)])
    assert not (out / "report.json").exists()
    return code


@pytest.mark.parametrize("edit, category", [
    (lambda text: text[: len(text) // 2], "parse"),
    (lambda text: "[]\n", "structural"),
], ids=["truncated", "not-an-object"])
@pytest.mark.parametrize("name", REPORT_REQUIRED + REPORT_OPTIONAL)
def test_report_malformed_input_exits_1(name, edit, category, report_inputs, tmp_path,
                                        capsys):
    assert _report_on_edited_copy(report_inputs, tmp_path, name, edit) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"pufstat: {category} error: ")
    assert name in err


def test_report_refuses_summaries_from_different_datasets(report_inputs, tmp_path,
                                                         capsys):
    other = tmp_path / "other"
    assert main(["synth", "--seed", "2", "--devices", "30", "--ros", "64", "--samples", "3",
                 "--geometry", "8x8:col", "--out", str(other)]) == 0
    out = tmp_path / "out"
    shutil.copytree(report_inputs, out)
    assert main(["entropy", "--dataset", str(other / "dataset"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("pufstat: structural error: ")
    assert "entropy_manifest.json" in err
    assert "--dataset/--layout/--meta" in err


def test_report_requires_stage_manifests(report_inputs, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(report_inputs, out)
    (out / "pca_manifest.json").unlink()
    assert main(["report", "--out", str(out)]) == 1
    assert "pca_manifest.json" in capsys.readouterr().err


def test_report_reads_an_optional_section_only_where_its_stage_ran(report_inputs, tmp_path,
                                                                    capsys):
    # correlate ran and similarity did not: report.json has the one section
    # and not the other, and correlate's manifest must agree on the input.
    out = tmp_path / "out"
    shutil.copytree(report_inputs, out)
    for name in json.loads((out / "similarity_manifest.json").read_text())["artifacts"]:
        (out / name).unlink()
    (out / "similarity_manifest.json").unlink()
    assert main(["report", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    correlate = json.loads((out / "correlate.json").read_text())
    del correlate["manifest_hash"]
    assert "similarity" not in report
    assert report["correlation_profiles"] == correlate
    read = [out / name for name in REPORT_REQUIRED + ("correlate.json",)]
    manifest = json.loads((out / "report_manifest.json").read_text())
    assert manifest["input_sha256"] == hash_input_files(read)

    path = out / "correlate_manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), "input_sha256": "0" * 64}))
    (out / "report.json").unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    assert not (out / "report.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("pufstat: structural error: ")
    assert "correlate_manifest.json record different input_sha256" in err


@pytest.mark.parametrize("name, key", [
    ("attack_summary.json", "envelope"),
    ("pca_summary.json", "variance_fractions"),
    ("pca_summary.json", "truncated_agreement"),
    ("similarity.json", "serial_correlation"),
])
def test_report_summary_missing_key_exits_1(name, key, report_inputs, tmp_path, capsys):
    def drop_key(text):
        data = json.loads(text)
        del data[key]
        return json.dumps(data)

    assert _report_on_edited_copy(report_inputs, tmp_path, name, drop_key) == 1
    err = capsys.readouterr().err
    assert err.startswith("pufstat: structural error: ")
    assert f"{name}: missing key {key!r}" in err


def test_out_dir_from_environment(synth_out, dataset_args, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("PUFSTAT_OUT", str(target))
    args = [a for a in dataset_args]
    assert main(["entropy"] + args) == 0
    assert (target / "entropy.json").is_file()


def test_entropy_band_on_unbiased_synthetic(tmp_path):
    out = tmp_path / "null"
    assert main(["synth", "--seed", "7", "--preset", "null",
                 "--devices", "128", "--ros", "128",
                 "--geometry", "8x16:col", "--out", str(out)]) == 0
    assert main(["entropy", "--dataset", str(out / "dataset"),
                 "--out", str(out)]) == 0
    entropy = json.loads((out / "entropy.json").read_text())
    num_pairs = entropy["num_pairs"]
    assert num_pairs == 64
    # Unbiased pairs at J=128: per-bit entropy deficit about 1/(2 ln2 J).
    assert num_pairs - 1.5 < entropy["entropy_binary_bits"] <= num_pairs


def test_console_entry_point_runs():
    exe = shutil.which("pufstat")
    assert exe, "pufstat console script is not installed"
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("pufstat ")


def test_attack_exits_1_on_failed_covariance_check(dataset_args, tmp_path, monkeypatch,
                                                   capsys):
    # The check runs once per target and its failure ends the run.
    monkeypatch.setattr(pufstat.covfit, "covariance_matrix",
                        lambda train: -np.eye(train.shape[0]))
    out = tmp_path / "bad-cov"
    assert main(["attack", "--seed", "3", "--devices", "2", "--fixed-counts", "0,8,32",
                 "--mode", "both", "--out", str(out)] + dataset_args) == 1
    assert capsys.readouterr().err.splitlines() == [
        "pufstat: configuration error: "
        "covariance matrix is not positive semidefinite (eigmin -1)"]
    assert not (out / "attack.csv").exists()


def test_attack_select_random_runs_the_library_selection(synth_out, dataset_args, tmp_path):
    out = tmp_path / "random"
    assert main(["attack", "--seed", "3", "--device-indices", "2,5", "--fixed-counts", "0,8,24",
                 "--select", "random", "--out", str(out)] + dataset_args) == 0
    params = json.loads((out / "attack_manifest.json").read_text())["params"]
    assert params["select"] == "random"
    diff = build_matrices(load_readings(synth_out / "dataset", LayoutSpec())).diff
    fields = ["device_index", "mode", "fixed_count", "delta_correct", "objective",
              "iterations", "stop_reason", "start_objective"]

    def rows(cells):
        return format_rows_reference([[getattr(c, f) for c in cells] for f in fields], ",")

    args = (diff, [2, 5], [0, 8, 24], ("trend", "exact"), 3)
    want = rows(evaluate_attack(*args, selection="random"))
    header, *body = [ln for ln in (out / "attack.csv").read_text().splitlines()
                     if not ln.startswith("#")]
    assert header == ",".join(["device", *fields[1:]])
    assert "".join(ln + "\n" for ln in body) == want
    assert want != rows(evaluate_attack(*args, selection="even"))


@settings(max_examples=12, deadline=None)
@given(devices=st.one_of(st.none(), st.integers(1, 50)), seed=st.integers(0, 2**63))
def test_attack_manifest_records_the_library_protocol(devices, seed, dataset_args):
    # The targets and pinned counts attack runs on are the library's draw
    # and auto schedule, the default count included (the 40-device set
    # holds fewer devices than the largest count asked for).
    count = [] if devices is None else ["--devices", str(devices)]
    with tempfile.TemporaryDirectory() as out:
        assert main(["attack", "--seed", str(seed), "--mode", "trend", *count, "--out", out]
                    + dataset_args) == 0
        params = json.loads((Path(out) / "attack_manifest.json").read_text())["params"]
    assert params["devices"] == choose_targets(40, devices or DEFAULT_TARGETS, seed)
    assert params["fixed_counts"] == auto_fixed_counts(32)


@pytest.mark.parametrize("option, value, message", [
    ("--device-indices", "3,5,3", "target device 3 is repeated"),
    ("--fixed-counts", "0,8,0", "fixed count 0 is repeated"),
])
def test_attack_refuses_a_repeated_value(dataset_args, tmp_path, monkeypatch, capsys,
                                         option, value, message):
    # Refused before any target is trained, and nothing is written.
    monkeypatch.setattr(pufstat.covfit, "covariance_matrix", None)
    out = tmp_path / "repeated"
    assert main(["attack", "--seed", "3", option, value, "--out", str(out)] + dataset_args) == 1
    assert capsys.readouterr().err.splitlines() == [f"pufstat: configuration error: {message}"]
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["pca", "--geometry", "8x8:col", "--trunc-ranks", "0,5000"], "rank 0 out of range 1..40"),
    (["pca", "--geometry", "8x8:col", "--trunc-ranks", "2,5000"],
     "rank 5000 out of range 1..40"),
    (["pca", "--geometry", "8x8:col", "--trunc-ranks", "2,4,2"],
     "truncation rank 2 is repeated"),
    (["similarity", "--group-sizes", "5,10,5"], "group size 5 is repeated"),
], ids=["rank-0", "rank-above", "rank-repeated", "group-size-repeated"])
def test_list_flag_refuses_a_value_it_cannot_run_once(argv, message, dataset_args, tmp_path,
                                                      capsys):
    # A value is refused, not dropped or run twice, and nothing is written.
    out = tmp_path / "out"
    assert main(argv + dataset_args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"pufstat: configuration error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("pcs", ["0", "2"])
def test_pca_refuses_a_grid_that_cannot_hold_the_ros(pcs, dataset_args, tmp_path, monkeypatch,
                                                     capsys):
    # Refused before anything is computed, whatever --pcs is, and nothing is
    # written: no pca_summary.json records the grid.
    monkeypatch.setattr(pufstat.cli, "standardize", None)
    out = tmp_path / "out"
    assert main(["pca", "--geometry", "4x4:col", "--pcs", pcs] + dataset_args
                + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "pufstat: configuration error: geometry 4x4:col has 16 cells but there are 64 ROs"]
    assert not out.exists()


def _overflowing_dataset(tmp_path) -> Path:
    """6 devices x 8 ROs of finite, positive readings near 1e300 MHz whose
    pair differences (+-5e299) overflow when squared."""
    rng = np.random.default_rng(12)
    dataset = tmp_path / "huge"
    dataset.mkdir()
    for j in range(6):
        ros = 1e300 + np.outer(rng.choice([0.0, -5e299, 5e299], size=8), [1.0, 1.0])
        (dataset / f"device_{j:04d}.txt").write_text(
            "".join(f"{a!r} {b!r}\n" for a, b in ros.tolist()))
    return dataset


def test_attack_on_overflowing_covariance_is_numeric_error(tmp_path, capsys):
    # The covariance overflows: one error line, no traceback, no numpy warning.
    dataset = _overflowing_dataset(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["attack", "--dataset", str(dataset), "--seed", "1", "--devices", "2",
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["pufstat: numeric error: covariance matrix is not finite"]
    assert caught == []


@pytest.mark.parametrize("stage", [["entropy"], ["correlate"], ["pca", "--geometry", "2x4:col"]],
                         ids=["entropy", "correlate", "pca"])
def test_overflow_in_a_stage_is_numeric_error(tmp_path, capsys, stage):
    # Every stage runs with numpy overflow raised, so these exit 1 instead of
    # writing inf or NaN numbers, with no warning and no summary written.
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(stage + ["--dataset", str(_overflowing_dataset(tmp_path)),
                             "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("pufstat: numeric error: overflow encountered")
    assert caught == []
    assert list(out.rglob("*")) == []


def _write_set(root: Path, values, layout="files", meta_lines=None) -> Path:
    """Write ``values`` (devices x ROs x samples) as a dataset with serials
    1, 3, 6, 10, ..., or with ``meta_lines`` as its serials.csv; return --dataset."""
    values = np.asarray(values, dtype=np.float64)
    write_dataset(ReadingsTensor(values), root, LayoutSpec.parse(layout),
                  DeviceMeta(np.cumsum(np.arange(1, values.shape[0] + 1))))
    if meta_lines is not None:
        (root / "serials.csv").write_text("".join(line + "\n" for line in meta_lines))
    return root / "readings.csv" if layout == "csv" else root


@pytest.fixture(scope="module")
def failing_stage_sets(tmp_path_factory):
    """A 24-device x 32-RO set, and one whose pair 0 differs by exactly 1 MHz
    on every device, plus an --out that holds a successful run of
    similarity, normality and pca on the first."""
    root = tmp_path_factory.mktemp("failing-stages")
    rng = np.random.default_rng(31)
    good = _write_set(root / "good", rng.normal(200.0, 2.0, size=(24, 32, 2)))
    flat_values = rng.normal(200.0, 2.0, size=(24, 32, 2))
    flat_values[:, 0, :] = 190.0 + np.arange(24)[:, None]
    flat_values[:, 1, :] = flat_values[:, 0, :] + 1.0
    flat = _write_set(root / "flat", flat_values)
    out = root / "out"
    base = ["--dataset", str(good), "--meta", str(good / "serials.csv"), "--out", str(out)]
    for stage in (["similarity"], ["normality"], ["pca", "--geometry", "4x8:col"]):
        assert main(stage + base) == 0
    return {"good": good, "flat": flat}, out


@pytest.mark.parametrize("dataset, stage, message", [
    ("good", ["similarity", "--group-sizes", "5,23"],
     "degenerate-data error: only 2 windows of size 23; need at least 3"),
    ("flat", ["normality"], "row 0: sample has zero standard deviation"),
    ("good", ["pca", "--geometry", "2x4:col"], "configuration error: geometry 2x4"),
], ids=["similarity", "normality", "pca"])
def test_failed_stage_leaves_out_unchanged(dataset, stage, message, failing_stage_sets,
                                           tmp_path, capsys):
    # A stage computes every result before it writes its first artifact.
    sets, previous = failing_stage_sets
    out = tmp_path / "out"
    shutil.copytree(previous, out)
    before = _digests(out)
    root = sets[dataset]
    assert main(stage + ["--dataset", str(root), "--meta", str(root / "serials.csv"),
                         "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert _digests(out) == before


@pytest.mark.parametrize("bad_meta", [False, True], ids=["meta", "malformed-meta"])
@pytest.mark.parametrize("layout", ["files", "csv"])
def test_odd_ro_count_exits_1_before_any_file(layout, bad_meta, tmp_path, capsys):
    # Raw readings load whatever the RO count; deriving the pairs refuses it,
    # before --meta is read and before anything is written.
    meta_lines = ["device,serial", "0,7", "0,8"] if bad_meta else None
    values = np.random.default_rng(2).normal(200.0, 2.0, size=(2, 3, 2))
    dataset = _write_set(tmp_path / "odd", values, layout, meta_lines)
    out = tmp_path / "out"
    assert main(["ingest", "--dataset", str(dataset), "--layout", layout,
                 "--meta", str(tmp_path / "odd" / "serials.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "pufstat: configuration error: RO count must be even for pairwise grouping, got 3"]
    assert not out.exists()


_CSV_TAKES_NONE = "does not apply to csv, which takes none"


@pytest.mark.parametrize("layout, message", [
    ("csv:sep=;", f"layout option 'sep' {_CSV_TAKES_NONE}"),
    ("csv:sep=;:rows=samples", f"layout option 'rows' {_CSV_TAKES_NONE}"),
    ("csv:pattern=*.csv", f"layout option 'pattern' {_CSV_TAKES_NONE}"),
    ("files:rows=samples:rows=ros",
     "layout option 'rows' given twice in 'files:rows=samples:rows=ros'"),
    ("files:sep=,:pattern=*.txt:sep=;",
     "layout option 'sep' given twice in 'files:sep=,:pattern=*.txt:sep=;'"),
])
def test_ignored_or_repeated_layout_option_exits_1(layout, message, synth_out, tmp_path,
                                                   capsys):
    out = tmp_path / "out"
    assert main(["entropy", "--dataset", str(synth_out / "dataset"), "--layout", layout,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"pufstat: configuration error: {message}\n"
    assert not out.exists()


_NO_SCIPY = """
import sys
from pufstat.cli import main, run_chain
print('scipy' in sys.modules)
assert main(["synth", "--seed", "5", "--devices", "24", "--ros", "32", "--samples", "4",
             "--geometry", "4x8:col", "--out", "data"]) == 0
assert run_chain("data/dataset", "chain", meta="data/dataset/serials.csv",
                 geometry="4x8:col", seed=1) == 0
print('scipy' in sys.modules)
"""


def test_import_and_chain_never_import_scipy(tmp_path):
    # Every stage, normality and entropy included, runs on numpy alone.
    src = Path(pufstat.cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY], capture_output=True, text=True, check=True,
        cwd=tmp_path, env={"PYTHONPATH": str(src), "PATH": ""},
    )
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", "False")
    assert (tmp_path / "chain" / "normality_diff_summary.json").is_file()
    assert (tmp_path / "chain" / "entropy.json").is_file()


def test_manifest_links_all_artifacts(dataset_args, tmp_path):
    out = tmp_path / "mf"
    assert main(["ingest"] + dataset_args + ["--out", str(out)]) == 0
    manifest = json.loads((out / "ingest_manifest.json").read_text())
    assert manifest["subcommand"] == "ingest"
    assert set(manifest["artifacts"]) == {
        "freq.csv", "dev.csv", "diff.csv", "bits.csv", "bits.bin"
    }
    head = (out / "freq.csv").read_text().splitlines()[0]
    assert head == f"# manifest: {manifest['hash']}"
    assert manifest["input_sha256"]


@pytest.mark.parametrize("argv, flag", [
    (["attack", "--seed", "1", "--device-indices", "3,x"], "--device-indices"),
    (["attack", "--seed", "1", "--fixed-counts", "0,8,y"], "--fixed-counts"),
    (["similarity", "--group-sizes", "5,w"], "--group-sizes"),
    (["pca", "--trunc-ranks", "1,z"], "--trunc-ranks"),
    # A list with no integers in it.
    (["attack", "--seed", "1", "--device-indices", ","], "--device-indices"),
    (["attack", "--seed", "1", "--fixed-counts", ","], "--fixed-counts"),
    (["similarity", "--group-sizes", ","], "--group-sizes"),
    (["pca", "--trunc-ranks", ","], "--trunc-ranks"),
    # An empty field anywhere in the list.
    *(([*argv, text], argv[-1])
      for argv in (["attack", "--seed", "1", "--device-indices"],
                   ["attack", "--seed", "1", "--fixed-counts"],
                   ["similarity", "--group-sizes"], ["pca", "--trunc-ranks"])
      for text in ("5,,10", "5,", ",5")),
])
def test_malformed_int_list_is_usage_error(argv, flag, dataset_args, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(argv + dataset_args + ["--out", str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected comma-separated integers" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["attack", "--seed", "1", "--devices", "-1"], "--devices"),
    (["attack", "--seed", "-1"], "--seed"),
    (["pca", "--pcs", "-2"], "--pcs"),
    (["synth", "--seed", "-1"], "--seed"),
    (["attack", "--seed", "x"], "--seed"),
    (["attack", "--seed", "1", "--trend-magnitude", "-1"], "--trend-magnitude"),
    (["attack", "--seed", "1", "--trend-magnitude", "0"], "--trend-magnitude"),
    (["attack", "--seed", "1", "--trend-magnitude", "nan"], "--trend-magnitude"),
    (["attack", "--seed", "1", "--trend-magnitude", "inf"], "--trend-magnitude"),
    (["attack", "--seed", "1", "--devices", "0"], "--devices"),
    (["synth", "--seed", "1", "--devices", "0"], "--devices"),
    (["synth", "--seed", "1", "--ros", "-2"], "--ros"),
    (["synth", "--seed", "1", "--samples", "0"], "--samples"),
    (["similarity", "--min-group", "1"], "--min-group"),
    (["similarity", "--min-group", "0"], "--min-group"),
    (["similarity", "--group-sizes", "1"], "--group-sizes"),
    (["similarity", "--group-sizes", "5,1,10"], "--group-sizes"),
])
def test_negative_count_is_usage_error(argv, flag, dataset_args, tmp_path, capsys):
    out = tmp_path / "out"
    extra = [] if argv[0] == "synth" else dataset_args
    with pytest.raises(SystemExit) as excinfo:
        main(argv + extra + ["--out", str(out)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    if flag in LIBRARY_RULES and (argv[0], flag) != ("attack", "--devices"):
        wanted = _library_refusal(flag, argv[-1])
    else:
        wanted = {"--pcs": "expected a non-negative integer",
                  "--devices": "expected a positive integer",
                  # A negative seed breaks the library's own rule, check_seed.
                  "--seed": "a seed is a non-negative integer, got -1",
                  }[flag]
    if argv[1:] == ["--seed", "x"]:
        wanted = "expected an integer, got 'x'"
    assert f"argument {flag}: {wanted}" in err
    assert "Traceback" not in err
    assert not out.exists()


# Flags whose rule a library check owns: the check, and how the flag's text
# (each field of a list) converts before it is checked.
LIBRARY_RULES = {"--trend-magnitude": (check_trend_magnitude, float),
                 "--min-group": (check_group_size, int), "--group-sizes": (check_group_size, int),
                 **dict.fromkeys(("--devices", "--ros", "--samples"), (check_count, int))}


def _library_refusal(flag: str, text: str) -> str:
    """The message of the ConfigurationError that the library check behind
    ``flag`` raises for the value ``text``, at its first refused field."""
    check, convert = LIBRARY_RULES[flag]
    with pytest.raises(ConfigurationError) as refused:
        for field in text.split(","):
            check(convert(field))
    return str(refused.value)


@pytest.mark.parametrize("argv, flag", [
    (["attack", "--seed", "1", "--trend-magnitude", "0"], "--trend-magnitude"),
    (["attack", "--seed", "1", "--trend-magnitude", "inf"], "--trend-magnitude"),
    (["attack", "--seed", "1", "--trend-magnitude", "nan"], "--trend-magnitude"),
    (["similarity", "--min-group", "1"], "--min-group"),
    (["similarity", "--group-sizes", "5,1"], "--group-sizes"),
    (["synth", "--seed", "1", "--ros", "0"], "--ros"),
])
def test_library_rule_is_a_usage_error_in_its_words(argv, flag, dataset_args, tmp_path,
                                                      capsys):
    # The flag's type only converts the text and calls the library's check:
    # a usage error before --out exists, whose message is the check's own.
    out = tmp_path / "out"
    extra = [] if argv[0] == "synth" else dataset_args
    with pytest.raises(SystemExit) as excinfo:
        main(argv + extra + ["--out", str(out)])
    assert excinfo.value.code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"pufstat {argv[0]}: error: argument {flag}: {_library_refusal(flag, argv[-1])}"
    assert not out.exists()


@pytest.mark.parametrize("geometry", ["4x16:row", "16x4:col"])
def test_loading_maps_are_the_grid_a_column_at_a_time(geometry, synth_out, dataset_args,
                                                      tmp_path):
    # A block per grid column x of (x, y, loading at y, x), whatever order
    # the grid's ROs are laid out in.
    out = tmp_path / "pca"
    assert main(["pca", "--geometry", geometry, "--pcs", "3"] + dataset_args
                + ["--out", str(out)]) == 0
    grid = GridGeometry.parse(geometry)
    result = pca(standardize(build_matrices(
        load_readings(synth_out / "dataset", LayoutSpec())).freq))
    y = np.arange(grid.rows)
    for pc_num in range(1, 4):
        loading = loading_map(result, pc_num, grid)
        want = "\n".join(format_rows_reference([np.full_like(y, x), y, loading[y, x]], " ")
                         for x in range(grid.cols))
        body = (out / f"loading_pc{pc_num}.dat").read_text().split("\n", 3)[3]
        assert body == want


@pytest.mark.parametrize("min_group", [2, 5, 13])
def test_group_variance_rows_are_the_map(min_group, synth_out, dataset_args, tmp_path):
    out = tmp_path / "sim"
    assert main(["similarity", "--min-group", str(min_group), "--group-sizes", f"{min_group},20"]
                + dataset_args + ["--out", str(out)]) == 0
    dev = build_matrices(load_readings(synth_out / "dataset", LayoutSpec())).dev
    gv = group_variance_map(dev, min_group=min_group)
    lines = (out / "group_variance.dat").read_text().splitlines()
    assert lines[2] == "# columns: a b s2"
    rows = [line.split(" ") for line in lines[3:]]
    num_devices = dev.shape[1]
    windows = [(a, b) for a in range(num_devices) for b in range(a, num_devices)
               if b - a + 1 >= min_group]
    assert [(int(a), int(b)) for a, b, _ in rows] == windows
    assert list(zip(gv.first.tolist(), gv.last.tolist())) == windows
    assert [float(s2) for _, _, s2 in rows] == gv.values.tolist()


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CHAIN_MANIFESTS = {
    f"{stage}_manifest.json"
    for stage in ("ingest", "normality", "similarity", "entropy", "correlate",
                  "attack", "pca", "report")
}


def _run_stages(dataset, layout, meta, out, geometry, seed):
    """The chain's stages as separate main() calls, each default spelled out:
    the oracle for run_chain."""
    base = ["--dataset", dataset, "--layout", layout, "--meta", meta, "--out", out]
    for argv in (
        ["ingest"] + base,
        ["normality", "--matrix", "all"] + base,
        ["similarity"] + base,
        ["entropy"] + base,
        ["correlate"] + base,
        ["attack", "--seed", str(seed), "--devices", "8", "--mode", "both"] + base,
        ["pca", "--geometry", geometry] + base,
        ["report", "--out", out],
    ):
        assert main(argv) == 0, argv


def _digests(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in root.rglob("*") if path.is_file()
    }


def _run_script(name, argv, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name)] + argv)
    try:
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    finally:
        # A script freezes every object as it ends its process; this one
        # goes on.
        gc.unfreeze()
    return excinfo.value.code


def test_unknown_preset_is_usage_error(tmp_path, capsys):
    # synth takes its choices from syngen.PRESETS.
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", "--seed", "1", "--preset", "bogus", "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --preset: invalid choice: 'bogus'" in err
    assert all(name in err.split("choose from")[1] for name in ("null", "spatial", "noisy"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("layout", ["files", "csv"])
def test_chain_loads_once_and_matches_stages(layout, tmp_path, monkeypatch, capsys):
    loads = []
    real_load = pufstat.cli.load_readings

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    # Relative paths keep the manifests, and so every artifact, comparable
    # across output directories.
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "5", "--devices", "24", "--ros", "32", "--samples", "4",
                 "--geometry", "4x8:col", "--layout", layout, "--out", "data"]) == 0
    dataset = "data/dataset/readings.csv" if layout == "csv" else "data/dataset"
    meta = "data/dataset/serials.csv"
    _run_stages(dataset, layout, meta, "stages", "4x8:col", 1)
    expected = _digests(tmp_path / "stages")
    assert CHAIN_MANIFESTS == {name for name in expected if name.endswith("_manifest.json")}

    # report reads only the stages' JSON summaries; each list in them equals
    # its text twin, and so does report.json.
    reference = report_payload_reference(tmp_path / "stages")
    report = json.loads((tmp_path / "stages" / "report.json").read_text())
    del report["manifest_hash"]
    assert report == reference
    assert all(isinstance(e[k], float) for e in report["attack"]["envelope"]
               for k in ("min_delta", "max_delta"))
    summaries = {name: json.loads((tmp_path / "stages" / name).read_text())
                 for name in ("attack_summary.json", "similarity.json", "pca_summary.json")}
    assert summaries["attack_summary.json"]["envelope"] == reference["attack"]["envelope"]
    assert summaries["similarity.json"]["serial_correlation"] == \
        reference["similarity"]["serial_correlation"]
    for key in ("variance_fractions", "truncated_agreement"):
        assert summaries["pca_summary.json"][key] == reference["pca"][key]

    monkeypatch.setattr(pufstat.cli, "load_readings", counting_load)
    assert run_chain(dataset, "chain", layout=layout, meta=meta, geometry="4x8:col",
                     seed=1) == 0
    assert len(loads) == 1
    assert _digests(tmp_path / "chain") == expected

    loads.clear()
    assert _run_script("run_reference_analysis.py",
                       ["--dataset", dataset, "--layout", layout, "--meta", meta,
                        "--geometry", "4x8:col", "--out", "script"], monkeypatch) == 0
    assert len(loads) == 1
    assert _digests(tmp_path / "script") == expected


def test_compare_manifests_reports_each_artifact_that_differs(dataset_args, tmp_path,
                                                              monkeypatch, capsys):
    # Two runs of one stage list the same digests; a changed parameter
    # changes every artifact that carries the manifest hash.
    runs = {}
    for name, extra in (("a", []), ("b", []), ("c", ["--min-group", "6"])):
        runs[name] = tmp_path / name
        assert main(["similarity", *dataset_args, "--out", str(runs[name]), *extra]) == 0
    capsys.readouterr()
    assert _run_script("compare_manifests.py", [str(runs["a"]), str(runs["b"])],
                       monkeypatch) == 0
    assert capsys.readouterr().out == "3 artifacts identical\n"
    assert _run_script("compare_manifests.py", [str(runs["a"]), str(runs["c"])],
                       monkeypatch) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["differs:", f"similarity_manifest.json/{name}"]
        for name in ("group_variance.dat", "serial_corr.csv", "similarity.json")]
    # An artifact one side does not list.
    manifest = runs["b"] / "similarity_manifest.json"
    payload = json.loads(manifest.read_text())
    del payload["artifacts"]["serial_corr.csv"]
    manifest.write_text(json.dumps(payload))
    assert _run_script("compare_manifests.py", [str(runs["a"]), str(runs["b"])],
                       monkeypatch) == 1
    assert capsys.readouterr().out == "only in A: similarity_manifest.json/serial_corr.csv\n"
    assert _run_script("compare_manifests.py", [str(runs["a"]), str(tmp_path / "none")],
                       monkeypatch) == 2


CHAIN_ORDER = ["ingest", "similarity", "correlate", "attack", "pca", "normality", "entropy",
               "report"]


def _synth_chain_set(monkeypatch, tmp_path) -> list[str]:
    """Synthesize a small dataset in ``tmp_path``, now the working directory;
    return its dataset and meta paths. Relative paths keep the manifests of
    two output directories comparable."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--seed", "5", "--devices", "24", "--ros", "32", "--samples", "4",
                 "--geometry", "4x8:col", "--out", "data"]) == 0
    return ["data/dataset", "data/dataset/serials.csv"]


def _fork_in_writers(monkeypatch, in_child) -> list:
    """Three CPUs, so that every writer is forked; ``in_child()`` runs in
    each child as it finishes its stage's manifest. Returns the list that
    records each fork."""
    parent = os.getpid()
    real_finish, real_fork = pufstat.output.ArtifactWriter.finish, os.fork
    forks = []

    def finish(self):
        if os.getpid() != parent:
            in_child()
        return real_finish(self)

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(pufstat.output.ArtifactWriter, "finish", finish)
    return forks


def test_chain_failure_joins_the_writers_in_flight(tmp_path, monkeypatch, capsys):
    # pca's 4x4 grid does not fit the 32 ROs. The writers of ingest,
    # similarity, correlate and attack, each still writing when pca fails,
    # are joined: their stages are complete, report does not run, and no
    # child is left.
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    forks = _fork_in_writers(monkeypatch, lambda: time.sleep(0.3))
    capsys.readouterr()
    assert run_chain(dataset, "chain", meta=meta, geometry="4x4:col", seed=1) == 1
    assert len(forks) == 4
    out, err = capsys.readouterr()
    assert re.findall(r"==> pufstat (\w+)", out) == CHAIN_ORDER[:5]
    assert err == ("pufstat: configuration error: geometry 4x4:col has 16 cells but there are "
                   "32 ROs\nstep failed with exit code 1\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    base = ["--dataset", dataset, "--meta", meta, "--out", "stages"]
    for stage in (["ingest"], ["similarity"], ["correlate"],
                  ["attack", "--seed", "1", "--devices", str(DEFAULT_TARGETS), "--mode", "both"]):
        assert main(stage + base) == 0
    assert not (tmp_path / "chain" / "report.json").exists()
    assert _digests(tmp_path / "chain") == _digests(tmp_path / "stages")


def test_chain_usage_error_exits_2_before_out_exists(tmp_path, monkeypatch, capsys):
    # Every step is parsed before the dataset is read: attack's --seed -1
    # stops the chain script before ingest runs.
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    assert _run_script("run_reference_analysis.py",
                       ["--dataset", dataset, "--meta", meta, "--geometry", "4x8:col",
                        "--seed", "-1", "--out", "chain"], monkeypatch) == 2
    out, err = capsys.readouterr()
    assert "==>" not in out
    assert "argument --seed: a seed is a non-negative integer, got -1" in err
    assert not (tmp_path / "chain").exists()


def test_killed_writer_is_redone(tmp_path, monkeypatch):
    # Every writer SIGKILLs itself in its child, after its stage's tables
    # and before its manifest; each is redone at its join, over the files
    # it had written, and the chain writes what its stages write one by one.
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    _run_stages(dataset, "files", meta, "stages", "4x8:col", 1)
    forks = _fork_in_writers(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert run_chain(dataset, "chain", meta=meta, geometry="4x8:col", seed=1) == 0
    assert len(forks) == 6
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _digests(tmp_path / "chain") == _digests(tmp_path / "stages")


def test_chain_prints_each_stage_once_in_order(tmp_path):
    # The chain script on three CPUs, in a process whose stdout is a pipe,
    # so block-buffered: text left unflushed as each writer is forked
    # would show twice if a child flushed it.
    chain = [str(SCRIPTS / "run_reference_analysis.py"), "--dataset", "data/dataset",
             "--meta", "data/dataset/serials.csv", "--geometry", "4x8:col", "--out", "chain"]
    script = (
        "import os, runpy, sys\n"
        "from pufstat import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
        "assert cli.main(['synth', '--seed', '5', '--devices', '24', '--ros', '32',\n"
        "                 '--samples', '4', '--geometry', '4x8:col', '--out', 'data']) == 0\n"
        "real_start = cli.parallel.start\n"
        "def start(part):\n"
        "    print('writer', end=' ')\n"
        "    return real_start(part)\n"
        "cli.parallel.start = start\n"
        "print('before', end=' ')\n"
        f"sys.argv = {chain!r}\n"
        f"runpy.run_path({chain[0]!r}, run_name='__main__')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("before ") and done.stdout.count("before") == 1
    assert re.findall(r"==> pufstat (\w+)", done.stdout) == CHAIN_ORDER
    assert done.stdout.count("writer") == 6
    assert done.stdout.endswith("all artifacts in chain\n")
    assert done.stdout.count("all artifacts") == 1


@pytest.mark.parametrize("layout", [None, "csv"])
def test_chain_passes_layout_and_geometry_only_where_given(layout, monkeypatch, capsys):
    # Each stage parses its steps as given; a flag the caller left out
    # takes the subcommand's own default and is not printed.
    parsed = []

    def record(args, loaded):
        parsed.append(args)
        return 0, lambda: None

    monkeypatch.setattr(pufstat.cli, "_run", record)
    assert run_chain("data", "chain", layout=layout, meta="serials.csv", seed=1) == 0
    steps = re.findall(r"==> pufstat (.*)", capsys.readouterr().out)
    assert [step.split()[0] for step in steps] == CHAIN_ORDER
    for step in steps[:-1]:
        assert ("--layout" in step) == (layout is not None)
        assert layout is None or f"--layout {layout} " in step
        assert "--geometry" not in step
    assert [args.layout for args in parsed[:-1]] == [layout or "files"] * 7
    assert parsed[CHAIN_ORDER.index("pca")].geometry == "16x32:col"


def test_chain_and_cli_processes_end_frozen(tmp_path, monkeypatch):
    # The chain script and ``python -m pufstat.cli`` freeze what is left
    # before they exit: the chain still prints its last line and writes
    # every artifact the stages write one by one, and a subcommand run as
    # a process writes what main() writes.
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")}
    chain = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_reference_analysis.py"), "--dataset", dataset,
         "--meta", meta, "--geometry", "4x8:col", "--seed", "1", "--out", "chain"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert chain.returncode == 0, chain.stderr
    assert chain.stdout.endswith("all artifacts in chain\n")
    _run_stages(dataset, "files", meta, "stages", "4x8:col", 1)
    assert _digests(tmp_path / "chain") == _digests(tmp_path / "stages")
    entropy = ["entropy", "--dataset", dataset, "--out"]
    done = subprocess.run([sys.executable, "-m", "pufstat.cli", *entropy, "process"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main([*entropy, "in-process"]) == 0
    assert _digests(tmp_path / "process") == _digests(tmp_path / "in-process")


def test_main_and_run_chain_leave_the_collector_unfrozen(tmp_path, monkeypatch):
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    assert main(["entropy", "--dataset", dataset, "--out", "out"]) == 0
    assert gc.get_freeze_count() == 0
    assert run_chain(dataset, "chain", meta=meta, geometry="4x8:col", seed=1) == 0
    assert gc.get_freeze_count() == 0


def _refuse_group_variance(monkeypatch) -> None:
    """similarity's writes cannot write group_variance.dat, in a child or
    here: an i/o error."""
    real_write_dat = pufstat.output.ArtifactWriter.write_dat

    def write_dat(self, name, *args):
        if name == "group_variance.dat":
            raise PermissionError(f"cannot write {name}")
        return real_write_dat(self, name, *args)

    monkeypatch.setattr(pufstat.output.ArtifactWriter, "write_dat", write_dat)


SIMILARITY_THEN_PCA_FAIL = [
    "pufstat: configuration error: geometry 4x4:col has 16 cells but there are 32 ROs",
    "pufstat: i/o error: cannot write group_variance.dat",
    "step failed with exit code 3",
]


def test_first_failing_stage_sets_the_exit_code(tmp_path, monkeypatch, capsys):
    # similarity's writer fails (3); pca then fails to compute (1).
    # similarity comes first in the chain, so the chain exits 3.
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    forks = _fork_in_writers(monkeypatch, lambda: None)
    _refuse_group_variance(monkeypatch)
    capsys.readouterr()
    assert run_chain(dataset, "chain", meta=meta, geometry="4x4:col", seed=1) == 3
    assert len(forks) == 4
    assert capsys.readouterr().err.splitlines() == SIMILARITY_THEN_PCA_FAIL
    assert not (tmp_path / "chain" / "similarity_manifest.json").exists()
    assert (tmp_path / "chain" / "attack_manifest.json").is_file()


@pytest.mark.parametrize("cpus", [1, 3])
def test_failing_chain_does_not_depend_on_the_cpu_count(cpus, tmp_path, monkeypatch, capsys):
    # The chain above on one CPU, where every writer runs at its join, after
    # pca has failed, and on three, where they are forked and the failed one
    # is redone at its join: the same exit code, errors and manifests.
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    _refuse_group_variance(monkeypatch)
    capsys.readouterr()
    assert run_chain(dataset, "chain", meta=meta, geometry="4x4:col", seed=1) == 3
    assert capsys.readouterr().err.splitlines() == SIMILARITY_THEN_PCA_FAIL
    assert sorted(p.name for p in (tmp_path / "chain").glob("*_manifest.json")) == [
        "attack_manifest.json", "correlate_manifest.json", "ingest_manifest.json"]


def test_unexpected_error_ends_the_writers(tmp_path, monkeypatch):
    # An exception no stage maps to an exit code (here from pca) leaves
    # run_chain at once: the writers still running are killed and reaped.
    dataset, meta = _synth_chain_set(monkeypatch, tmp_path)
    _fork_in_writers(monkeypatch, lambda: time.sleep(60))

    def pca(*args):
        raise RuntimeError("pca failed")

    monkeypatch.setattr(pufstat.cli, "pca", pca)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="pca failed"):
        run_chain(dataset, "chain", meta=meta, geometry="4x8:col", seed=1)
    assert time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _synth(out, seed, preset, devices, ros, samples, geometry):
    assert main(["synth", "--seed", str(seed), "--preset", preset, "--devices", str(devices),
                 "--ros", str(ros), "--samples", str(samples), "--geometry", geometry,
                 "--out", str(out)]) == 0


def test_pca_bins_a_last_component_of_one_value_in_one_bin(tmp_path):
    # Three devices, 16 ROs: the column-centred matrix has rank 2, so the
    # third component scores one value up to rounding, a range too narrow
    # for 40 bins.
    _synth(tmp_path / "s", 3, "spatial", 3, 16, 2, "4x4:col")
    out = tmp_path / "o"
    assert main(["pca", "--dataset", str(tmp_path / "s" / "dataset"), "--geometry", "4x4:col",
                 "--out", str(out)]) == 0
    counts = [int(line.split(" ")[1])
              for line in (out / "scores_hist_pc3.dat").read_text().splitlines()[3:]]
    assert len(counts) == 40 and max(counts) == sum(counts) == 3


def test_pca_on_two_devices_records_null_key_correlations(tmp_path, capsys):
    # A correlation needs 3 devices: the library refuses it, and pca writes
    # every artifact with a null ones-count correlation for each PC.
    _synth(tmp_path / "s", 1, "spatial", 2, 16, 2, "4x4:col")
    capsys.readouterr()
    assert main(["pca", "--dataset", str(tmp_path / "s" / "dataset"), "--geometry", "4x4:col",
                 "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "o" / "pca_summary.json").read_text())
    assert summary["ones_count_correlation"] == {"pc1": None, "pc2": None}
    matrices = build_matrices(load_readings(tmp_path / "s" / "dataset", LayoutSpec()))
    with pytest.raises(InsufficientSampleError, match="need at least 3 points, got 2"):
        pc_key_correlation(pca(standardize(matrices.freq)), matrices.bits, 1)


def test_correlate_on_one_pair_is_an_insufficient_sample(tmp_path, capsys):
    # The diff profile of one pair is one coefficient: no line to fit.
    _synth(tmp_path / "s", 1, "null", 8, 2, 2, "1x2:col")
    capsys.readouterr()
    assert main(["correlate", "--dataset", str(tmp_path / "s" / "dataset"),
                 "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "pufstat: insufficient-sample error: need at least 2 points for a line, got 1"]


@pytest.mark.parametrize("values, binned", [
    ([0.5, -1.0, 2.0, 7.25], [0.5, -1.0, 2.0, 7.25]),              # numpy's bins
    ([3.0, 3.0, 3.0], [3.0, 3.0, 3.0]),                             # numpy's unit range
    ([1e-15, 1e-15 + 2e-31, 1e-15 - 1e-31], [1e-15 - 1e-31] * 3),   # one value up to rounding
], ids=["range", "zero-range", "rounding"])
def test_score_histogram_bins_a_rounding_range_as_a_zero_range(values, binned):
    counts, edges = pufstat.cli._histogram(np.asarray(values))
    want_counts, want_edges = np.histogram(binned, bins=40)
    assert counts.tolist() == want_counts.tolist() and edges.tolist() == want_edges.tolist()


def test_every_stage_on_tiny_sets_exits_cleanly(tmp_path, capsys):
    # Each dataset stage on spatial sets of 2 to 8 devices, 2 to 16 ROs and
    # 1 or 2 samples: it succeeds, or refuses with one line and a category
    # other than numeric. No exception escapes main. pca succeeds on every
    # set, with a null ones-count correlation where it is undefined (2
    # devices, or a constant ones count).
    geometries = {2: "1x2:col", 4: "2x2:col", 16: "4x4:col"}
    sets = [(1, 2, 16, 2), (3, 3, 16, 2)] + [
        (7, devices, ros, samples)
        for devices in (2, 3, 5, 8) for ros in (2, 4, 16) for samples in (1, 2)]
    for seed, devices, ros, samples in sets:
        out = tmp_path / f"{seed}-{devices}-{ros}-{samples}"
        _synth(out, seed, "spatial", devices, ros, samples, geometries[ros])
        base = ["--dataset", str(out / "dataset"), "--meta", str(out / "dataset" / "serials.csv")]
        for stage in (["ingest"], ["normality"], ["similarity"], ["entropy"], ["correlate"],
                      ["attack", "--seed", "1"], ["pca", "--geometry", geometries[ros]]):
            capsys.readouterr()
            code = main(stage + base + ["--out", str(out / stage[0])])
            err = capsys.readouterr().err.splitlines()
            assert code in (0, 1), (out.name, stage)
            if stage[0] == "pca":
                assert code == 0, (out.name, err)
            if code:
                assert len(err) == 1 and re.fullmatch(r"pufstat: [a-z-]+ error: .+", err[0]), err
                assert not err[0].startswith("pufstat: numeric error"), (out.name, stage, err)
