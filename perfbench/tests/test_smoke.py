"""Seconds-long smoke run of the benchmark at tiny shapes, plus checks that fail.

    python3 -m pytest perfbench/tests -q

Catches a broken workload, a metric missing from BENCHMARK.json's lists,
and an output check that no longer notices a wrong artifact, without the
full-size run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--tiny",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_is_correct_and_reports_every_metric(workload, trace):
    proc, result = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_refuses_a_checkout_without_pufstat(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A tiny reference-chain output directory and its recomputed numbers."""
    work = tmp_path_factory.mktemp("chain")
    workload = bench.WORKLOADS["reference"]
    shape = workload.tiny
    for argv in (bench.synth_argv(shape, 3, "data"), bench.workload_argv(workload, shape, "out")):
        child = bench.spawn(argv, work, work / "log", time.perf_counter() + 120)
        assert child.code == 0, (work / "log").read_text()
    tensor = checks.read_readings(work / "data" / "dataset", shape.layout,
                                  (shape.devices, shape.ros, shape.samples))
    return work / "out", checks.Expected.from_readings(tensor)


def tampered(chain, tmp_path, name: str, edit) -> Path:
    """Copy the chain output, rewrite one artifact and re-sign its manifest,
    as a writer that is wrong but self-consistent would."""
    out = tmp_path / "out"
    shutil.copytree(chain[0], out)
    path = out / name
    path.write_text(edit(path.read_text()))
    for manifest in out.glob("*_manifest.json"):
        data = json.loads(manifest.read_text())
        if name in data["artifacts"]:
            data["artifacts"][name] = checks.sha256_file(path)
            manifest.write_text(json.dumps(data))
    return out


def test_untouched_chain_passes(chain):
    out, exp = chain
    assert len(bench.verify(bench.WORKLOADS["reference"], out, exp, 7)) == 64


def test_artifact_not_matching_its_manifest_fails(chain, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(chain[0], out)
    with open(out / "bias.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    with pytest.raises(checks.CheckError, match="bias.csv"):
        checks.check_manifests(out, checks.CHAIN_MANIFESTS)


def test_unlisted_file_fails(chain, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(chain[0], out)
    (out / "attack.csv.tmp").write_text("")
    with pytest.raises(checks.CheckError, match="listed by no manifest"):
        checks.check_manifests(out, checks.CHAIN_MANIFESTS)


def test_wrong_entropy_fails(chain, tmp_path):
    out = tampered(chain, tmp_path, "entropy.json",
                   lambda text: text.replace('"entropy_binary_bits": ', '"entropy_binary_bits": 1'))
    checks.check_manifests(out, checks.CHAIN_MANIFESTS)
    with pytest.raises(checks.CheckError, match="entropy"):
        checks.check_entropy(out, chain[1])


def test_wrong_pca_fraction_fails(chain, tmp_path):
    def edit(text):
        lines = text.splitlines(keepends=True)
        pc, value, fraction = lines[3].rstrip("\n").split(",")
        lines[3] = f"{pc},{value},{float(fraction) * 1.001!r}\n"
        return "".join(lines)

    out = tampered(chain, tmp_path, "pca_fractions.csv", edit)
    with pytest.raises(checks.CheckError, match="variance fractions"):
        checks.check_pca(out, chain[1])


def test_wrong_group_variance_window_fails(chain, tmp_path):
    def edit(text):
        lines = text.splitlines(keepends=True)
        a, b, value = lines[3].split()  # window 0..4, always checked
        lines[3] = f"{a} {b} {float(value) * (1 + 1e-6)!r}\n"
        return "".join(lines)

    out = tampered(chain, tmp_path, "group_variance.dat", edit)
    with pytest.raises(checks.CheckError, match="group variance 0..4"):
        checks.check_group_variance(out, chain[1], bench.np.random.default_rng(0))


def test_envelope_disagreeing_with_cells_fails(chain, tmp_path):
    def edit(text):
        lines = text.splitlines(keepends=True)
        index = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
        count, lo, hi = lines[index].split()
        lines[index] = f"{count} {lo} {int(hi) + 1}\n"
        return "".join(lines)

    out = tampered(chain, tmp_path, "attack_envelope.dat", edit)
    with pytest.raises(checks.CheckError, match="attack_envelope.dat"):
        checks.check_attack(out, chain[1], bench.CHAIN_ATTACK_TARGETS)
