"""Drift guard for the criteria 1-8 code paths.

Criteria 1-8 need the real campaign and skip without it, so their code could
change its numbers unnoticed. This test runs the same library calls on a
seeded synthetic dataset of the reference shape (193 devices x 512 ROs x 10
samples, ``spatial`` preset, with serials) and compares them with the
committed ``drift_snapshot.json``. The snapshot does not test the paper's
targets; it only catches silent drift. A change that moves a value on purpose
rewrites the snapshot with

    PYTHONPATH=src python tests/test_drift.py

and says in CHANGES.md which values moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from pufstat import normality
from pufstat.bias import bias_report
from pufstat.covfit import evaluate_attack
from pufstat.geometry import GridGeometry
from pufstat.matrices import build_matrices, pack_bits
from pufstat.pca import pc_key_correlation, pca, standardize, truncated_bits
from pufstat.similarity import serial_correlation
from pufstat.syngen import generate, preset

SNAPSHOT = Path(__file__).with_name("drift_snapshot.json")
GEOMETRY = GridGeometry(16, 32, "col")
ATTACK_SEED = 1
ATTACK_FIXED_COUNTS = (0, 32, 64, 96, 128, 160, 192, 224)

# Relative tolerance of every float in the snapshot. With OpenBLAS 0.3.31 on
# x86-64 the values are bit-identical at one BLAS thread and at the default
# thread count; the slack is a few ulps for a CPU whose numpy or BLAS
# dispatches other SIMD kernels, and nothing more.
REL_TOL = 1e-12


def drift_values() -> dict:
    """The criterion 1-8 numbers on the seed-7 reference-shape synthetic set."""
    config = preset("spatial", seed=7, num_devices=193, num_ros=512, geometry=GEOMETRY)
    readings, meta, _ = generate(config)
    matrices = build_matrices(readings)

    quantiles = {}  # criterion 1
    for name in ("freq", "dev", "diff"):
        _, summary = normality.test_rows(getattr(matrices, name))
        quantiles[name] = [summary.quantile_50, summary.quantile_90,
                           summary.quantile_99, summary.max]
    report = bias_report(matrices.diff, matrices.bits)  # criterion 2
    serial = {str(g): abs(serial_correlation(matrices.dev, meta, g))  # criterion 3
              for g in (5, 10, 20)}
    scaled = standardize(matrices.freq)  # criteria 4-6
    result = pca(scaled, GEOMETRY)
    _, agreement = truncated_bits(result, scaled, 102)

    rng = np.random.default_rng(ATTACK_SEED)  # criterion 7
    devices = sorted(int(j) for j in rng.choice(matrices.num_devices, size=8, replace=False))
    deltas = [cell.delta_correct
              for device in devices for mode in ("trend", "exact")
              for cell in evaluate_attack(matrices.diff, device, ATTACK_FIXED_COUNTS,
                                          mode=mode, seed=ATTACK_SEED)]

    packed = pack_bits(matrices.bits)  # criterion 8
    return {
        "ad_quantiles": quantiles,
        "entropy": {"binary": report.entropy_binary, "normal": report.entropy_normal},
        "serial_abs_r": serial,
        "pca_fractions": [float(f) for f in result.variance_fractions[:8]],
        "agreement_rank_102": agreement,
        "pc3_correlation": pc_key_correlation(result, matrices.bits, 3),
        "attack_deltas": deltas,
        "packed": {"length": len(packed), "sha256": hashlib.sha256(packed).hexdigest()},
    }


def _floats(tree, path=""):
    """(path, value) for every float in a nested snapshot dict or list."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _floats(value, f"{path}/{key}")
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _floats(value, f"{path}/{i}")
    elif isinstance(tree, float):
        yield path, tree


@pytest.fixture(scope="module")
def drift():
    return drift_values(), json.loads(SNAPSHOT.read_text())


def test_drift_exact_values(drift):
    got, want = drift
    assert got["attack_deltas"] == want["attack_deltas"]
    assert len(got["attack_deltas"]) == 128
    assert got["packed"] == want["packed"]


def test_drift_float_values(drift):
    got, want = drift
    got_floats, want_floats = dict(_floats(got)), dict(_floats(want))
    assert got_floats.keys() == want_floats.keys()
    moved = {path: (got_floats[path], value) for path, value in want_floats.items()
             if got_floats[path] != pytest.approx(value, rel=REL_TOL, abs=0.0)}
    assert not moved


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(drift_values(), indent=1) + "\n")
    print(f"wrote {SNAPSHOT}", file=sys.stderr)
