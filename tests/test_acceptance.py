"""Acceptance checks, one test per criterion, one pass/fail line each.

Criteria 1-8 need the real 193-device dataset and are skipped unless
PUFSTAT_DATASET points at it (PUFSTAT_META enables the serial-number
checks). Criteria 9-14 always run.
"""

import json
import sys

import numpy as np
import pytest

from oracles import (
    ad_statistic_reference,
    covfit_grid_search,
    expanded_covariance_reference,
    phi_quadrature,
)
from pufstat.bias import bias_report
from pufstat.cli import main
from pufstat.correlation import covariance_matrix
from pufstat.covfit import (
    DEFAULT_TARGETS,
    MODES,
    REFERENCE_SEED,
    CovFitProblem,
    auto_fixed_counts,
    choose_targets,
    evaluate_attack,
    expanded_cov_residual,
    fit,
    objective_and_gradient,
)
from pufstat.geometry import GridGeometry
from pufstat.matrices import build_matrices, pack_bits, unpack_bits
from pufstat.normality import anderson_darling, normal_cdf, test_rows
from pufstat.pca import pc_key_correlation, pca, standardize, truncated_bits
from pufstat.similarity import DEFAULT_GROUP_SIZES, serial_correlation
from pufstat.syngen import SynthConfig, generate, preset

NORMALITY_QUANTILE_TARGETS = {
    "freq": (0.3990, 0.5040, 0.5996, 0.6753),
    "dev": (0.3572, 0.6403, 1.0384, 1.3465),
    "diff": (0.3534, 0.6595, 0.9078, 0.9973),
}
PC_FRACTION_TARGETS = (1.75e-3, 1.01e-3, 237e-6, 128e-6, 124e-6, 108e-6, 99.2e-6)


def _criterion(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"acceptance {number:02d} {label}: {status}{suffix}"
    # bypass pytest capture so the line shows for passing tests too
    print(line, file=sys.__stdout__)
    print(line)
    assert ok, f"criterion {number} {label}{suffix}"


def _require_meta(reference_dataset):
    _, meta = reference_dataset
    if meta is None:
        pytest.skip("serial metadata not available (set PUFSTAT_META)")
    return meta


def test_criterion_01_normality_quantiles(reference_matrices):
    worst = 0.0
    for name, targets in NORMALITY_QUANTILE_TARGETS.items():
        _, summary = test_rows(getattr(reference_matrices, name))
        got = (summary.quantile_50, summary.quantile_90, summary.quantile_99,
               summary.max)
        worst = max(worst, max(abs(g - t) for g, t in zip(got, targets)))
    _criterion(1, "normality quantile table", worst <= 0.02,
               f"max deviation {worst:.4f}")


def test_criterion_02_entropy(reference_matrices):
    report = bias_report(reference_matrices.diff, reference_matrices.bits)
    ok = (abs(report.entropy_binary - 241.0) <= 0.3
          and abs(report.entropy_normal - 241.3) <= 0.3)
    _criterion(2, "response entropy", ok,
               f"binary {report.entropy_binary:.2f}, normal {report.entropy_normal:.2f}")


def test_criterion_03_serial_correlation(reference_dataset, reference_matrices):
    meta = _require_meta(reference_dataset)
    # The group sizes similarity runs on by default: |r| peaks at the middle one.
    r = [abs(serial_correlation(reference_matrices.dev, meta, g)) for g in DEFAULT_GROUP_SIZES]
    ok = abs(r[1] - 0.21) <= 0.04 and r[1] > r[0] and r[1] > r[2]
    _criterion(3, "group variance vs serials", ok,
               f"|r| at {'/'.join(map(str, DEFAULT_GROUP_SIZES))} = "
               + "/".join(f"{v:.3f}" for v in r))


def _reference_pca(matrices):
    scaled = standardize(matrices.freq)
    return scaled, pca(scaled)


def test_criterion_04_pca_fractions(reference_matrices):
    _, result = _reference_pca(reference_matrices)
    fr = result.variance_fractions
    ok = abs(fr[0] - 0.990) <= 0.002
    details = [f"pc1 {fr[0]:.4f}"]
    for idx, target in enumerate(PC_FRACTION_TARGETS, start=2):
        rel = abs(fr[idx - 1] - target) / target
        details.append(f"pc{idx} rel {rel:.3f}")
        ok = ok and rel <= 0.10
    _criterion(4, "pca variance fractions", ok, ", ".join(details))


def test_criterion_05_truncated_agreement(reference_matrices):
    scaled, result = _reference_pca(reference_matrices)
    _, agreement = truncated_bits(result, scaled, 102)
    _criterion(5, "bit agreement at rank 102",
               abs(agreement - 0.85) <= 0.02, f"agreement {agreement:.4f}")


def test_criterion_06_pc3_key_correlation(reference_matrices):
    _, result = _reference_pca(reference_matrices)
    r = pc_key_correlation(result, reference_matrices.bits, 3)
    _criterion(6, "pc3 vs ones count", abs(abs(r) - 0.5) <= 0.07,
               f"|r| = {abs(r):.3f}")


def test_criterion_07_attack_envelope(reference_matrices):
    # The targets and pinned counts the reference chain's attack runs on.
    devices = choose_targets(reference_matrices.num_devices, DEFAULT_TARGETS, REFERENCE_SEED)
    cells = evaluate_attack(reference_matrices.diff, devices,
                            auto_fixed_counts(reference_matrices.num_pairs),
                            mode=MODES, seed=REFERENCE_SEED)
    assert all(c.error is None for c in cells)
    deltas = np.asarray([c.delta_correct for c in cells], dtype=np.float64)
    ok = float(deltas.min()) >= -5 and float(deltas.max()) <= 5 \
        and float(np.abs(deltas).mean()) <= 2.0
    _criterion(7, "attack delta envelope", ok,
               f"range [{deltas.min():.0f}, {deltas.max():.0f}], "
               f"mean |delta| {np.abs(deltas).mean():.2f}")


def test_criterion_08_bit_pack_size(reference_matrices):
    packed = pack_bits(reference_matrices.bits)
    round_trip = unpack_bits(packed, reference_matrices.num_pairs,
                             reference_matrices.num_devices)
    ok = len(packed) == 6176 and np.array_equal(round_trip, reference_matrices.bits)
    _criterion(8, "packed bit stream", ok, f"{len(packed)} bytes")


def test_criterion_09_ad_oracle_and_calibration():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(8, 201))
        kind = i % 4
        if kind == 0:
            sample = rng.normal(size=n)
        elif kind == 1:
            sample = rng.uniform(-1.0, 1.0, size=n)
        elif kind == 2:
            sample = rng.exponential(size=n)
        else:
            sample = np.concatenate(
                [rng.normal(-2.0, 0.5, size=n // 2),
                 rng.normal(2.0, 0.5, size=n - n // 2)]
            )
        got = anderson_darling(sample).a2
        worst = max(worst, abs(got - ad_statistic_reference(sample)))
    oracle_ok = worst <= 1e-10

    base = rng.normal(size=60)
    affine_gap = abs(
        anderson_darling(base).a2 - anderson_darling(3.7 * base - 11.0).a2
    )
    affine_ok = affine_gap <= 1e-12

    rows = np.random.default_rng(20140512).normal(size=(512, 193))
    results, _ = test_rows(rows)
    fraction = float(np.mean([r.reject_at_1pct for r in results]))
    calibration_ok = fraction <= 0.03

    _criterion(9, "anderson-darling oracle", oracle_ok and affine_ok and calibration_ok,
               f"oracle gap {worst:.2e}, affine gap {affine_gap:.2e}, "
               f"reject fraction {fraction:.4f}")


def test_criterion_10_normal_cdf_quadrature():
    grid = np.linspace(-8.0, 8.0, 25)
    worst = max(abs(float(normal_cdf(x)) - phi_quadrature(float(x))) for x in grid)
    _criterion(10, "normal cdf vs quadrature", worst <= 1e-12, f"max gap {worst:.2e}")


def test_criterion_11_covfit_oracles():
    identity_worst = 0.0
    for seed in (650, 651, 652):
        rng = np.random.default_rng(seed)
        extended = rng.normal(size=(6, 51)) * 2.5
        train = extended[:, :50]
        cov = covariance_matrix(train)
        mu = train.mean(axis=1)
        shortcut = expanded_cov_residual(cov, mu, extended[:, 50], n_train=50)
        direct = expanded_covariance_reference(extended, 50) - cov
        identity_worst = max(identity_worst, float(np.max(np.abs(shortcut - direct))))
    identity_ok = identity_worst <= 1e-10

    gradient_worst = 0.0
    for seed in (10, 11, 12):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(8, 40))
        cov = covariance_matrix(data)
        mask = np.zeros(8, dtype=bool)
        mask[rng.choice(8, size=3, replace=False)] = True
        problem = CovFitProblem(cov=cov, row_means=data.mean(axis=1), n_train=40)
        values = rng.normal(size=3)
        d_free = rng.normal(size=5)
        _, grad = objective_and_gradient(problem, mask, values, d_free)
        grad_free = grad[~mask]
        h = 1e-6
        fd = np.empty_like(d_free)
        for i in range(d_free.size):
            up, down = d_free.copy(), d_free.copy()
            up[i] += h
            down[i] -= h
            fd[i] = (objective_and_gradient(problem, mask, values, up)[0]
                     - objective_and_gradient(problem, mask, values, down)[0]) / (2.0 * h)
        gradient_worst = max(
            gradient_worst,
            float(np.linalg.norm(grad_free - fd) / np.linalg.norm(grad_free)),
        )
    gradient_ok = gradient_worst <= 1e-6

    grid_worst = 0.0
    for seed in (33, 34, 35):
        rng = np.random.default_rng(seed)
        shared = rng.normal(size=30)
        diff = 0.8 * np.vstack([shared, -shared, shared, -shared])
        diff = diff + rng.normal(size=(4, 30))
        truth = diff[:, 29]
        train = diff[:, :29]
        cov = covariance_matrix(train)
        mu = train.mean(axis=1)
        mask = np.asarray([True, False, True, False])
        problem = CovFitProblem(cov=cov, row_means=mu, n_train=29)
        result = fit(problem, mask, truth[mask])
        best_value, _ = covfit_grid_search(cov, mu, mask, truth[mask], 29)
        grid_worst = max(grid_worst, abs(result.objective - best_value))
    grid_ok = grid_worst <= 1e-4

    _criterion(11, "covariance fit oracles", identity_ok and gradient_ok and grid_ok,
               f"identity {identity_worst:.2e}, gradient {gradient_worst:.2e}, "
               f"grid {grid_worst:.2e}")


def test_criterion_12_pca_invariants(small_matrices):
    scaled = standardize(small_matrices.freq)
    result = pca(scaled)
    ortho_gap = float(np.max(np.abs(
        result.loadings.T @ result.loadings - np.eye(result.rank)
    )))
    recon_gap = float(np.max(np.abs(result.scores @ result.loadings.T - scaled.y)))
    _, agreement = truncated_bits(result, scaled, result.rank)
    again = pca(standardize(small_matrices.freq))
    deterministic = (
        result.loadings.tobytes() == again.loadings.tobytes()
        and result.scores.tobytes() == again.scores.tobytes()
    )
    ok = (ortho_gap <= 1e-8 and recon_gap <= 1e-8
          and agreement == 1.0 and deterministic)
    _criterion(12, "pca invariants", ok,
               f"ortho {ortho_gap:.2e}, recon {recon_gap:.2e}, "
               f"full-rank agreement {agreement}, deterministic {deterministic}")


def test_criterion_13_synthetic_ground_truth():
    config = SynthConfig(
        num_devices=200, num_ros=64, num_samples=1,
        geometry=GridGeometry(8, 8, "col"), seed=777,
        device_sigma=5.0, gradient_y_sigma=0.4, local_sigma=0.02,
    )
    readings, _, truth = generate(config)
    scaled = standardize(build_matrices(readings).freq)
    result = pca(scaled)
    yc = truth.coord_y - truth.coord_y.mean()
    yc = yc / np.linalg.norm(yc)
    cosine = max(
        abs(float(np.dot(result.loadings[:, col], yc)))
        / float(np.linalg.norm(result.loadings[:, col]))
        for col in range(2)
    )

    null_values = []
    for seed in range(20):
        null_config = preset("null", seed=seed)
        null_readings, _, _ = generate(null_config)
        matrices = build_matrices(null_readings)
        null_result = pca(standardize(matrices.freq))
        null_values.append(abs(pc_key_correlation(null_result, matrices.bits, 3)))
    null_worst = max(null_values)

    ok = cosine > 0.99 and null_worst < 0.2
    _criterion(13, "synthetic ground truth", ok,
               f"planted |cosine| {cosine:.4f}, null max |r| {null_worst:.3f}")


def test_criterion_14_end_to_end_determinism(tmp_path):
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--seed", "11", "--preset", "spatial",
                 "--devices", "24", "--ros", "32", "--samples", "2",
                 "--geometry", "4x8:col", "--out", str(synth_dir)]) == 0
    dataset = synth_dir / "dataset"
    args = ["--dataset", str(dataset), "--layout", "files",
            "--meta", str(dataset / "serials.csv")]
    outs = (tmp_path / "run1", tmp_path / "run2")
    for out in outs:
        assert main(["ingest"] + args + ["--out", str(out)]) == 0
        assert main(["normality"] + args + ["--out", str(out)]) == 0
        assert main(["entropy"] + args + ["--out", str(out)]) == 0
        assert main(["attack", "--seed", "5", "--devices", "2",
                     "--fixed-counts", "0,8,16"] + args + ["--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    mismatched = [
        name for name in names
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()
    ]
    manifest = json.loads((outs[0] / "entropy_manifest.json").read_text())
    _criterion(14, "end-to-end determinism", not mismatched,
               f"{len(names)} artifacts, hash {manifest['hash'][:12]}")
