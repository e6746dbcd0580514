import json

import numpy as np
import pytest
from scipy.special import ndtr

from pufstat.bias import bias_normal
from pufstat.correlation import fit_line, profile
from pufstat.cli import main
from pufstat.dataset import LayoutSpec, write_dataset
from pufstat.errors import ConfigurationError, ParseError, StructuralError
from pufstat.geometry import GridGeometry
from pufstat.matrices import build_matrices
from pufstat.normality import test_rows
from pufstat.syngen import GroundTruth, SynthConfig, generate, preset


def test_all_zero_sigmas_give_base_frequency():
    config = SynthConfig(
        num_devices=3, num_ros=4, num_samples=2,
        geometry=GridGeometry(2, 2, "row"), seed=5,
    )
    readings, _, truth = generate(config)
    assert np.all(readings.values == 200.0)
    assert np.all(truth.true_freq == 200.0)
    assert np.all(truth.device_offsets == 0.0)
    assert np.all(truth.local == 0.0)


def test_same_seed_bit_identical(small_synthetic):
    config, tensor, meta, truth = small_synthetic
    again_tensor, again_meta, again_truth = generate(config)
    assert tensor.values.tobytes() == again_tensor.values.tobytes()
    assert np.array_equal(meta.serials, again_meta.serials)
    assert truth.true_freq.tobytes() == again_truth.true_freq.tobytes()


def test_different_seeds_differ():
    base = dict(num_devices=4, num_ros=8, num_samples=1,
                geometry=GridGeometry(2, 4, "col"), local_sigma=1.0)
    a, _, _ = generate(SynthConfig(seed=1, **base))
    b, _, _ = generate(SynthConfig(seed=2, **base))
    assert not np.array_equal(a.values, b.values)


def test_per_device_streams_are_isolated():
    # Adding more devices must not perturb the ones already generated.
    base = dict(num_ros=8, num_samples=2, geometry=GridGeometry(2, 4, "col"),
                device_sigma=2.0, local_sigma=1.0, meas_sigma=0.1)
    small, _, _ = generate(SynthConfig(seed=9, num_devices=3, **base))
    large, _, _ = generate(SynthConfig(seed=9, num_devices=5, **base))
    assert np.array_equal(small.values, large.values[:3])


def test_serials_strictly_increasing(small_synthetic):
    _, _, meta, _ = small_synthetic
    assert np.all(np.diff(meta.serials) > 0)
    assert meta.serials[0] >= 100_000


def test_ground_truth_composition_is_exact(small_synthetic):
    config, tensor, _, truth = small_synthetic
    xc, yc = config.geometry.centered_coordinates()
    for j in (0, 7, 31):
        recomposed = (
            config.base_freq
            + truth.device_offsets[j]
            + truth.gradients_x[j] * xc
            + truth.gradients_y[j] * yc
            + truth.local[:, j]
            + truth.ro_mean_offsets
        )
        assert np.array_equal(recomposed, truth.true_freq[:, j])
    # Sample means converge on the true frequency as noise averages out.
    freq = build_matrices(tensor).freq
    assert np.max(np.abs(freq - truth.true_freq)) < 6.0 * 0.05


def test_ro_mean_offsets_applied():
    offsets = np.arange(4, dtype=np.float64)
    config = SynthConfig(
        num_devices=2, num_ros=4, num_samples=1,
        geometry=GridGeometry(2, 2, "row"), seed=3, ro_mean_offsets=offsets,
    )
    readings, _, truth = generate(config)
    assert np.array_equal(truth.ro_mean_offsets, offsets)
    assert np.allclose(readings.values[0, :, 0], 200.0 + offsets)


def test_config_dict_lists_every_field():
    config = SynthConfig(num_devices=3, num_ros=4, num_samples=2, geometry=GridGeometry(2, 2),
                         seed=5, local_sigma=0.5, ro_mean_offsets=[0.0, 1.0, 2.0, 3.5])
    described = json.loads(json.dumps(config.to_dict()))
    assert described == {
        "num_devices": 3, "num_ros": 4, "num_samples": 2, "geometry": "2x2:col", "seed": 5,
        "base_freq": 200.0, "device_sigma": 0.0, "gradient_x_sigma": 0.0,
        "gradient_y_sigma": 0.0, "local_sigma": 0.5, "meas_sigma": 0.0,
        "ro_mean_offsets": [0.0, 1.0, 2.0, 3.5],
    }
    assert preset("spatial", seed=1).to_dict()["ro_mean_offsets"] is None


def test_config_validation():
    geo = GridGeometry(2, 2, "row")
    with pytest.raises(ConfigurationError, match="positive"):
        SynthConfig(num_devices=0, num_ros=4, num_samples=1, geometry=geo, seed=1)
    with pytest.raises(ConfigurationError, match="cells"):
        SynthConfig(num_devices=2, num_ros=8, num_samples=1, geometry=geo, seed=1)
    with pytest.raises(ConfigurationError, match="non-negative"):
        SynthConfig(num_devices=2, num_ros=4, num_samples=1, geometry=geo,
                    seed=1, local_sigma=-0.1)
    with pytest.raises(ConfigurationError, match="base"):
        SynthConfig(num_devices=2, num_ros=4, num_samples=1, geometry=geo,
                    seed=1, base_freq=0.0)
    with pytest.raises(ConfigurationError, match="ro_mean_offsets"):
        SynthConfig(num_devices=2, num_ros=4, num_samples=1, geometry=geo,
                    seed=1, ro_mean_offsets=[1.0, 2.0])
    with pytest.raises(ConfigurationError, match="a seed is a non-negative integer, got -1"):
        preset("spatial", seed=-1, num_devices=2, num_ros=4, geometry=geo)


def test_odd_ro_config_builds_and_ingest_refuses_its_dataset(tmp_path, capsys):
    # Only the pairing knows its parity: synth writes an odd-RO set, and the
    # stages refuse it when they pair its ROs.
    config = SynthConfig(num_devices=3, num_ros=3, num_samples=2,
                         geometry=GridGeometry(1, 3, "row"), seed=1, local_sigma=0.5)
    readings, meta, _ = generate(config)
    assert readings.values.shape == (3, 3, 2)
    write_dataset(readings, tmp_path / "dataset", LayoutSpec(), meta=meta)
    assert main(["ingest", "--dataset", str(tmp_path / "dataset"),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "pufstat: configuration error: RO count must be even for pairwise grouping, got 3"]


def test_generated_rows_pass_normality_at_expected_rate():
    config = preset("null", seed=20140512, num_devices=200)
    readings, _, _ = generate(config)
    freq = build_matrices(readings).freq
    results, _ = test_rows(freq)
    fraction = float(np.mean([r.reject_at_1pct for r in results]))
    assert fraction <= 0.03


def test_planted_bias_matches_normal_model():
    # One pair with a deliberate mean shift delta: the exact hit probability
    # is Phi(delta / (sqrt(2) * sigma)), checked at J = 10000 devices.
    delta, sigma = 0.4, 1.0
    offsets = np.asarray([0.0, delta, 0.0, delta])
    config = SynthConfig(
        num_devices=10_000, num_ros=4, num_samples=1,
        geometry=GridGeometry(2, 2, "row"), seed=606,
        local_sigma=sigma, ro_mean_offsets=offsets,
    )
    readings, _, _ = generate(config)
    matrices = build_matrices(readings)
    expected = float(ndtr(delta / (np.sqrt(2.0) * sigma)))

    empirical = matrices.bits.mean(axis=1)
    mc_sigma = np.sqrt(expected * (1.0 - expected) / 10_000)
    assert abs(empirical[0] - expected) < 5.0 * mc_sigma
    assert abs(empirical[1] - expected) < 5.0 * mc_sigma

    modeled = bias_normal(matrices.diff)
    assert abs(modeled[0] - expected) < 0.02
    assert abs(modeled[1] - expected) < 0.02


def test_local_only_difference_profile_is_white():
    config = SynthConfig(
        num_devices=200, num_ros=512, num_samples=1,
        geometry=GridGeometry(16, 32, "col"), seed=14, local_sigma=1.0,
    )
    readings, _, _ = generate(config)
    matrices = build_matrices(readings)
    result = profile(matrices.dev)
    slope, _ = fit_line(np.abs(result.coefficients[:-1]))
    assert abs(slope) < 5e-4


def test_ground_truth_round_trips_through_synth_output(tmp_path):
    # synth writes the record; GroundTruth.load rebuilds every array of it
    # bit for bit, the matrices as float64 ROs x devices. The spatial preset
    # draws device offsets and gradients, so those vectors are not zeros.
    out = tmp_path / "synth"
    assert main(["synth", "--seed", "11", "--preset", "spatial", "--devices", "6", "--ros", "16",
                 "--samples", "2", "--geometry", "4x4:row", "--out", str(out)]) == 0
    _, _, truth = generate(preset("spatial", seed=11, num_devices=6, num_ros=16, num_samples=2,
                                  geometry=GridGeometry(4, 4, "row")))
    loaded = GroundTruth.load(out)
    assert loaded.config == truth.config
    assert loaded.config["geometry"] == "4x4:row"
    for name in ("local", "true_freq"):
        assert getattr(loaded, name).dtype == np.float64
        assert getattr(loaded, name).shape == (16, 6)
    for name in ("coord_x", "coord_y", "device_offsets", "gradients_x", "gradients_y", "local",
                 "ro_mean_offsets", "serials", "true_freq"):
        assert getattr(loaded, name).dtype == getattr(truth, name).dtype, name
        assert getattr(loaded, name).tobytes() == getattr(truth, name).tobytes(), name
    payload = json.loads((out / "ground_truth.json").read_text())
    assert "local" not in payload and "true_freq" not in payload


def test_ground_truth_load_refuses_a_malformed_record(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--seed", "2", "--devices", "4", "--ros", "16", "--samples", "2",
                 "--geometry", "4x4:col", "--out", str(out)]) == 0
    np.save(out / "ground_truth_local.npy", np.zeros((4, 16)))
    with pytest.raises(StructuralError, match=r"local is float64 \(4, 16\), expected \(16, 4\)"):
        GroundTruth.load(out)
    np.save(out / "ground_truth_local.npy", np.zeros((16, 4), dtype=np.float32))
    with pytest.raises(StructuralError, match="local is float32"):
        GroundTruth.load(out)
    np.save(out / "ground_truth_local.npy", np.array([{}, {}]), allow_pickle=True)
    with pytest.raises(ParseError, match="malformed ground truth"):
        GroundTruth.load(out)
    payload = json.loads((out / "ground_truth.json").read_text())
    del payload["serials"]
    (out / "ground_truth.json").write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="serials"):
        GroundTruth.load(out)
    (out / "ground_truth.json").write_text("{")
    with pytest.raises(ParseError, match="malformed ground truth"):
        GroundTruth.load(out)


def test_presets():
    null = preset("null", seed=1)
    assert null.device_sigma == 0.0 and null.local_sigma > 0.0
    spatial = preset("spatial", seed=1)
    assert spatial.gradient_x_sigma > 0.0 and spatial.gradient_y_sigma > 0.0
    noisy = preset("noisy", seed=1)
    assert noisy.meas_sigma > 0.0
    override = preset("null", seed=1, num_devices=10)
    assert override.num_devices == 10
    with pytest.raises(ConfigurationError, match="preset"):
        preset("fancy", seed=1)
