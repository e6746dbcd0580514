import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy loads, as importing pufstat first would
# set it: the attack's targets then run in forked shares here too.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))

from pufstat.dataset import LayoutSpec, load_metadata, load_readings
from pufstat.geometry import GridGeometry
from pufstat.matrices import build_matrices
from pufstat.syngen import SynthConfig, generate


def force_parts(monkeypatch, module, constant: str, parts: int) -> list:
    """Make ``module.constant``, the least work a part takes, 1 and the
    affinity mask ``parts`` CPUs, so a job runs in ``parts`` parts where its
    input can be cut that far; return the list that records each fork."""
    monkeypatch.setattr(module, constant, 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.fixture(scope="session")
def small_synthetic():
    """A modest spatially structured dataset shared across tests."""
    config = SynthConfig(
        num_devices=48,
        num_ros=64,
        num_samples=3,
        geometry=GridGeometry(8, 8, "col"),
        seed=1234,
        device_sigma=4.0,
        gradient_x_sigma=0.25,
        gradient_y_sigma=0.35,
        local_sigma=0.6,
        meas_sigma=0.05,
    )
    tensor, meta, truth = generate(config)
    return config, tensor, meta, truth


@pytest.fixture(scope="session")
def small_matrices(small_synthetic):
    _, tensor, _, _ = small_synthetic
    return build_matrices(tensor)


def _reference_layout(root: Path) -> LayoutSpec:
    override = os.environ.get("PUFSTAT_DATASET_LAYOUT")
    if override:
        return LayoutSpec.parse(override)
    if root.is_file():
        return LayoutSpec.parse("csv")
    return LayoutSpec()


@pytest.fixture(scope="session")
def reference_dataset():
    """The real 193-device measurement campaign, when available.

    Point PUFSTAT_DATASET at the dataset directory (or consolidated CSV) to
    enable the dataset-conditional acceptance checks; optionally set
    PUFSTAT_DATASET_LAYOUT and PUFSTAT_META.
    """
    root = os.environ.get("PUFSTAT_DATASET")
    if not root:
        pytest.skip("reference dataset not available (set PUFSTAT_DATASET)")
    root = Path(root)
    layout = _reference_layout(root)
    readings = load_readings(root, layout)
    meta = None
    meta_path = os.environ.get("PUFSTAT_META")
    if meta_path:
        meta = load_metadata(meta_path, readings.num_devices)
    return readings, meta


@pytest.fixture(scope="session")
def reference_matrices(reference_dataset):
    readings, _ = reference_dataset
    return build_matrices(readings)
