"""Output checks for the pufstat benchmark, written without the library.

Expected values are recomputed with plain numpy from the generated input
files, never from pufstat code, so a change to a loader, a kernel or a
writer is checked against an independent derivation. Digests are compared
only within one benchmark run (manifest against disk, repeat against
repeat, traced against untraced); no golden digest gates a run, because a
later change may alter an artifact on purpose.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHAIN_MANIFESTS = frozenset(
    ("ingest", "normality", "similarity", "entropy", "correlate", "attack", "pca", "report")
)
ATTACK_MODES = ("trend", "exact")
# Defaults of the pufstat CLI that the workloads rely on.
MIN_GROUP = 5
FIXED_COUNT_STEPS = 8
RTOL = 1e-9


class CheckError(Exception):
    """An artifact disagrees with its manifest or with the recomputation."""


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over every file below ``root``: relative path and content digest."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(bytes.fromhex(sha256_file(path)))
    return h.hexdigest()


def check_manifests(out: Path, expected: frozenset) -> None:
    """Every manifest is present, every digest matches, no file is unlisted."""
    manifests = sorted(out.glob("*_manifest.json"))
    found = {p.name[: -len("_manifest.json")] for p in manifests}
    if found != set(expected):
        raise CheckError(f"manifests {sorted(found)} in {out}, expected {sorted(expected)}")
    listed = {p.name for p in manifests}
    for manifest in manifests:
        for name, digest in json.loads(manifest.read_text())["artifacts"].items():
            path = out / name
            if not path.is_file() or sha256_file(path) != digest:
                raise CheckError(f"{name} does not match its digest in {manifest.name}")
            listed.add(name)
    stray = sorted({p.name for p in out.iterdir() if p.is_file()} - listed)
    if stray:
        raise CheckError(f"files in {out} listed by no manifest: {stray}")


def read_readings(dataset: Path, layout: str, shape: tuple[int, int, int]) -> np.ndarray:
    """Parse the generated dataset into a devices x ROs x samples array."""
    num_devices, num_ros, num_samples = shape
    if layout == "files":
        files = sorted(dataset.glob("*.txt"))
        if len(files) != num_devices:
            raise CheckError(f"{len(files)} device files in {dataset}, expected {num_devices}")
        tensor = np.empty(shape)
        for j, path in enumerate(files):
            values = np.array(path.read_bytes().split(), dtype=np.float64)
            if values.size != num_ros * num_samples:
                raise CheckError(f"{path.name} holds {values.size} readings")
            tensor[j] = values.reshape(num_ros, num_samples)
        return tensor
    header, _, body = (dataset / "readings.csv").read_bytes().partition(b"\n")
    if header.strip() != b"device,ro,sample,freq_mhz":
        raise CheckError(f"readings.csv header is {header!r}")
    table = np.array(body.replace(b",", b" ").split(), dtype=np.float64).reshape(-1, 4)
    if table.shape[0] != num_devices * num_ros * num_samples:
        raise CheckError(f"readings.csv holds {table.shape[0]} readings")
    idx = table[:, :3].astype(np.int64)
    tensor = np.full(shape, np.nan)
    tensor[idx[:, 0], idx[:, 1], idx[:, 2]] = table[:, 3]
    if np.isnan(tensor).any():
        raise CheckError("readings.csv does not cover the dense cube")
    return tensor


@dataclass(frozen=True)
class Expected:
    """Headline numbers recomputed from the raw readings."""

    dev: np.ndarray  # ROs x devices, device mean over ROs removed
    entropy_binary_bits: float
    variance_fractions: np.ndarray

    @property
    def num_devices(self) -> int:
        return self.dev.shape[1]

    @property
    def num_pairs(self) -> int:
        return self.dev.shape[0] // 2

    @classmethod
    def from_readings(cls, tensor: np.ndarray) -> "Expected":
        freq = tensor.mean(axis=2).T
        diff = freq[1::2] - freq[0::2]
        p = (diff > 0.0).mean(axis=1)
        q = p[(p > 0.0) & (p < 1.0)]
        entropy = float(-np.sum(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q)))
        z = (freq - freq.mean(axis=1, keepdims=True)) / freq.std(axis=1, ddof=1, keepdims=True)
        s = np.linalg.svd(z, compute_uv=False)
        return cls(
            dev=freq - freq.mean(axis=0, keepdims=True),
            entropy_binary_bits=entropy,
            variance_fractions=s * s / np.sum(s * s),
        )


def _close(got: float, want: float, rtol: float = RTOL, atol: float = 0.0) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


def _table(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def check_entropy(out: Path, exp: Expected) -> None:
    got = json.loads((out / "entropy.json").read_text())["entropy_binary_bits"]
    if not _close(got, exp.entropy_binary_bits):
        raise CheckError(f"entropy_binary_bits {got!r}, recomputed {exp.entropy_binary_bits!r}")


def check_pca(out: Path, exp: Expected) -> None:
    got = np.array([float(r["variance_fraction"]) for r in _table(out / "pca_fractions.csv")])
    want = exp.variance_fractions
    # Fractions sum to 1; trailing ones of a rank-deficient matrix are ~1e-30,
    # so an absolute floor is needed beside the relative tolerance.
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-7, atol=1e-12):
        raise CheckError("pca_fractions.csv variance fractions disagree with the recomputed SVD")


def check_group_variance(out: Path, exp: Expected, rng: np.random.Generator) -> None:
    """Spot-check windows of group_variance.dat by the direct var(ddof=1) formula."""
    num_devices = exp.num_devices
    starts = num_devices - MIN_GROUP + 1
    lines = [ln for ln in (out / "group_variance.dat").read_bytes().split(b"\n")
             if ln and not ln.startswith(b"#")]
    if len(lines) != starts * (starts + 1) // 2:
        raise CheckError(f"group_variance.dat has {len(lines)} windows")
    windows = [(0, MIN_GROUP - 1), (0, num_devices - 1), (starts - 1, num_devices - 1)]
    for _ in range(5):
        a = int(rng.integers(0, starts))
        windows.append((a, int(rng.integers(a + MIN_GROUP - 1, num_devices))))
    for a, b in windows:
        index = a * starts - a * (a - 1) // 2 + (b - a - MIN_GROUP + 1)
        fields = lines[index].split()
        if (int(fields[0]), int(fields[1])) != (a, b):
            raise CheckError(f"group_variance.dat line {index} is not window {a}..{b}")
        want = float(exp.dev[:, a : b + 1].var(axis=1, ddof=1).mean())
        if not _close(float(fields[2]), want):
            raise CheckError(f"group variance {a}..{b} is {fields[2]!r}, recomputed {want!r}")


def check_attack(out: Path, exp: Expected, num_targets: int) -> None:
    """Cell count, delta range and the envelope derived from attack.csv."""
    pairs = exp.num_pairs
    counts = [pairs * k // FIXED_COUNT_STEPS for k in range(FIXED_COUNT_STEPS)]
    rows = _table(out / "attack.csv")
    if len(rows) != num_targets * len(ATTACK_MODES) * len(counts):
        raise CheckError(f"attack.csv has {len(rows)} cells")
    cells = {}
    for row in rows:
        key = (int(row["device"]), row["mode"], int(row["fixed_count"]))
        if key[1] not in ATTACK_MODES or key[2] not in counts or key in cells:
            raise CheckError(f"unexpected or repeated attack cell {key}")
        if not 0 <= key[0] < exp.num_devices:
            raise CheckError(f"attack target {key[0]} out of range")
        if row["delta_correct"] == "":
            raise CheckError(f"attack cell {key} failed")
        delta = int(row["delta_correct"])
        if abs(delta) > pairs - key[2]:
            raise CheckError(f"attack cell {key} delta {delta} exceeds its free pairs")
        cells[key] = delta
    if len({device for device, _, _ in cells}) != num_targets:
        raise CheckError("attack.csv does not cover the requested number of targets")
    envelope = {}
    mode = None
    for line in (out / "attack_envelope.dat").read_text().splitlines():
        if line.startswith("# mode:"):
            mode = line.split(":", 1)[1].strip()
        elif line and not line.startswith("#"):
            count, lo, hi = line.split()
            envelope[(mode, int(count))] = (float(lo), float(hi))
    for mode in ATTACK_MODES:
        for count in counts:
            deltas = [d for (_, m, c), d in cells.items() if m == mode and c == count]
            if envelope.get((mode, count)) != (min(deltas), max(deltas)):
                raise CheckError(f"attack_envelope.dat row {mode}/{count} disagrees with attack.csv")
