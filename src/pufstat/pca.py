"""Principal component analysis of the standardized frequency matrix.

Rows of the analyzed matrix are devices (observations) and columns are ROs
(variables); each column is centered and scaled to unit sample variance
before a thin singular value decomposition. Loadings are the right singular
vectors, scores are the left singular vectors scaled by the singular values,
and each component's variance fraction is its squared singular value over
the total.

A deterministic sign convention is applied: each loading column is flipped,
together with its score column, so that its largest-magnitude entry is
positive. Repeated runs on identical input produce bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .correlation import pearson
from .errors import ConfigurationError, DegenerateDataError, NumericError, StructuralError
from .geometry import GridGeometry
from .matrices import pair_differences, response_bits


@dataclass(frozen=True)
class ScaledData:
    """Standardized device-by-RO matrix plus the statistics to undo it."""

    y: np.ndarray
    col_means: np.ndarray
    col_stds: np.ndarray

    def __post_init__(self):
        for name in ("y", "col_means", "col_stds"):
            getattr(self, name).setflags(write=False)

    @property
    def num_devices(self) -> int:
        return self.y.shape[0]

    @property
    def num_ros(self) -> int:
        return self.y.shape[1]

    @cached_property
    def bits(self) -> np.ndarray:
        """Read-only response bits of the unreduced data, derived once."""
        bits = response_bits(pair_differences(self.unscale()))
        bits.setflags(write=False)
        return bits

    def unscale(self, y=None) -> np.ndarray:
        """Map (a reconstruction of) y back to an RO-by-device matrix in MHz."""
        body = self.y if y is None else y
        return (body * self.col_stds[None, :] + self.col_means[None, :]).T


def standardize(freq) -> ScaledData:
    """Center and unit-scale each RO across devices, then transpose.

    Input is the RO-by-device frequency matrix; the result's rows are
    devices. Uses the sample standard deviation (N-1 divisor).
    """
    f = np.asarray(freq, dtype=np.float64)
    if f.ndim != 2:
        raise StructuralError(f"frequency matrix must be 2-dimensional, got {f.shape}")
    if f.shape[1] < 2:
        raise DegenerateDataError("need at least 2 devices to standardize")
    means = f.mean(axis=1)
    stds = f.std(axis=1, ddof=1)
    dead = np.flatnonzero(~(stds > 0.0))
    if dead.size:
        raise DegenerateDataError(
            f"ROs with zero variance across devices: {dead.tolist()}"
        )
    y = ((f - means[:, None]) / stds[:, None]).T
    return ScaledData(y=np.ascontiguousarray(y), col_means=means, col_stds=stds)


@dataclass(frozen=True)
class PCAResult:
    loadings: np.ndarray
    scores: np.ndarray
    singular_values: np.ndarray
    variance_fractions: np.ndarray

    def __post_init__(self):
        for name in ("loadings", "scores", "singular_values", "variance_fractions"):
            getattr(self, name).setflags(write=False)

    @property
    def rank(self) -> int:
        return self.singular_values.size


def pca(scaled: ScaledData) -> PCAResult:
    """Thin SVD of the standardized matrix with a fixed sign convention.

    The result knows nothing of the chip grid; ``loading_map`` takes it."""
    try:
        u, s, vt = np.linalg.svd(scaled.y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular value decomposition failed: {exc}") from exc
    total = float(np.sum(s * s))
    if total == 0.0:
        raise DegenerateDataError("standardized matrix is identically zero")
    loadings = vt.T.copy()
    scores = u * s[None, :]
    # Flip each component so its largest-magnitude loading entry is positive.
    anchors = np.take_along_axis(loadings, np.abs(loadings).argmax(axis=0)[None, :], axis=0)
    signs = np.where(anchors < 0.0, -1.0, 1.0)
    loadings *= signs
    scores *= signs
    fractions = (s * s) / total
    return PCAResult(
        loadings=loadings,
        scores=scores,
        singular_values=s,
        variance_fractions=fractions,
    )


def _check_pc(result: PCAResult, pc: int) -> int:
    if not (1 <= pc <= result.rank):
        raise ConfigurationError(
            f"principal component {pc} out of range 1..{result.rank}"
        )
    return pc - 1


def loading_map(result: PCAResult, pc: int, geometry: GridGeometry) -> np.ndarray:
    """Reshape one loading vector onto the chip grid ``geometry``, which must
    have one cell per RO. ``pc`` is 1-based."""
    col = _check_pc(result, pc)
    geometry.check_ros(result.loadings.shape[0])
    return geometry.to_grid(result.loadings[:, col])


def truncated_bits(result: PCAResult, scaled: ScaledData, r: int) -> tuple[np.ndarray, float]:
    """Reconstruct from the top ``r`` components and re-derive response bits.

    Returns the reconstructed bit matrix and the fraction of entries that
    agree with the bits derived from the unreduced data. Both derivations
    use the pairing and bit rule of :mod:`pufstat.matrices`.
    """
    if not (1 <= r <= result.rank):
        raise ConfigurationError(f"rank {r} out of range 1..{result.rank}")
    y_r = result.scores[:, :r] @ result.loadings[:, :r].T
    bits_hat = response_bits(pair_differences(scaled.unscale(y_r)))
    agreement = float((bits_hat == scaled.bits).mean())
    return bits_hat, agreement


def pc_key_correlation(result: PCAResult, bits, pc: int) -> float:
    """Correlate per-device ones counts with a component's scores. 1-based."""
    col = _check_pc(result, pc)
    b = np.asarray(bits)
    if b.ndim != 2 or b.shape[1] != result.scores.shape[0]:
        raise StructuralError(
            f"bit matrix shape {b.shape} does not cover {result.scores.shape[0]} devices"
        )
    ones = b.sum(axis=0).astype(np.float64)
    return pearson(ones, result.scores[:, col])
