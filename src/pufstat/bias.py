"""Bit bias and entropy estimates for the pair-difference responses.

Two per-pair estimates of the one-probability are computed:

* binary: the empirical fraction of devices whose bit is 1;
* normal model: ``Phi(mean / std)`` of the pair's frequency differences
  across devices, i.e. the probability that a Gaussian with the observed
  mean and standard deviation is positive. A positive mean difference
  biases the estimate toward 1.

Summing the binary entropies of the per-pair probabilities gives the total
response entropy in bits under a bit-independence assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, ValidationError
from .matrices import as_matrix, row_stds
from .normality import ndtr

NORMAL_MODEL_CONVENTION = (
    "one-probability = Phi(pair_mean / pair_std); "
    "a positive mean difference biases the bit toward 1"
)


def bias_binary(bits) -> np.ndarray:
    """Empirical one-probability per pair: ones count / device count."""
    return as_matrix(bits, "bit matrix").mean(axis=1, dtype=np.float64)


def bias_normal(diff) -> np.ndarray:
    """Normal-model one-probability per pair from the difference matrix."""
    d = as_matrix(diff, "difference matrix", np.float64)
    return ndtr(d.mean(axis=1) / row_stds(d, "pair rows"))


def entropy(probabilities) -> float:
    """Total entropy in bits of independent binary variables, 0*log(0) = 0."""
    p = np.asarray(probabilities, dtype=np.float64)
    if ((p < 0.0) | (p > 1.0)).any():
        raise ValidationError("probabilities must lie in [0, 1]")
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    return float(-np.sum(q * np.log2(q) + (1.0 - q) * np.log2(1.0 - q)))


def clamp_probabilities(probabilities, num_devices: int) -> np.ndarray:
    """Clip probabilities into [1/(2J), 1 - 1/(2J)] for J devices.

    Keeps log-probabilities finite for bits that were constant across the
    observed devices.
    """
    if num_devices < 1:
        raise ValidationError("device count must be positive")
    eps = 1.0 / (2.0 * num_devices)
    return np.clip(np.asarray(probabilities, dtype=np.float64), eps, 1.0 - eps)


def key_logprob(key, probabilities) -> float:
    """log2 probability of a key under independent per-bit one-probabilities.

    Sorting candidate keys by this value descending orders them from most to
    least likely, which is the order an enumeration attack should try them.
    """
    k = np.asarray(key)
    p = np.asarray(probabilities, dtype=np.float64)
    if k.shape != p.shape or k.ndim != 1:
        raise StructuralError(
            f"key shape {k.shape} does not match probability shape {p.shape}"
        )
    if ((p <= 0.0) | (p >= 1.0)).any():
        raise ValidationError(
            "probabilities must be strictly inside (0, 1); clamp first"
        )
    return float(np.sum(np.where(k == 1, np.log2(p), np.log2(1.0 - p))))


@dataclass(frozen=True)
class BiasReport:
    """Both one-probability estimates per pair, their total entropies in
    bits and the device count; a pair's bias is its probability minus 0.5."""

    p_binary: np.ndarray
    p_normal: np.ndarray
    entropy_binary: float
    entropy_normal: float
    num_devices: int
    convention: str = NORMAL_MODEL_CONVENTION


def bias_report(diff, bits) -> BiasReport:
    """Bundle both bias estimates and their total entropies."""
    p_bin = bias_binary(bits)
    p_norm = bias_normal(diff)
    if p_bin.shape != p_norm.shape:
        raise StructuralError(
            f"bit matrix has {p_bin.size} pairs but difference matrix has {p_norm.size}"
        )
    return BiasReport(
        p_binary=p_bin,
        p_normal=p_norm,
        entropy_binary=entropy(p_bin),
        entropy_normal=entropy(p_norm),
        num_devices=int(np.asarray(bits).shape[1]),
    )


def bias_histogram(report: BiasReport):
    """Histogram both bias series, p - 0.5, in ten left-closed bins of
    width 0.1 over [-0.5, 0.5].

    Returns (edges, counts_binary, counts_normal). The final bin is closed
    on both sides so a bias of exactly +0.5 is counted.
    """
    edges = -0.5 + 0.1 * np.arange(11)
    counts_bin, _ = np.histogram(report.p_binary - 0.5, bins=edges)
    counts_norm, _ = np.histogram(report.p_normal - 0.5, bins=edges)
    return edges, counts_bin, counts_norm
