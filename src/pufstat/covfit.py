"""Covariance-fitting attack on pair-difference responses.

The attack models how a population covariance matrix changes when one more
device is appended. With ``C`` the covariance over ``n`` training devices
(population divisor) and ``d = b - mu`` the new device's difference vector
minus the training row means, the updated covariance is

    C_new = (n * C + d d^T) / (n + 1)

provided the shift in the row means is neglected. The residual
``C_new - C = (d d^T - C) / (n + 1)`` is therefore a known function of the
unknown vector ``d``, and an attacker who assumes the population covariance
barely moves can recover a plausible ``d`` by driving the residual's squared
Frobenius norm to a minimum:

    f(d) = ||d d^T - C||_F^2 / (n + 1)^2
    grad f(d) = 4 (d d^T - C) d / (n + 1)^2

Some coordinates of ``b`` may be pinned to values the attacker knows: the
exact measured differences ("exact" mode) or just their signs scaled to
+-1 MHz ("trend" mode). The remaining free coordinates are optimized by
projected gradient descent with a backtracking line search, starting from
the training row means (d_free = 0).

The payoff metric is ``delta_correct``: how many more response bits the
fitted vector gets right compared to the starting point.

Priced line search. With the unscaled objective
``F(x) = |x|^4 - 2 x.Cx + ||C||_F^2``, a trial ``x = d - a g`` along the
projected gradient ``g`` has

    F(d - a g) = (d.d - 2a d.g + a^2 g.g)^2
                 - 2 (d.Cd - a (d.Cg + g.Cd) + a^2 g.Cg) + ||C||_F^2,

so one mat-vec ``Cg`` per iteration and five dot products beyond ``d.d``
and ``g.g``, which the step already has, price every backtracking trial.
``d.Cg`` and ``g.Cd`` stay apart because ``C`` need only be symmetric to
1e-8. The price only ever rejects: a trial whose price exceeds the Armijo
threshold by more than ``B(a)`` is dropped without a mat-vec. Every other
trial is evaluated exactly as the plain loop evaluates it (``C @ x`` and the
same expression), and only that exact value decides acceptance and becomes
the next state. Iterates, iteration counts, objectives and stop reasons are
therefore bit-for-bit those of evaluating every trial.

``B(a)`` bounds the difference between the price and the exact evaluation.
Write ``u = 2^-53``, ``k`` for the vector length, ``N = ||C||_F`` and
``R = |d| + a|g|``. Every term either computation sums is bounded in
absolute value by ``M = (R^2 + N)^2``, because ``|x| <= R`` and
``|x|^T |C| |x| <= N |x|^2``. Length-``k`` dot products and mat-vecs err by
at most ``k u`` times the sum of their absolute terms in any summation
order, so the exact evaluation differs from ``F(d - a g)`` by at most
``(2k + 11) u M`` (the ``C`` mat-vec and the dot products, the final sums,
and the rounding of ``d - a g`` itself) and the price by at most
``(2k + 15) u M`` (its six dot products and the combination). ``||C||_F^2``
is the same float in both and cancels. ``B(a) = 8 (k + 8) u M + 1e-300``
keeps a factor of two over their sum, which absorbs the second-order terms
and the rounding of ``M`` and of the comparison, and its absolute floor
covers gradual underflow. A price that is not finite, or a bound that is
not, rejects nothing. On random problems with k from 2 to 256 the largest
difference seen was 1.1 (k + 8) u M. On a 48-target sweep of a 193-device,
256-pair dataset, 56 of 113,732 trials were evaluated exactly and then
rejected; every other rejection was priced.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import InitVar, dataclass

import numpy as np

from .correlation import covariance_matrix
from .errors import ConfigurationError, NumericError, StructuralError

MODES = ("trend", "exact")

# Unit roundoff of float64: the relative error of one rounded operation.
_UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class FitOptions:
    """Gradient descent controls.

    ``start_free`` optionally overrides the zero starting point of the free
    coordinates of ``d``; the default reproduces the mean-start protocol.
    """

    max_iter: int = 5000
    grad_tol: float = 1e-8
    objective_tol: float = 1e-12
    armijo_c: float = 1e-4
    backtrack: float = 0.5
    start_free: np.ndarray | None = None


def check_covariance(cov) -> np.ndarray:
    """Check that the square matrix ``cov`` is symmetric and positive
    semidefinite, both to 1e-8 of its largest entry; return it as float64."""
    cov = np.asarray(cov, dtype=np.float64)
    scale = float(np.abs(cov).max()) or 1.0
    if float(np.abs(cov - cov.T).max()) > 1e-8 * scale:
        raise ConfigurationError("covariance matrix is not symmetric")
    eigmin = float(np.linalg.eigvalsh((cov + cov.T) / 2.0).min())
    if eigmin < -1e-8 * scale:
        raise ConfigurationError(
            f"covariance matrix is not positive semidefinite (eigmin {eigmin:g})"
        )
    return cov


@dataclass(frozen=True)
class CovFitProblem:
    """One attack instance.

    ``cov`` and ``row_means`` come from the training devices, ``n_train`` of
    them, with ``cov`` using the population divisor. ``fixed_mask`` marks the
    pinned coordinates and ``fixed_values`` holds their pinned values of
    ``b`` in mask order. ``truth`` (the target's real difference vector) is
    optional and only used for scoring. ``covariance_checked=True`` skips
    ``check_covariance`` for a ``cov`` that has already passed it.
    """

    cov: np.ndarray
    row_means: np.ndarray
    n_train: int
    fixed_mask: np.ndarray
    fixed_values: np.ndarray
    mode: str = "exact"
    trend_magnitude: float = 1.0
    truth: np.ndarray | None = None
    covariance_checked: InitVar[bool] = False

    def __post_init__(self, covariance_checked):
        cov = np.asarray(self.cov, dtype=np.float64)
        mu = np.asarray(self.row_means, dtype=np.float64).ravel()
        mask = np.asarray(self.fixed_mask, dtype=bool).ravel()
        vals = np.asarray(self.fixed_values, dtype=np.float64).ravel()
        k = mu.size
        if cov.shape != (k, k):
            raise ConfigurationError(
                f"covariance shape {cov.shape} does not match {k} row means"
            )
        if mask.size != k:
            raise ConfigurationError(
                f"fixed mask covers {mask.size} positions, expected {k}"
            )
        if vals.size != int(mask.sum()):
            raise ConfigurationError(
                f"{vals.size} fixed values for {int(mask.sum())} fixed positions"
            )
        if self.mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "trend" and vals.size:
            if not np.all(np.isclose(np.abs(vals), self.trend_magnitude)):
                raise ConfigurationError(
                    f"trend mode pins values to +-{self.trend_magnitude} MHz"
                )
        if not covariance_checked:
            check_covariance(cov)
        if self.n_train < 1:
            raise ConfigurationError("n_train must be positive")
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=np.float64).ravel()
            if truth.size != k:
                raise ConfigurationError(
                    f"truth vector has {truth.size} entries, expected {k}"
                )
            object.__setattr__(self, "truth", truth)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "row_means", mu)
        object.__setattr__(self, "fixed_mask", mask)
        object.__setattr__(self, "fixed_values", vals)

    @property
    def num_pairs(self) -> int:
        return self.row_means.size

    @property
    def num_free(self) -> int:
        return int((~self.fixed_mask).sum())


@dataclass(frozen=True)
class CovFitResult:
    b_hat: np.ndarray
    objective: float
    start_objective: float
    iterations: int
    bits_hat: np.ndarray
    delta_correct: int | None
    stop_reason: str


def bits_from_values(values) -> np.ndarray:
    """Response bits: 1 where the difference is strictly positive."""
    return (np.asarray(values, dtype=np.float64) > 0.0).astype(np.uint8)


def expanded_cov_residual(cov, row_means, b, n_train: int) -> np.ndarray:
    """Residual C_new - C after appending difference vector ``b``.

    Computed through the rank-one identity (d d^T - C) / (n + 1) with
    d = b - row_means; equivalent to re-deriving the covariance over n + 1
    devices with the old row means.
    """
    c = np.asarray(cov, dtype=np.float64)
    mu = np.asarray(row_means, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if c.shape != (mu.size, mu.size) or bv.size != mu.size:
        raise StructuralError(
            f"inconsistent shapes: cov {c.shape}, means {mu.size}, b {bv.size}"
        )
    if n_train < 1:
        raise ConfigurationError("n_train must be positive")
    d = bv - mu
    return (np.outer(d, d) - c) / (n_train + 1.0)


def _objective_terms(cov):
    """``||C||_F^2`` and a function giving the unscaled objective, ``C d`` and
    ``d.d`` at ``d``."""
    cov_fro2 = float(np.sum(cov * cov))

    def f_and_cd(d):
        cd = cov @ d
        dd = float(np.dot(d, d))
        value = dd * dd - 2.0 * float(np.dot(d, cd)) + cov_fro2
        return value, cd, dd

    return cov_fro2, f_and_cd


def _assemble(problem: CovFitProblem, d_free) -> np.ndarray:
    free = ~problem.fixed_mask
    start = np.asarray(d_free, dtype=np.float64).ravel()
    if start.size != int(free.sum()):
        raise ConfigurationError(
            f"got {start.size} free values for {int(free.sum())} free coordinates"
        )
    d = np.zeros(problem.num_pairs)
    d[problem.fixed_mask] = problem.fixed_values - problem.row_means[problem.fixed_mask]
    d[free] = start
    return d


def objective_and_gradient(problem: CovFitProblem, d_free) -> tuple[float, np.ndarray]:
    """Objective value and full-length gradient at the given free vector.

    Gradient entries at fixed positions are zeroed, matching the projected
    descent direction.
    """
    d = _assemble(problem, d_free)
    scale = 1.0 / (problem.n_train + 1.0) ** 2
    f_raw, cd, dd = _objective_terms(problem.cov)[1](d)
    grad = 4.0 * (dd * d - cd) * scale
    grad[problem.fixed_mask] = 0.0
    return f_raw * scale, grad


def _trial_pricer(cov, d, grad, cd, dd, gnorm2, cov_fro2):
    """Return ``surely_rejected(alpha, threshold)`` for trials ``d - alpha*grad``:
    true only when the priced objective (module docstring) exceeds the Armijo
    threshold by more than its rounding bound, so the exact evaluation would
    fail the test too."""
    cg = cov @ grad
    d_g = float(np.dot(d, grad))
    d_cd = float(np.dot(d, cd))
    cross = float(np.dot(d, cg)) + float(np.dot(grad, cd))
    g_cg = float(np.dot(grad, cg))
    d_norm = math.sqrt(dd)
    g_norm = math.sqrt(gnorm2)
    cov_norm = math.sqrt(cov_fro2)
    rounding = 8.0 * (d.size + 8) * _UNIT_ROUNDOFF

    def surely_rejected(alpha, threshold):
        sq = dd - 2.0 * alpha * d_g + alpha * alpha * gnorm2
        quad = d_cd - alpha * cross + alpha * alpha * g_cg
        excess = sq * sq - 2.0 * quad + cov_fro2 - threshold
        reach = d_norm + alpha * g_norm
        magnitude = reach * reach + cov_norm
        return rounding * magnitude * magnitude + 1e-300 < excess < math.inf

    return surely_rejected


def fit(problem: CovFitProblem, options: FitOptions | None = None) -> CovFitResult:
    """Minimize the residual norm over the free coordinates of ``d``.

    Projected gradient descent: fixed coordinates never move, free
    coordinates follow the negative gradient with a backtracking Armijo
    line search whose trials are priced first (module docstring). Descent
    is monotone; the result's objective can never exceed the starting
    objective.
    """
    options = options or FitOptions()
    if not problem.num_free:
        raise ConfigurationError("no free coordinates; nothing to optimize")
    scale = 1.0 / (problem.n_train + 1.0) ** 2
    start = np.zeros(problem.num_free) if options.start_free is None else options.start_free
    d = _assemble(problem, start)

    cov = problem.cov
    cov_fro2, f_and_cd = _objective_terms(cov)
    f_raw, cd, dd = f_and_cd(d)
    if not np.isfinite(f_raw):
        raise NumericError("objective is not finite at the starting point")
    start_objective = f_raw * scale

    iterations = 0
    alpha = 1.0
    stop_reason = f"max_iter reached ({options.max_iter})"
    for _ in range(options.max_iter):
        grad = 4.0 * (dd * d - cd)
        grad[problem.fixed_mask] = 0.0
        gnorm2 = float(np.dot(grad, grad))
        if np.sqrt(gnorm2) * scale < options.grad_tol:
            stop_reason = "gradient tolerance"
            break
        surely_rejected = _trial_pricer(cov, d, grad, cd, dd, gnorm2, cov_fro2)
        alpha = min(alpha * 4.0, 1e12)
        accepted = False
        while alpha > 1e-20:
            threshold = f_raw - options.armijo_c * alpha * gnorm2
            if not surely_rejected(alpha, threshold):
                d_new = d - alpha * grad
                f_new, cd_new, dd_new = f_and_cd(d_new)
                if np.isfinite(f_new) and f_new <= threshold:
                    accepted = True
                    break
            alpha *= options.backtrack
        if not accepted:
            stop_reason = "line search stalled"
            break
        decrease = (f_raw - f_new) * scale
        d, f_raw, cd, dd = d_new, f_new, cd_new, dd_new
        iterations += 1
        if decrease < options.objective_tol * max(1.0, abs(f_raw) * scale):
            stop_reason = "objective tolerance"
            break

    b_hat = problem.row_means + d
    # Pin the fixed positions exactly; mu + (v - mu) can differ in the last ulp.
    b_hat[problem.fixed_mask] = problem.fixed_values
    bits_hat = bits_from_values(b_hat)

    delta_correct = None
    if problem.truth is not None:
        b_start = problem.row_means.copy()
        b_start[problem.fixed_mask] = problem.fixed_values
        truth_bits = bits_from_values(problem.truth)
        correct_start = int((bits_from_values(b_start) == truth_bits).sum())
        correct_end = int((bits_hat == truth_bits).sum())
        delta_correct = correct_end - correct_start

    return CovFitResult(
        b_hat=b_hat,
        objective=float(f_raw * scale),
        start_objective=float(start_objective),
        iterations=iterations,
        bits_hat=bits_hat,
        delta_correct=delta_correct,
        stop_reason=stop_reason,
    )


def choose_fixed_positions(
    num_pairs: int,
    count: int,
    selection: str = "even",
    seed: int | None = None,
) -> np.ndarray:
    """Pick which pair indices the attacker pins.

    ``even`` spreads them uniformly over the index range; ``random`` draws
    them without replacement from a seeded generator.
    """
    if not (0 <= count <= num_pairs):
        raise ConfigurationError(
            f"fixed count {count} out of range for {num_pairs} pairs"
        )
    if selection == "even":
        return np.floor(np.arange(count) * num_pairs / max(count, 1)).astype(np.int64)
    if selection == "random":
        if seed is None:
            raise ConfigurationError("random position selection requires a seed")
        rng = np.random.default_rng([seed, count])
        return np.sort(rng.choice(num_pairs, size=count, replace=False))
    raise ConfigurationError(f"unknown selection {selection!r}")


@dataclass(frozen=True)
class AttackCell:
    device_index: int
    mode: str
    fixed_count: int
    delta_correct: int | None
    objective: float | None
    iterations: int
    error: str | None = None


def evaluate_attack(
    diff,
    device_index: int,
    fixed_counts,
    mode: str | Sequence[str] = "trend",
    seed: int | None = None,
    selection: str = "even",
    trend_magnitude: float = 1.0,
    options: FitOptions | None = None,
) -> list[AttackCell]:
    """Leave-one-out attack sweep against a single target device.

    The target column is removed, covariance and row means are trained on
    the rest, and for each fixed count the pinned positions take either the
    target's exact values or their +-magnitude trend. ``mode`` is one mode
    or a sequence of them; cells come in (mode, fixed count) order. The
    training covariance is checked once; if the check fails, every cell
    carries its message. A failed cell is recorded with its error message
    rather than aborting the sweep.
    """
    d = np.asarray(diff, dtype=np.float64)
    if d.ndim != 2:
        raise StructuralError(f"difference matrix must be 2-dimensional, got {d.shape}")
    num_pairs, num_devices = d.shape
    if not (0 <= device_index < num_devices):
        raise ConfigurationError(
            f"device index {device_index} out of range for {num_devices} devices"
        )
    modes = (mode,) if isinstance(mode, str) else tuple(mode)
    for m in modes:
        if m not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {m!r}")
    truth = d[:, device_index]
    train = np.delete(d, device_index, axis=1)
    cov = covariance_matrix(train)
    mu = train.mean(axis=1)
    n_train = train.shape[1]
    try:
        cov = check_covariance(cov)
        cov_error = None
    except ConfigurationError as exc:
        cov_error = str(exc)

    masks = []
    for count in fixed_counts:
        mask = np.zeros(num_pairs, dtype=bool)
        mask[choose_fixed_positions(num_pairs, int(count), selection, seed)] = True
        masks.append((int(count), mask))

    def outcome(m, count, mask):
        """(delta_correct, objective, iterations, error) of one cell."""
        if cov_error is not None:
            return None, None, 0, cov_error
        if m == "exact":
            values = truth[mask]
        else:
            values = np.where(truth[mask] > 0.0, trend_magnitude, -trend_magnitude)
        if count == num_pairs:
            # Everything pinned: nothing to optimize, bits match by construction.
            residual = expanded_cov_residual(cov, mu, values, n_train)
            return 0, float(np.sum(residual * residual)), 0, None
        problem = CovFitProblem(
            cov=cov,
            row_means=mu,
            n_train=n_train,
            fixed_mask=mask,
            fixed_values=values,
            mode=m,
            trend_magnitude=trend_magnitude,
            truth=truth,
            covariance_checked=True,
        )
        try:
            result = fit(problem, options)
        except (ConfigurationError, NumericError) as exc:
            return None, None, 0, str(exc)
        return result.delta_correct, result.objective, result.iterations, None

    return [
        AttackCell(device_index, m, count, *outcome(m, count, mask))
        for m in modes
        for count, mask in masks
    ]
