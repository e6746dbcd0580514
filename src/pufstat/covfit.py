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
projected gradient descent with an exact line search, starting from
the training row means (d_free = 0).

The payoff metric is ``delta_correct``: how many more response bits the
fitted vector gets right compared to the starting point.

Exact line search. With the unscaled objective
``F(x) = |x|^4 - 2 x.Cx + ||C||_F^2``, a step ``x = d - a g`` along the
projected gradient ``g`` has

    F(d - a g) = (d.d - 2a d.g + a^2 g.g)^2
                 - 2 (d.Cd - a (d.Cg + g.Cd) + a^2 g.Cg) + ||C||_F^2,

a quartic in ``a`` priced by one mat-vec ``Cg`` and five dot products beyond
``d.d`` and ``g.g`` (``d.Cg`` and ``g.Cd`` stay apart because ``C`` need only
be symmetric to 1e-8). Its stationary points are the real roots of the cubic
``dF/da``, found in closed form; the positive root with the lowest priced
quartic is the exact line-search step (Nocedal & Wright 2006, ch. 3). That
step is evaluated exactly once and accepted under the Armijo test; if it
fails, or no finite positive root exists, the step is halved until it passes
or falls below 1e-20, where the search stalls.
"""

from __future__ import annotations

import io
import math
import pickle
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import BLAS_PINNED
from .correlation import covariance_matrix
from .errors import ConfigurationError, NumericError, StructuralError, check_seed
from .matrices import as_matrix, response_bits
from .parallel import run_parts

MODES = ("trend", "exact")
SELECTIONS = ("even", "random")
DEFAULT_SELECTION = "even"
DEFAULT_TREND_MAGNITUDE = 1.0  # MHz
DEFAULT_TARGETS = 8  # attack targets per run, as in the paper
REFERENCE_SEED = 1  # the reference chain's attack seed, unless given another

# Armijo sufficient-decrease constant, and the factor that shrinks a step
# which fails the test.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
# Largest covariance check_covariance tests by Cholesky first: k^2 2^-53,
# the factorization's relative backward error, stays under 5e-10, a tenth
# of the half tolerance the shift leaves, up to k = 2122.
_CHOLESKY_MAX = 2048
# Work, in cells times pairs squared, each attack share holds at least: a
# fork and the child's first page faults cost about 10 ms at 45 MB RSS, as
# much as one reference-shape target of 16 cells (2**20, about 9 ms). On two
# CPUs four such targets took 27 ms in two shares and 34 ms in one.
_PART_WORK = 2**21


@dataclass(frozen=True)
class FitOptions:
    """Gradient descent controls.

    ``start_free`` optionally overrides the zero starting point of the free
    coordinates of ``d``; the default reproduces the mean-start protocol.
    """

    max_iter: int = 5000
    grad_tol: float = 1e-8
    objective_tol: float = 1e-12
    start_free: np.ndarray | None = None


def check_covariance(cov) -> np.ndarray:
    """Check that the square matrix ``cov`` is finite, symmetric and positive
    semidefinite, the last two to 1e-8 of its largest entry; return it as
    float64. A covariance that overflowed is a NumericError.

    The PSD test accepts when the smallest eigenvalue of the symmetric part
    is at least -1e-8 times the largest entry. Up to ``_CHOLESKY_MAX`` rows
    it first tries a Cholesky factorization of that part shifted by half
    the tolerance, which is cheaper than the spectrum. If it succeeds, the
    eigenvalue lies above the boundary by more than the factorization's
    backward error (at most about k^2 2^-53 of the scale, Higham 2002,
    10.1), so the verdict is the spectrum's. A matrix it rejects goes to
    ``eigvalsh``, which decides and names the eigenvalue.
    """
    cov = np.asarray(cov, dtype=np.float64)
    if not np.isfinite(cov).all():
        raise NumericError("covariance matrix is not finite")
    # The largest magnitude without an |cov| temporary.
    scale = max(float(cov.max()), -float(cov.min())) or 1.0
    # cov - cov.T holds each difference with both signs: its max is the
    # largest magnitude.
    asym = cov - cov.T
    if float(asym.max()) > 1e-8 * scale:
        raise ConfigurationError("covariance matrix is not symmetric")
    if len(cov) <= _CHOLESKY_MAX:
        # cov - asym / 2 is the symmetric part to rounding, built in place.
        # Its transpose is Fortran-ordered, as LAPACK reads it, so numpy
        # copies it in without a strided pass.
        shifted = np.multiply(asym, -0.5, out=asym)
        shifted += cov
        shifted.flat[::len(cov) + 1] += 0.5e-8 * scale
        try:
            np.linalg.cholesky(shifted.T)
            return cov
        except np.linalg.LinAlgError:
            pass
    eigmin = float(np.linalg.eigvalsh((cov + cov.T) / 2.0).min())
    if eigmin < -1e-8 * scale:
        raise ConfigurationError(
            f"covariance matrix is not positive semidefinite (eigmin {eigmin:g})"
        )
    return cov


@dataclass(frozen=True)
class CovFitProblem:
    """One attack target, checked once and shared by every fit against it.

    ``cov`` and ``row_means`` come from the training devices, ``n_train`` of
    them, with ``cov`` using the population divisor; ``cov`` must pass
    ``check_covariance``. ``truth`` (the target's real difference vector) is
    optional and only used for scoring. ``cov_fro2`` is ``||C||_F^2``, the
    constant term of every objective. The pinned coordinates are arguments
    of ``fit``, not part of the target.
    """

    cov: np.ndarray
    row_means: np.ndarray
    n_train: int
    truth: np.ndarray | None = None
    cov_fro2: float = field(init=False, repr=False)

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=np.float64)
        mu = np.asarray(self.row_means, dtype=np.float64).ravel()
        k = mu.size
        if cov.shape != (k, k):
            raise ConfigurationError(
                f"covariance shape {cov.shape} does not match {k} row means"
            )
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
        object.__setattr__(self, "cov_fro2", float(np.sum(cov * cov)))

    @property
    def num_pairs(self) -> int:
        return self.row_means.size


@dataclass(frozen=True)
class CovFitResult:
    b_hat: np.ndarray
    objective: float
    start_objective: float
    iterations: int
    bits_hat: np.ndarray
    delta_correct: int | None
    stop_reason: str


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


def _objective_terms(problem: CovFitProblem, d):
    """The unscaled objective, ``C d`` and ``d.d`` at ``d``."""
    cd = problem.cov @ d
    dd = float(np.dot(d, d))
    return dd * dd - 2.0 * float(np.dot(d, cd)) + problem.cov_fro2, cd, dd


def _gradient(d, cd, dd, mask) -> np.ndarray:
    """The unscaled gradient ``4 (d.d d - C d)``, zero at the pinned coordinates."""
    grad = 4.0 * (dd * d - cd)
    grad[mask] = 0.0
    return grad


def _pins(problem: CovFitProblem, fixed_mask, fixed_values) -> tuple[np.ndarray, np.ndarray]:
    """The pinned coordinates as a boolean mask and their values of ``b`` in
    mask order, checked against the target's length."""
    mask = np.asarray(fixed_mask, dtype=bool).ravel()
    values = np.asarray(fixed_values, dtype=np.float64).ravel()
    if mask.size != problem.num_pairs:
        raise ConfigurationError(
            f"fixed mask covers {mask.size} positions, expected {problem.num_pairs}"
        )
    if values.size != int(mask.sum()):
        raise ConfigurationError(
            f"{values.size} fixed values for {int(mask.sum())} fixed positions"
        )
    return mask, values


def _assemble(problem: CovFitProblem, mask, values, d_free) -> np.ndarray:
    free = ~mask
    start = np.asarray(d_free, dtype=np.float64).ravel()
    if start.size != int(free.sum()):
        raise ConfigurationError(
            f"got {start.size} free values for {int(free.sum())} free coordinates"
        )
    d = np.zeros(problem.num_pairs)
    d[mask] = values - problem.row_means[mask]
    d[free] = start
    return d


def objective_and_gradient(problem: CovFitProblem, fixed_mask, fixed_values,
                           d_free) -> tuple[float, np.ndarray]:
    """Objective value and full-length gradient at the given free vector.

    Gradient entries at fixed positions are zeroed, matching the projected
    descent direction.
    """
    mask, values = _pins(problem, fixed_mask, fixed_values)
    d = _assemble(problem, mask, values, d_free)
    scale = 1.0 / (problem.n_train + 1.0) ** 2
    f_raw, cd, dd = _objective_terms(problem, d)
    return f_raw * scale, _gradient(d, cd, dd, mask) * scale


def _cubic_roots(c3, c2, c1, c0) -> list[float]:
    """Real roots of ``c3 a^3 + c2 a^2 + c1 a + c0`` (``c3 != 0``). The cubic
    is shifted to ``t^3 + p t + q`` and solved in trigonometric or hyperbolic
    form, which avoids the cancellation of Cardano's formula."""
    shift = c2 / (3.0 * c3)
    p = c1 / c3 - 3.0 * shift * shift
    q = (2.0 * shift * shift - c1 / c3) * shift + c0 / c3
    if p == 0.0:
        return [math.copysign(abs(q) ** (1.0 / 3.0), -q) - shift]
    r = math.sqrt(abs(p) / 3.0)
    h = 0.5 * q / (r * r * r)
    if p > 0.0:
        return [-2.0 * r * math.sinh(math.asinh(h) / 3.0) - shift]
    if abs(h) > 1.0:
        return [-2.0 * math.copysign(r, h) * math.cosh(math.acosh(abs(h)) / 3.0) - shift]
    theta = math.acos(-h)
    return [2.0 * r * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)]


def _ray_step(cov, d, grad, cd, dd, gnorm2) -> float | None:
    """The exact line-search step along ``-grad`` (module docstring), or None
    when the cubic has no finite positive root."""
    cg = cov @ grad
    d_g = float(np.dot(d, grad))
    d_cd = float(np.dot(d, cd))
    cross = float(np.dot(d, cg)) + float(np.dot(grad, cd))
    g_cg = float(np.dot(grad, cg))

    def priced(a):
        sq = dd - 2.0 * a * d_g + a * a * gnorm2
        return sq * sq - 2.0 * (d_cd - a * cross + a * a * g_cg)

    try:
        roots = _cubic_roots(
            4.0 * gnorm2 * gnorm2,
            -12.0 * d_g * gnorm2,
            4.0 * (dd * gnorm2 + 2.0 * d_g * d_g - g_cg),
            2.0 * cross - 4.0 * dd * d_g,
        )
    except ZeroDivisionError:  # 4 g.g^2, or r^3 in the cubic, underflowed to 0
        return None
    steps = [a for a in roots if 0.0 < a < math.inf]
    return min(steps, key=priced, default=None)


def fit(problem: CovFitProblem, fixed_mask, fixed_values,
        options: FitOptions | None = None) -> CovFitResult:
    """Minimize the residual norm over the free coordinates of ``d``.

    ``fixed_mask`` marks the pinned coordinates and ``fixed_values`` holds
    their values of ``b`` in mask order. Projected gradient descent: fixed
    coordinates never move, free coordinates follow the negative gradient
    with an exact line search (module docstring). Descent is monotone; the
    result's objective can never exceed the starting objective.

    The stop reasons: ``max_iter reached (N)`` after N iterations;
    ``gradient tolerance`` when the scaled projected gradient falls below
    ``grad_tol``; ``objective tolerance`` when a step lowers the scaled
    objective by less than ``objective_tol`` of it (at least 1); ``line
    search stalled`` when no step above 1e-20 passes the Armijo test; and
    ``stationary start`` when the first projected gradient is exactly 0, so
    no step is taken: every coordinate is pinned, or none is and the start
    is the row means (``d = 0``), where the optimum is ``+-sqrt(lambda_1)
    v_1`` and no sign is picked.
    """
    options = options or FitOptions()
    mask, values = _pins(problem, fixed_mask, fixed_values)
    num_free = mask.size - int(mask.sum())
    scale = 1.0 / (problem.n_train + 1.0) ** 2
    start = np.zeros(num_free) if options.start_free is None else options.start_free
    d = _assemble(problem, mask, values, start)

    cov = problem.cov
    f_raw, cd, dd = _objective_terms(problem, d)
    if not np.isfinite(f_raw):
        raise NumericError("objective is not finite at the starting point")
    start_objective = f_raw * scale

    iterations = 0
    stop_reason = f"max_iter reached ({options.max_iter})"
    for _ in range(options.max_iter):
        grad = _gradient(d, cd, dd, mask)
        gnorm2 = float(np.dot(grad, grad))
        if gnorm2 == 0.0 and iterations == 0:
            stop_reason = "stationary start"
            break
        if np.sqrt(gnorm2) * scale < options.grad_tol:
            stop_reason = "gradient tolerance"
            break
        alpha = _ray_step(cov, d, grad, cd, dd, gnorm2)
        if alpha is None:
            alpha = 1.0
        accepted = False
        while alpha > 1e-20:
            d_new = d - alpha * grad
            f_new, cd_new, dd_new = _objective_terms(problem, d_new)
            if np.isfinite(f_new) and f_new <= f_raw - ARMIJO_C * alpha * gnorm2:
                accepted = True
                break
            alpha *= BACKTRACK
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
    b_hat[mask] = values
    bits_hat = response_bits(b_hat)

    delta_correct = None
    if problem.truth is not None:
        b_start = problem.row_means.copy()
        b_start[mask] = values
        truth_bits = response_bits(problem.truth)
        correct_start = int((response_bits(b_start) == truth_bits).sum())
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
    selection: str = DEFAULT_SELECTION,
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
        rng = np.random.default_rng([check_seed(seed), count])
        return np.sort(rng.choice(num_pairs, size=count, replace=False))
    raise ConfigurationError(f"unknown selection {selection!r}")


def choose_targets(num_devices: int, count: int, seed: int) -> list[int]:
    """``count`` target devices, or all where there are fewer, drawn without
    replacement from ``seed``, ascending."""
    rng = np.random.default_rng(check_seed(seed))
    return sorted(int(j) for j in rng.choice(num_devices, min(count, num_devices), replace=False))


def auto_fixed_counts(num_pairs: int) -> list[int]:
    """The ``auto`` pinned counts: 8 spread over 0..7/8 of the pair count,
    each once; at 256 pairs that is 0,32,64,96,128,160,192,224."""
    return sorted({num_pairs * k // 8 for k in range(8)})


@dataclass(frozen=True)
class AttackCell:
    """One (target, mode, fixed count) cell of an attack sweep: one ``fit``
    and its stop reason, each explained by ``fit``: ``max_iter reached
    (N)``, ``gradient tolerance``, ``objective tolerance``, ``line search
    stalled``, or ``stationary start`` (no step, as with nothing or every
    position pinned). ``evaluate_attack`` raises rather than record a
    failed cell, so it leaves ``error`` None."""

    device_index: int
    mode: str
    fixed_count: int
    delta_correct: int
    objective: float
    iterations: int
    stop_reason: str
    start_objective: float
    error: str | None = None


def evaluate_attack(
    diff,
    devices: Sequence[int],
    fixed_counts,
    mode: str | Sequence[str] = "trend",
    seed: int | None = None,
    selection: str = DEFAULT_SELECTION,
    trend_magnitude: float = DEFAULT_TREND_MAGNITUDE,
) -> list[AttackCell]:
    """Leave-one-out attack sweep against each target device of ``devices``.

    For each target, its column is removed, covariance and row means are
    trained on the rest into one ``CovFitProblem``, and for each fixed count
    the pinned positions take either the target's exact values or their
    +-magnitude trend. ``mode`` is one mode or a sequence of them; cells come
    in (device, mode, fixed count) order. A repeated target or fixed count
    is refused. Every argument is checked before any target is trained; a
    training covariance that fails its check, or a fit that fails, raises
    out of the sweep, the first such target in device order.

    The targets are the items of one ``parallel.run_parts`` job, sized in
    cells times pairs squared, each share at least ``_PART_WORK``, or all
    the work where ``pufstat.BLAS_PINNED`` is false. A share
    appends one pickle of each of its targets' cells, read back here in
    order: the bytes come from this process or its own forks, and pickle
    gives back every float exactly.
    """
    d = as_matrix(diff, "difference matrix", np.float64)
    num_pairs, num_devices = d.shape
    devices = list(devices)
    for device in devices:
        if not (0 <= device < num_devices):
            raise ConfigurationError(
                f"device index {device} out of range for {num_devices} devices"
            )
    refuse_repeats(devices, "target device")
    modes = (mode,) if isinstance(mode, str) else tuple(mode)
    for m in modes:
        if m not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {m!r}")
    check_trend_magnitude(trend_magnitude)
    counts = [int(count) for count in fixed_counts]
    refuse_repeats(counts, "fixed count")
    masks = []
    for count in counts:
        mask = np.zeros(num_pairs, dtype=bool)
        mask[choose_fixed_positions(num_pairs, count, selection, seed)] = True
        masks.append((count, mask))

    def part(buffer, lo, hi):
        for device in devices[lo:hi]:
            buffer += pickle.dumps(_attack_target(d, device, masks, modes, trend_magnitude))

    data = bytearray()
    sizes = [len(modes) * len(masks) * num_pairs**2] * len(devices)
    # A unit above all the work makes one share, run in this process.
    run_parts(data, sizes, _PART_WORK if BLAS_PINNED else sum(sizes) + 1, part)
    stream = io.BytesIO(data)
    return [cell for _ in devices for cell in pickle.load(stream)]


def check_trend_magnitude(magnitude):
    """``magnitude``, if positive and finite; else a ``ConfigurationError``."""
    if magnitude > 0.0 and math.isfinite(magnitude):
        return magnitude
    raise ConfigurationError(f"trend magnitude must be positive and finite, got {magnitude!r}")


def refuse_repeats(values: list[int], what: str) -> None:
    """Raise a ``ConfigurationError`` naming the first value that ``values``
    repeats; ``what`` says what the values are."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigurationError(f"{what} {value} is repeated")
        seen.add(value)


def _attack_target(d: np.ndarray, device_index: int, masks, modes,
                   trend_magnitude: float) -> list[AttackCell]:
    """The cells of one target, in (mode, fixed count) order, for the
    checked arguments of ``evaluate_attack``."""
    truth = d[:, device_index]
    train = np.delete(d, device_index, axis=1)
    problem = CovFitProblem(covariance_matrix(train), train.mean(axis=1), train.shape[1],
                            truth)

    def cell(m, count, mask):
        if m == "exact":
            values = truth[mask]
        else:
            values = np.where(truth[mask] > 0.0, trend_magnitude, -trend_magnitude)
        result = fit(problem, mask, values)
        return AttackCell(device_index, m, count, result.delta_correct, result.objective,
                          result.iterations, result.stop_reason, result.start_objective)

    return [cell(m, count, mask) for m in modes for count, mask in masks]
