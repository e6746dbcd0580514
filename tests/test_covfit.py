from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import pufstat.covfit as covfit
from oracles import (
    covfit_grid_search,
    covfit_objective_reference,
    expanded_covariance_reference,
    fit_reference,
    ray_step_reference,
)
from pufstat.correlation import covariance_matrix
from pufstat.covfit import (
    MODES,
    AttackCell,
    CovFitProblem,
    FitOptions,
    bits_from_values,
    choose_fixed_positions,
    evaluate_attack,
    expanded_cov_residual,
    fit,
    objective_and_gradient,
)
from pufstat.errors import ConfigurationError, NumericError


def _random_problem(seed, k=8, n_train=40, num_fixed=3):
    """A target and its pins: the problem, the fixed mask and the values."""
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(k, k)) / np.sqrt(k)
    data = mixing @ rng.normal(size=(k, n_train))
    problem = CovFitProblem(cov=covariance_matrix(data), row_means=data.mean(axis=1),
                            n_train=n_train)
    mask = np.zeros(k, dtype=bool)
    mask[rng.choice(k, size=num_fixed, replace=False)] = True
    return problem, mask, rng.normal(size=num_fixed)


def _free(mask):
    return int((~mask).sum())


def test_residual_at_mean_is_scaled_negative_cov():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(5, 20))
    cov = covariance_matrix(data)
    mu = data.mean(axis=1)
    residual = expanded_cov_residual(cov, mu, mu, n_train=20)
    assert np.allclose(residual, -cov / 21.0, atol=1e-15)


def test_residual_rank_one_exact_match():
    c = np.asarray([1.0, -2.0, 0.5])
    cov = np.outer(c, c)
    mu = np.zeros(3)
    residual = expanded_cov_residual(cov, mu, c, n_train=10)
    assert np.all(residual == 0.0)


def test_rank_one_identity_vs_direct_evaluation():
    # Appending one device column and recomputing the covariance with the
    # old row means must equal the rank-one shortcut.
    rng = np.random.default_rng(650)
    extended = rng.normal(size=(6, 51)) * 2.5
    train = extended[:, :50]
    cov = covariance_matrix(train)
    mu = train.mean(axis=1)
    shortcut = expanded_cov_residual(cov, mu, extended[:, 50], n_train=50)
    direct = expanded_covariance_reference(extended, 50) - cov
    assert np.max(np.abs(shortcut - direct)) < 1e-12


def test_objective_matches_expanded_reference():
    problem, mask, values = _random_problem(3)
    rng = np.random.default_rng(4)
    d_free = rng.normal(size=_free(mask))
    value, _ = objective_and_gradient(problem, mask, values, d_free)

    d = np.zeros(problem.num_pairs)
    d[mask] = values - problem.row_means[mask]
    d[~mask] = d_free
    want = covfit_objective_reference(problem.cov, d, problem.n_train)
    assert value == pytest.approx(want, rel=1e-12)
    # And the objective really is the squared Frobenius norm of the residual.
    residual = expanded_cov_residual(
        problem.cov, problem.row_means, problem.row_means + d, problem.n_train
    )
    assert value == pytest.approx(float(np.sum(residual * residual)), rel=1e-10)


def test_gradient_matches_central_finite_differences():
    for seed in (10, 11, 12):
        problem, mask, values = _random_problem(seed, k=8)
        rng = np.random.default_rng(seed + 100)
        d_free = rng.normal(size=_free(mask))
        _, grad = objective_and_gradient(problem, mask, values, d_free)
        grad_free = grad[~mask]

        h = 1e-6
        fd = np.empty_like(d_free)
        for i in range(d_free.size):
            up = d_free.copy()
            up[i] += h
            down = d_free.copy()
            down[i] -= h
            f_up, _ = objective_and_gradient(problem, mask, values, up)
            f_down, _ = objective_and_gradient(problem, mask, values, down)
            fd[i] = (f_up - f_down) / (2.0 * h)
        denom = np.linalg.norm(grad_free)
        assert denom > 0
        assert np.linalg.norm(grad_free - fd) / denom < 1e-6


def test_gradient_zeroed_at_fixed_positions():
    problem, mask, values = _random_problem(5)
    _, grad = objective_and_gradient(problem, mask, values, np.ones(_free(mask)))
    assert np.all(grad[mask] == 0.0)


def test_rank_one_recovery():
    rng = np.random.default_rng(21)
    c = rng.uniform(0.5, 1.5, size=6) * rng.choice([-1.0, 1.0], size=6)
    problem = CovFitProblem(cov=np.outer(c, c), row_means=np.zeros(6), n_train=50)
    options = FitOptions(
        max_iter=50000, grad_tol=1e-12, objective_tol=0.0,
        start_free=rng.normal(size=6),
    )
    result = fit(problem, np.zeros(6, dtype=bool), np.zeros(0), options)
    d_hat = result.b_hat  # row means are zero
    assert np.max(np.abs(np.abs(d_hat) - np.abs(c))) < 1e-6
    assert result.objective < 1e-12


def test_rank_one_agrees_with_coarse_grid_k3():
    rng = np.random.default_rng(22)
    c = np.asarray([0.8, -1.1, 0.6])
    cov = np.outer(c, c)
    mu = np.zeros(3)
    mask = np.asarray([True, False, False])
    values = np.asarray([c[0]])
    problem = CovFitProblem(cov=cov, row_means=mu, n_train=30)
    result = fit(problem, mask, values, FitOptions(start_free=rng.normal(size=2)))
    best_value, _ = covfit_grid_search(cov, mu, mask, values, 30)
    assert result.objective <= best_value + 1e-6


def test_fit_matches_grid_search_oracle():
    # Two coordinates pinned to the target's exact values, two optimized.
    rng = np.random.default_rng(33)
    shared = rng.normal(size=30)
    diff = 0.8 * np.vstack([shared, -shared, shared, -shared])
    diff = diff + rng.normal(size=(4, 30))
    truth = diff[:, 29]
    train = diff[:, :29]
    cov = covariance_matrix(train)
    mu = train.mean(axis=1)
    mask = np.asarray([True, False, True, False])
    values = truth[mask]
    problem = CovFitProblem(cov=cov, row_means=mu, n_train=29, truth=truth)
    result = fit(problem, mask, values)
    best_value, best_point = covfit_grid_search(cov, mu, mask, values, 29)
    assert abs(result.objective - best_value) <= 1e-4
    d_free = (result.b_hat - mu)[~mask]
    assert np.max(np.abs(d_free - np.asarray(best_point))) < 0.02


def test_fit_requires_free_coordinates():
    problem = CovFitProblem(cov=np.eye(3), row_means=np.zeros(3), n_train=5)
    with pytest.raises(ConfigurationError, match="no free coordinates"):
        fit(problem, np.ones(3, dtype=bool), np.asarray([1.0, -1.0, 1.0]))


def test_fixed_positions_pinned_exactly():
    problem, mask, values = _random_problem(41)
    result = fit(problem, mask, values)
    assert np.all(result.b_hat[mask] == values)
    assert result.objective <= result.start_objective


def test_monotone_descent_across_instances():
    for seed in range(50, 60):
        problem, mask, values = _random_problem(seed, k=10, num_fixed=4)
        result = fit(problem, mask, values)
        assert result.objective <= result.start_objective
        assert result.iterations <= FitOptions().max_iter
        assert np.all(np.isin(result.bits_hat, (0, 1)))


def test_sign_symmetry_of_returned_objective():
    rng = np.random.default_rng(60)
    data = rng.normal(size=(6, 30))
    problem = CovFitProblem(cov=covariance_matrix(data), row_means=np.zeros(6), n_train=30)
    pins = (np.zeros(6, dtype=bool), np.zeros(0))
    start = rng.normal(size=6)
    plus = fit(problem, *pins, FitOptions(start_free=start))
    minus = fit(problem, *pins, FitOptions(start_free=-start))
    assert plus.objective == minus.objective
    assert np.all(plus.b_hat == -minus.b_hat)


def test_problem_validation():
    eye = np.eye(3)
    mu = np.zeros(3)
    with pytest.raises(ConfigurationError, match="shape"):
        CovFitProblem(cov=np.eye(4), row_means=mu, n_train=5)
    with pytest.raises(ConfigurationError, match="symmetric"):
        CovFitProblem(cov=np.asarray([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                      row_means=mu, n_train=5)
    with pytest.raises(ConfigurationError, match="semidefinite"):
        CovFitProblem(cov=np.diag([1.0, -0.5, 1.0]), row_means=mu, n_train=5)
    with pytest.raises(ConfigurationError, match="n_train"):
        CovFitProblem(cov=eye, row_means=mu, n_train=0)
    with pytest.raises(ConfigurationError, match="truth"):
        CovFitProblem(cov=eye, row_means=mu, n_train=5, truth=np.zeros(4))
    problem = CovFitProblem(cov=eye, row_means=mu, n_train=5)
    assert problem.cov_fro2 == 3.0
    # The pins are checked by each call, against the target's length.
    for call in (lambda m, v: fit(problem, m, v),
                 lambda m, v: objective_and_gradient(problem, m, v, np.zeros(2))):
        with pytest.raises(ConfigurationError, match="fixed mask covers 2 positions, expected 3"):
            call(np.asarray([True, False]), np.asarray([1.0]))
        with pytest.raises(ConfigurationError, match="2 fixed values for 1 fixed positions"):
            call(np.asarray([True, False, False]), np.asarray([1.0, 2.0]))


def test_choose_fixed_positions_even():
    assert choose_fixed_positions(16, 4).tolist() == [0, 4, 8, 12]
    assert choose_fixed_positions(16, 0).tolist() == []
    assert choose_fixed_positions(16, 16).tolist() == list(range(16))
    assert choose_fixed_positions(10, 3).tolist() == [0, 3, 6]


def test_choose_fixed_positions_random():
    a = choose_fixed_positions(32, 8, selection="random", seed=7)
    b = choose_fixed_positions(32, 8, selection="random", seed=7)
    assert a.tolist() == b.tolist()
    assert len(set(a.tolist())) == 8
    assert a.tolist() == sorted(a.tolist())
    assert all(0 <= p < 32 for p in a)
    c = choose_fixed_positions(32, 8, selection="random", seed=8)
    assert c.tolist() != a.tolist()


def test_choose_fixed_positions_guards():
    with pytest.raises(ConfigurationError):
        choose_fixed_positions(16, 17)
    with pytest.raises(ConfigurationError):
        choose_fixed_positions(16, -1)
    with pytest.raises(ConfigurationError, match="seed"):
        choose_fixed_positions(16, 4, selection="random")
    with pytest.raises(ConfigurationError, match="selection"):
        choose_fixed_positions(16, 4, selection="first")


def test_attack_sweep_shape_and_edges():
    rng = np.random.default_rng(70)
    diff = rng.normal(size=(16, 24))
    cells = evaluate_attack(diff, device_index=5, fixed_counts=[0, 8, 16],
                            mode="exact")
    assert [c.fixed_count for c in cells] == [0, 8, 16]
    assert all(isinstance(c, AttackCell) for c in cells)
    assert all(c.error is None for c in cells)
    # m = 0 starts at the stationary mean point: nothing changes.
    assert cells[0].delta_correct == 0
    # m = K pins everything: trivially correct, no iterations.
    assert cells[2].delta_correct == 0
    assert cells[2].iterations == 0
    assert cells[2].objective is not None and np.isfinite(cells[2].objective)


def test_attack_null_mean_delta_small():
    # Independent rows carry no cross-pair structure, so the fit cannot
    # systematically improve or hurt the predicted bits.
    deltas = []
    for seed in range(20):
        rng = np.random.default_rng(900 + seed)
        diff = rng.normal(size=(16, 24))
        cells = evaluate_attack(diff, device_index=int(seed % 24),
                                fixed_counts=[8], mode="trend", seed=seed)
        deltas.append(cells[0].delta_correct)
    assert abs(float(np.mean(deltas))) < 1.0


def test_attack_exact_mode_exploits_shared_structure():
    # Strong rank-one structure: pinning half the coordinates to exact
    # values lets the fit infer the signs of the remaining ones.
    rng = np.random.default_rng(81)
    k, j = 32, 41
    pattern = rng.uniform(0.6, 1.4, size=k) * rng.choice([-1.0, 1.0], size=k)
    gains = rng.normal(size=j)
    diff = np.outer(pattern, gains) + 0.1 * rng.normal(size=(k, j))
    deltas = []
    for device in range(4):
        cells = evaluate_attack(diff, device_index=device,
                                fixed_counts=[k // 2], mode="exact", seed=5)
        deltas.append(cells[0].delta_correct)
    assert float(np.mean(deltas)) > 2.0


def test_attack_guards():
    rng = np.random.default_rng(90)
    diff = rng.normal(size=(8, 10))
    with pytest.raises(ConfigurationError):
        evaluate_attack(diff, device_index=10, fixed_counts=[0])
    with pytest.raises(ConfigurationError):
        evaluate_attack(diff, device_index=0, fixed_counts=[0], mode="best")
    for magnitude in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ConfigurationError, match="trend magnitude"):
            evaluate_attack(diff, device_index=0, fixed_counts=[0], trend_magnitude=magnitude)


def test_bits_from_values_strict_positive():
    assert bits_from_values([-1.0, 0.0, 2.0]).tolist() == [0, 0, 1]


# --- the exact line search against the plain loop and the root oracle -----


def _assert_same_fit(got, want):
    assert got.b_hat.tobytes() == want.b_hat.tobytes()
    assert got.bits_hat.tobytes() == want.bits_hat.tobytes()
    assert got.objective == want.objective
    assert got.start_objective == want.start_objective
    assert got.iterations == want.iterations
    assert got.stop_reason == want.stop_reason
    assert got.delta_correct == want.delta_correct


def _start(problem, mask, values, options):
    """The full ``d`` a fit with ``options`` starts from."""
    start = np.zeros(_free(mask)) if options.start_free is None else options.start_free
    return covfit._assemble(problem, mask, values, start)


def _rounding(problem, *points):
    """A bound on the float64 rounding of the scaled objective, and of a step
    priced from dot products, at each ``d`` in ``points``: a small multiple of
    ``k u (|d|^2 + ||C||_F)^2``."""
    cov_norm = float(np.linalg.norm(problem.cov))
    reach = max(float(np.dot(d, d)) for d in points)
    return 64 * (problem.num_pairs + 8) * 2.0**-53 * (reach + cov_norm) ** 2 \
        / (problem.n_train + 1.0) ** 2


def _assert_one_step_no_worse(problem, mask, values, options):
    """One exact step is no worse than one plain-loop step from the same start,
    within the rounding at the start and at both ends."""
    options = replace(options, max_iter=1)
    got = fit(problem, mask, values, options)
    want = fit_reference(problem, mask, values, options)
    points = [_start(problem, mask, values, options)] \
        + [r.b_hat - problem.row_means for r in (got, want)]
    assert got.objective <= want.objective + _rounding(problem, *points)


def _assert_no_worse_cell(got, want):
    """The sweep gate: an objective at most 1e-11 relative above the plain
    loop's, and a different delta only with a strictly lower objective."""
    assert got.objective <= want.objective * (1.0 + 1e-11)
    if got.delta_correct != want.delta_correct:
        assert got.objective < want.objective


def _training_problem(seed, k, n_train, fixed_mask, mode="exact", spread=1.0,
                      offset=0.0, skew=0.0):
    """A leave-one-out problem and its pins: train on ``n_train`` correlated
    devices, pin the masked coordinates of one more device as the attack does.
    ``skew`` adds that much relative asymmetry, which the problem check
    tolerates."""
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(k, k)) / np.sqrt(k)
    data = spread * (mixing @ rng.normal(size=(k, n_train + 1))) + offset
    truth, train = data[:, -1], data[:, :-1]
    cov = covariance_matrix(train)
    cov = cov + skew * np.abs(cov).max() * np.triu(rng.uniform(size=(k, k)), 1)
    mask = np.asarray(fixed_mask, dtype=bool)
    if mode == "exact":
        values = truth[mask]
    else:
        values = np.where(truth[mask] > 0.0, 1.0, -1.0)
    problem = CovFitProblem(cov=cov, row_means=train.mean(axis=1), n_train=n_train,
                            truth=truth)
    return problem, mask, values


@st.composite
def _fit_cases(draw):
    k = draw(st.integers(2, 12))
    fixed = draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(lambda m: not all(m)))
    problem, mask, values = _training_problem(
        seed=draw(st.integers(0, 2**32 - 1)),
        k=k,
        n_train=draw(st.integers(2, 40)),
        fixed_mask=fixed,
        mode=draw(st.sampled_from(MODES)),
        spread=draw(st.sampled_from([1e-3, 1.0, 30.0])),
        offset=draw(st.sampled_from([0.0, 1e6, -1e6])),
        skew=draw(st.sampled_from([0.0, 1e-9])),
    )
    start_free = None
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
        start_free = scale * np.asarray(draw(st.lists(
            st.floats(-1.0, 1.0), min_size=_free(mask), max_size=_free(mask))))
    tight = draw(st.booleans())
    options = FitOptions(
        max_iter=draw(st.sampled_from([1, 2, 3, 40, 400])),
        grad_tol=0.0 if tight else 1e-8,
        objective_tol=0.0 if tight else 1e-12,
        start_free=start_free,
    )
    return problem, mask, values, options


@settings(max_examples=150, deadline=None)
@given(_fit_cases())
def test_fit_equals_plain_loop(case):
    # Both start from the same objective and descend; the first exact step
    # is no worse than the plain loop's first Armijo step.
    problem, mask, values, options = case
    got = fit(problem, mask, values, options)
    want = fit_reference(problem, mask, values, options)
    assert got.start_objective == want.start_objective
    assert got.objective <= got.start_objective
    assert got.iterations <= options.max_iter
    _assert_one_step_no_worse(problem, mask, values, options)


@settings(max_examples=150, deadline=None)
@given(_fit_cases())
@example((  # a gradient near 1e-123: 4 |g|^4 underflows to 0
    CovFitProblem(cov=np.array([[1.36863634e-08, 1.66049962e-08],
                                [1.66049962e-08, 2.01460306e-08]]),
                  row_means=np.array([-1.91037471e-05, -3.03893780e-05]),
                  n_train=2, truth=np.array([0.00023414, 0.00049665])),
    np.array([False, False]),
    np.array([], dtype=np.float64),
    FitOptions(max_iter=1, grad_tol=1e-08, objective_tol=1e-12,
               start_free=np.array([0.0, 9.88251763e-116])),
))
def test_ray_step_no_worse_than_root_oracle(case):
    problem, mask, values, options = case
    d = _start(problem, mask, values, options)
    _, cd, dd = covfit._objective_terms(problem, d)
    grad = 4.0 * (dd * d - cd)
    grad[mask] = 0.0
    gnorm2 = float(np.dot(grad, grad))
    assume(gnorm2 > 0.0)
    step = covfit._ray_step(problem.cov, d, grad, cd, dd, gnorm2)
    want = ray_step_reference(problem.cov, d, grad)
    if 4.0 * gnorm2 * gnorm2 == 0.0:
        # The cubic's leading coefficient underflowed; fit falls back to Armijo.
        assert step is None
        return
    assert step is not None

    def objective(a):
        return covfit_objective_reference(problem.cov, d - a * grad, problem.n_train)

    assert objective(step) <= objective(want) + _rounding(problem, d, d - step * grad,
                                                          d - want * grad)


@pytest.mark.parametrize("coeffs, roots", [
    ((2.0, -12.0, 22.0, -12.0), [1.0, 2.0, 3.0]),  # 2 (a-1)(a-2)(a-3)
    ((1.0, -2.0, -2.0, -3.0), [3.0]),  # (a-3)(a^2+a+1): one real root, p < 0
    ((1.0, 0.0, 1.0, -10.0), [2.0]),  # (a-2)(a^2+2a+5): one real root, p > 0
    ((1.0, 0.0, 1e14, -1.0), [1e-14]),  # p > 0, where Cardano's formula cancels
    ((1.0, -3.0, 3.0, -1.0), [1.0]),  # (a-1)^3: p = 0
])
def test_cubic_roots(coeffs, roots):
    assert sorted(covfit._cubic_roots(*coeffs)) == pytest.approx(roots, rel=1e-12)


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_fit_equals_plain_loop_at_max_iter(max_iter):
    # From each of the first iterates, one more exact step is no worse than
    # one plain-loop step from the same point.
    problem, mask, values = _random_problem(7, k=10, num_fixed=4)
    before = fit(problem, mask, values, FitOptions(max_iter=max_iter - 1))
    got = fit(problem, mask, values, FitOptions(max_iter=max_iter))
    assert got.stop_reason == f"max_iter reached ({max_iter})"
    assert got.objective < before.objective
    d_free = (before.b_hat - problem.row_means)[~mask]
    _assert_one_step_no_worse(problem, mask, values, FitOptions(start_free=d_free))


def _rank_one_problem(seed, extra=0.0, skew=0.0):
    """A near rank-one target with its first coordinate pinned: the problem,
    its pins, and the generator for a start."""
    rng = np.random.default_rng(300 + seed)
    c = rng.uniform(0.5, 1.5, size=6) * rng.choice([-1.0, 1.0], size=6)
    problem = CovFitProblem(
        cov=np.outer(c, c) + extra * np.eye(6) + skew * np.triu(np.ones((6, 6)), 1),
        row_means=np.zeros(6),
        n_train=50,
    )
    pins = (np.asarray([True, False, False, False, False, False]), np.asarray([c[0]]))
    return problem, pins, rng


@pytest.mark.parametrize("seed", range(3))
def test_fit_equals_plain_loop_through_line_search_stall(seed):
    # From a start this far out even the smallest trial step overshoots, so
    # every trial fails and the search stalls before the first step.
    problem, pins, rng = _rank_one_problem(seed, extra=0.01)
    options = FitOptions(start_free=1e20 * rng.normal(size=5))
    want = fit_reference(problem, *pins, options)
    assert want.stop_reason == "line search stalled"
    assert want.iterations == 0
    _assert_same_fit(fit(problem, *pins, options), want)


@pytest.mark.parametrize("skew", [0.0, 5e-9])
@pytest.mark.parametrize("seed", range(3))
def test_fit_equals_plain_loop_at_the_rounding_floor(seed, skew):
    # With both tolerances off the descent keeps stepping until the objective
    # is rounding noise, where the Armijo test is decided by the last bits of
    # each exact evaluation. A covariance that is symmetric only to the
    # tolerance of the problem check must get there too.
    problem, pins, rng = _rank_one_problem(seed, skew=skew)
    options = FitOptions(max_iter=3000, grad_tol=0.0, objective_tol=0.0,
                         start_free=rng.normal(size=5))
    got = fit(problem, *pins, options)
    assert got.stop_reason in ("max_iter reached (3000)", "line search stalled")
    assert got.objective < 1e-15


@pytest.mark.parametrize("offset", [1e6, -1e6])
@pytest.mark.parametrize("mode", MODES)
def test_fit_equals_plain_loop_with_large_row_means(offset, mode):
    for seed in range(5):
        k = 12
        mask = np.zeros(k, dtype=bool)
        mask[::3] = True
        case = _training_problem(seed, k, 30, mask, mode=mode, offset=offset)
        _assert_no_worse_cell(fit(*case), fit_reference(*case))


def _oracle_cells(diff, device, fixed_counts, mode, seed, selection, solve):
    """The attack sweep built cell by cell: a fresh, fully checked problem and
    ``solve`` (``fit`` or the plain loop) for every cell."""
    num_pairs = diff.shape[0]
    truth = diff[:, device]
    train = np.delete(diff, device, axis=1)
    cov = covariance_matrix(train)
    mu = train.mean(axis=1)
    cells = []
    for count in fixed_counts:
        mask = np.zeros(num_pairs, dtype=bool)
        mask[choose_fixed_positions(num_pairs, count, selection, seed)] = True
        if mode == "exact":
            values = truth[mask]
        else:
            values = np.where(truth[mask] > 0.0, 1.0, -1.0)
        if count == num_pairs:
            residual = expanded_cov_residual(cov, mu, values, train.shape[1])
            value = float(np.sum(residual * residual))
            cells.append(AttackCell(device, mode, count, 0, value, 0, "all pinned", value))
            continue
        problem = CovFitProblem(cov=cov, row_means=mu, n_train=train.shape[1], truth=truth)
        result = solve(problem, mask, values)
        cells.append(AttackCell(device, mode, count, result.delta_correct, result.objective,
                                result.iterations, result.stop_reason,
                                result.start_objective))
    return cells


def _sweep_counts(num_pairs):
    return [0, 1, num_pairs // 4, num_pairs // 2, num_pairs - 1, num_pairs]


@pytest.mark.parametrize("selection", ["even", "random"])
def test_attack_sweep_equals_oracle_cells(small_matrices, selection):
    diff = small_matrices.diff
    counts = _sweep_counts(diff.shape[0])
    for device in (0, 7, 30, diff.shape[1] - 1):
        cells = evaluate_attack(diff, device, counts, mode=MODES, seed=5,
                                selection=selection)
        want = [cell for mode in MODES
                for cell in _oracle_cells(diff, device, counts, mode, 5, selection, fit)]
        assert cells == want
        for i, mode in enumerate(MODES):
            single = evaluate_attack(diff, device, counts, mode=mode, seed=5,
                                     selection=selection)
            assert single == want[i * len(counts):(i + 1) * len(counts)]


@pytest.mark.parametrize("selection", ["even", "random"])
def test_attack_sweep_no_worse_than_plain_loop(small_matrices, selection):
    diff = small_matrices.diff
    counts = _sweep_counts(diff.shape[0])
    for device in range(0, diff.shape[1], 6):
        cells = evaluate_attack(diff, device, counts, mode=MODES, seed=5,
                                selection=selection)
        want = [cell for mode in MODES
                for cell in _oracle_cells(diff, device, counts, mode, 5, selection,
                                          fit_reference)]
        assert [c.stop_reason for c in cells if c.fixed_count == 0] == ["gradient tolerance"] * 2
        for got, ref in zip(cells, want, strict=True):
            _assert_no_worse_cell(got, ref)


def _count_calls(monkeypatch, module, name):
    """Record the argument shapes of every call to ``module.name``."""
    calls = []
    wrapped = getattr(module, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return wrapped(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_attack_checks_training_covariance_once_per_target(monkeypatch):
    # One eigvalsh (the PSD check) and one ||C||_F^2 (np.sum over a k x k
    # matrix) per target, however many cells it has; no count here pins
    # every position, so no residual is summed.
    eig_calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    sum_calls = _count_calls(monkeypatch, np, "sum")
    rng = np.random.default_rng(95)
    diff = rng.normal(size=(16, 24))
    for target in (2, 11):
        cells = evaluate_attack(diff, target, [0, 4, 8, 12, 15], mode=MODES, seed=1)
        assert len(cells) == 10
        assert all(c.error is None for c in cells)
    assert eig_calls == [(16, 16), (16, 16)]
    assert [shape for shape in sum_calls if shape == (16, 16)] == [(16, 16), (16, 16)]


@pytest.mark.parametrize("bad_cov, error, message, eigvalsh_calls", [
    (np.diag([1.0, -0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), ConfigurationError,
     "covariance matrix is not positive semidefinite (eigmin -0.5)", 1),
    (np.eye(8) + np.triu(np.ones((8, 8)), 1), ConfigurationError,
     "covariance matrix is not symmetric", 0),
    (np.diag([1.0, np.inf, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]), NumericError,
     "covariance matrix is not finite", 0),
], ids=["not-psd", "not-symmetric", "not-finite"])
def test_failed_covariance_check_raises(monkeypatch, bad_cov, error, message, eigvalsh_calls):
    # The check runs once, before any cell, and a non-finite matrix never
    # reaches eigvalsh.
    calls = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    monkeypatch.setattr(covfit, "covariance_matrix", lambda train: bad_cov)
    rng = np.random.default_rng(96)
    diff = rng.normal(size=(8, 12))
    with pytest.raises(error) as excinfo:
        evaluate_attack(diff, 3, [0, 4, 8], mode=MODES, seed=1)
    assert str(excinfo.value) == message
    assert len(calls) == eigvalsh_calls
